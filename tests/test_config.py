from pathlib import Path

import numpy as np
import pytest

import hfs
from hfs.cli import run_cli
from hfs.config import (ConfigSyntaxError, DuplicateKeyError,
                        UnitMismatchError, UnknownKeyError, parse_config)
from hfs.params import TWO_PI

CONFIG = Path(__file__).resolve().parents[1] / "demos" / "sweep.cfg"

GOOD = """\
# sodium run
[system]
gamma = 9.76          # MHz by default
delta_g = 1771.62 MHz
delta_e = 188.88 MHz

[drive]
omega = 5.0           # gamma units by default
delta_c = 0.5 delta_u
ndd = true

[sweep]
delta_c_min = -2.0 delta_u
delta_c_max = 2.0 delta_u
delta_c_count = 41
omega_list = 0.5, 5.0, 20.0
ndd = false

[solver]
fp_tol = 1e-10
max_iters = 200
damping = 0.5
"""


class TestParsing:

    def test_system_section(self):
        doc = parse_config(GOOD)
        p = doc.system_params()
        assert p.gamma_ref == pytest.approx(TWO_PI * 9.76e6)
        assert p.delta_g == pytest.approx(1771.62 / 9.76, rel=1e-12)
        assert p.delta_e == pytest.approx(188.88 / 9.76, rel=1e-12)

    def test_drive_section(self):
        doc = parse_config(GOOD)
        p = doc.system_params()
        kw = doc.drive_kwargs(p)
        assert kw["omega"] == 5.0
        assert kw["delta_c"] == pytest.approx(0.5 * p.delta_u)
        assert kw["ndd_enabled"] is True

    def test_sweep_section(self):
        doc = parse_config(GOOD)
        p = doc.system_params()
        spec = doc.sweep_spec(p)
        assert len(spec.delta_c) == 41
        assert spec.delta_c[0] == pytest.approx(-2.0 * p.delta_u)
        assert spec.omegas == (0.5, 5.0, 20.0)
        assert spec.ndd is False
        grid = np.asarray(spec.delta_c)
        assert np.array_equal(grid, -grid[::-1])
        assert spec.options.fp_tol == 1e-10
        assert spec.options.max_iters == 200

    def test_empty_config_gives_defaults(self):
        doc = parse_config("")
        p = doc.system_params()
        assert p == hfs.sodium_d1()
        spec = doc.sweep_spec(p)
        assert len(spec.delta_c) == 2001
        assert spec.omegas == (0.5, 5.0, 20.0, 100.0)

    def test_mhz_and_gamma_suffix_agree(self):
        doc_mhz = parse_config("[system]\ndelta_g = 1771.62 MHz\n")
        doc_gamma = parse_config(
            f"[system]\ndelta_g = {1771.62 / 9.76!r} gamma\n")
        assert doc_mhz.system_params().delta_g == pytest.approx(
            doc_gamma.system_params().delta_g, rel=1e-12)

    def test_comments_and_blank_lines_ignored(self):
        doc = parse_config("\n# only a comment\n[drive]\n\nomega = 1.0 # x\n")
        assert doc.get("drive", "omega").value == 1.0


class TestErrors:

    def test_unknown_section(self):
        with pytest.raises(UnknownKeyError) as exc:
            parse_config("[laser]\npower = 3\n")
        assert exc.value.line == 1

    def test_unknown_key(self):
        with pytest.raises(UnknownKeyError) as exc:
            parse_config("[drive]\nomga = 5.0\n")
        assert exc.value.line == 2

    def test_duplicate_key(self):
        with pytest.raises(DuplicateKeyError) as exc:
            parse_config("[drive]\nomega = 1\nomega = 2\n")
        assert exc.value.line == 3

    def test_syntax_error_line_number(self):
        with pytest.raises(ConfigSyntaxError) as exc:
            parse_config("[drive]\nomega 5.0\n")
        assert exc.value.line == 2

    def test_entry_before_section(self):
        with pytest.raises(ConfigSyntaxError):
            parse_config("omega = 5.0\n")

    def test_bad_bool(self):
        with pytest.raises(ConfigSyntaxError):
            parse_config("[drive]\nndd = yes\n")

    def test_bad_number(self):
        with pytest.raises(ConfigSyntaxError):
            parse_config("[drive]\nomega = fast\n")

    def test_unit_on_unitless_key(self):
        with pytest.raises(UnitMismatchError):
            parse_config("[system]\nmu_13 = 1.0 MHz\n")

    def test_delta_u_rejected_on_system_keys(self):
        # the suffix resolves against [system], so system keys cannot use it
        with pytest.raises(UnitMismatchError) as exc:
            parse_config("[system]\ndelta_g = 1.0 delta_u\n")
        assert exc.value.line == 2

    def test_unknown_unit(self):
        with pytest.raises(ConfigSyntaxError):
            parse_config("[drive]\nomega = 1.0 GHz\n")


class TestRoundTripAndOverrides:

    def test_serialize_parse_round_trip(self):
        doc = parse_config(GOOD)
        again = parse_config(doc.serialize())
        assert again.entries == doc.entries

    def test_override_beats_file(self):
        doc = parse_config(GOOD)
        doc.set_override("drive", "omega", "20.0")
        p = doc.system_params()
        assert doc.drive_kwargs(p)["omega"] == 20.0

    def test_override_validated(self):
        doc = parse_config(GOOD)
        with pytest.raises(UnknownKeyError):
            doc.set_override("drive", "bogus", "1.0")
        with pytest.raises(UnitMismatchError):
            doc.set_override("solver", "fp_tol", "1.0 MHz")

    def test_override_with_unit(self):
        doc = parse_config(GOOD)
        doc.set_override("drive", "delta_c", "1.0 delta_u")
        p = doc.system_params()
        assert doc.drive_kwargs(p)["delta_c"] == pytest.approx(p.delta_u)

    @pytest.mark.parametrize("setting", [
        "solver.damping=nan", "system.gamma31=1", "system.delta_g=1 delta_u"])
    def test_override_error_names_no_line(self, capsys, tmp_path, setting):
        # an override has no line in the file, so its error cites none
        code = run_cli(["sweep", "--config", str(CONFIG), "--set", setting,
                        "--output", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and "line" not in err
