import json
import re
from pathlib import Path

import numpy as np
import pytest

import hfs
from hfs import optics, sweep
from hfs.config import parse_config
from hfs.model import STATE_COLUMNS, pack
from hfs.sweep import (COLUMNS, SpectrumTable, SweepSpec, read_csv,
                       read_json, run_sweep, summarize, write_csv,
                       write_json)

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "sweep.cfg"

LABEL_COLUMNS = ("dispersion_class_31", "line_class_31",
                 "dispersion_class_41", "line_class_41")


def assert_same_table(a, b):
    """Equal column by column, dtype included; NaN equals NaN."""
    assert len(a) == len(b)
    for c in COLUMNS:
        x, y = a.column(c), b.column(c)
        assert x.dtype == y.dtype, c
        assert np.array_equal(x, y, equal_nan=x.dtype == float), c


def run_with_singular_row(params, spec, k, monkeypatch):
    """run_sweep with grid point ``k`` of every intensity made singular, as
    solve_grid flags a point without a unique steady state."""
    solve_grid = sweep.solve_grid

    def one_singular(*args):
        sol = solve_grid(*args)
        sol.singular[k], sol.converged[k], sol.iterations[k] = True, False, 0
        sol.x[k] = sol.residual[k] = np.nan
        return sol

    monkeypatch.setattr(sweep, "solve_grid", one_singular)
    return run_sweep(params, spec)


def table_columns(table):
    """Writable copies of every column."""
    return {c: table.column(c).copy() for c in COLUMNS}


def flag_rows(cols, rows):
    """Make ``rows`` look like singular grid points, as solve_grid and the
    optics leave them: NaN values, blank labels, not converged."""
    for c in COLUMNS[3:]:
        if c in LABEL_COLUMNS:
            cols[c][rows] = ""
        elif c == "converged":
            cols[c][rows] = False
        elif c == "iterations":
            cols[c][rows] = 0
        else:
            cols[c][rows] = np.nan
    return cols


def _set_cell(col, value):
    def mutate(rows):
        rows[2][col] = value
        return rows
    return mutate


def _drop_key(rows):
    del rows[3]["residual"]
    return rows


def _extra_key(rows):
    rows[3]["note"] = ""
    return rows


def _interleave(rows):
    rows[1], rows[50] = rows[50], rows[1]
    return rows


# A sweep table's rows (or JSON text), broken one way per entry; read_json
# must refuse each.
MALFORMED_JSON = {
    "top_level_object": lambda rows: {"rows": rows},
    "row_not_object": lambda rows: [list(rows[0].values()), *rows[1:]],
    "missing_key": _drop_key,
    "extra_key": _extra_key,
    "ndd_string": _set_cell("ndd", "false"),
    "converged_number": _set_cell("converged", 0.5),
    "iterations_float": _set_cell("iterations", 2.7),
    "iterations_bool": _set_cell("iterations", True),
    "iterations_overflow": _set_cell("iterations", 2 ** 70),
    "label_number": _set_cell("line_class_31", 1),
    "float_string": _set_cell("rho11", "0.5"),
    "float_bool": _set_cell("rho11", True),
    "float_null": _set_cell("rho11", None),
    "interleaved_omegas": _interleave,
    "truncated": lambda rows: json.dumps(rows)[:-1],
}


# The record-at-a-time writers the columnar ones replaced, kept as oracles
# for the bytes.
def _format_oracle(value, col):
    if col in LABEL_COLUMNS:
        return str(value)
    if col in ("ndd", "converged"):
        return "true" if value else "false"
    if col == "iterations":
        return str(int(value))
    return f"{float(value):.17g}"


def _records(table):
    return [dict(zip(COLUMNS, row))
            for row in zip(*(table.column(c).tolist() for c in COLUMNS))]


def csv_oracle(table, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(COLUMNS) + "\n")
        for rec in _records(table):
            fh.write(",".join(_format_oracle(rec[c], c) for c in COLUMNS)
                     + "\n")


def json_oracle(table, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_records(table), fh, indent=1)
        fh.write("\n")


@pytest.fixture(scope="module")
def params():
    return hfs.sodium_d1()


@pytest.fixture(scope="module")
def small_table(params):
    spec = SweepSpec.paper_grid(params, count=41, span_delta_u=1.5,
                                omegas=(0.5, 5.0))
    return run_sweep(params, spec)


class TestSweepSpec:

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(delta_c=(0.0, 1.0), omegas=(1.0,))
        with pytest.raises(ValueError):
            SweepSpec(delta_c=(0.0, 2.0, 1.0), omegas=(1.0,))
        with pytest.raises(ValueError):
            SweepSpec(delta_c=(-1.0, 0.0, 1.0), omegas=())
        with pytest.raises(ValueError):
            SweepSpec(delta_c=(-1.0, 0.0, 1.0), omegas=(-1.0,))
        with pytest.raises(ValueError):
            SweepSpec(delta_c=(-1.0, 0.0, 1.0), omegas=(float("inf"),))
        with pytest.raises(ValueError):
            SweepSpec(delta_c=(-1.0, 0.0, float("inf")), omegas=(1.0,))
        with pytest.raises(ValueError, match="repeat"):
            SweepSpec(delta_c=(-1.0, 0.0, 1.0), omegas=(5.0, 20.0, 5.0))

    @pytest.mark.parametrize("count", [-1, 0, 1, 2])
    def test_linear_needs_three_points(self, count):
        with pytest.raises(ValueError, match="at least 3 points"):
            SweepSpec.linear(-1.0, 1.0, count, (1.0,))

    @pytest.mark.parametrize("args, match", [
        ((-1.0, 1.0, 3.5, (1.0,)), "integer"),
        ((-1.0, 1.0, np.float64(5.0), (1.0,)), "integer"),
        ((-1.0, 1.0, 3, 1.0), "omega"),
        ((-1.0, 1.0, 3, ("a",)), "omega"),
        ((-1.0, 1.0, 3, (True,)), "omega"),
        ((None, 1.0, 3, (1.0,)), "real numbers"),
        ((-1.0, "1", 3, (1.0,)), "real numbers")],
        ids=["count-float", "count-np-float", "omegas-float", "omegas-str",
             "omegas-bool", "lo-none", "hi-str"])
    def test_linear_rejects_non_numbers(self, args, match):
        # each raised TypeError (or ran True as 1.0) before
        with pytest.raises(ValueError, match=match):
            SweepSpec.linear(*args)

    def test_linear_accepts_numpy_numbers(self):
        spec = SweepSpec.linear(np.float64(-1.0), np.int64(1), np.int64(3),
                                [np.float64(2.0)])
        assert spec.delta_c == (-1.0, 0.0, 1.0) and spec.omegas == (2.0,)

    @pytest.mark.filterwarnings("error")
    def test_nonfinite_bounds_rejected_before_grid(self, params):
        big = np.float64(1e308)
        for lo, hi in ((0.0, np.inf), (-np.inf, 0.0), (-big, big)):
            with pytest.raises(ValueError, match="finite"):
                SweepSpec.linear(lo, hi, 5, (1.0,))
        with pytest.raises(ValueError, match="finite"):
            SweepSpec.paper_grid(params, count=5, span_delta_u=np.inf)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(count=2001.0), "count"),
        (dict(count=np.float64(5)), "count"),
        (dict(count="5"), "count"),
        (dict(count=None), "count"),
        (dict(count=5, span_delta_u="5"), "span_delta_u"),
        (dict(count=5, span_delta_u=None), "span_delta_u"),
        (dict(count=5, span_delta_u=True), "span_delta_u")],
        ids=["count-float", "count-np-float", "count-str", "count-none",
             "span-str", "span-none", "span-bool"])
    def test_paper_grid_rejects_non_numbers(self, params, kwargs, match):
        # each raised TypeError (or ran True as 1.0) before
        with pytest.raises(ValueError, match=match):
            SweepSpec.paper_grid(params, **kwargs)

    def test_paper_grid_accepts_numpy_numbers(self, params):
        spec = SweepSpec.paper_grid(params, count=np.int64(5),
                                    span_delta_u=np.float64(1.0))
        ref = SweepSpec.paper_grid(params, count=5, span_delta_u=1.0)
        assert spec.delta_c == ref.delta_c

    def test_paper_grid_exactly_symmetric(self, params):
        spec = SweepSpec.paper_grid(params, count=101, span_delta_u=3.0)
        grid = np.asarray(spec.delta_c)
        assert grid.size == 101
        assert np.max(np.abs(grid + grid[::-1])) == 0.0
        assert grid[-1] == pytest.approx(3.0 * params.delta_u)
        with pytest.raises(ValueError):
            SweepSpec.paper_grid(params, count=100)


class TestRunSweep:

    def test_all_columns_present(self, small_table):
        for c in COLUMNS:
            assert len(small_table.column(c)) == len(small_table) == 82, c

    def test_all_converged(self, small_table):
        assert small_table.column("converged").all()
        assert np.all(small_table.column("residual") < 1e-10)

    def test_row_order(self, small_table):
        # rows grouped by omega ascending, then delta_c ascending
        oms = small_table.column("omega_over_gamma").tolist()
        assert oms == sorted(oms)
        dcs = small_table.column("delta_c_over_delta_u", 5.0)
        assert np.all(np.diff(dcs) > 0)

    def test_matches_pointwise_solve(self, params, small_table):
        rec = {c: small_table.column(c)[10] for c in COLUMNS}
        drive = hfs.Drive(omega=rec["omega_over_gamma"],
                          delta_c=rec["delta_c_over_delta_u"] * params.delta_u)
        rho = hfs.solve_selfconsistent(params, drive).rho
        assert COLUMNS[3:19] == list(STATE_COLUMNS)
        for col, v in zip(STATE_COLUMNS, pack(rho)):
            assert rec[col] == pytest.approx(v, abs=1e-10), col

    def test_ndd_sweep_runs(self, params):
        spec = SweepSpec.paper_grid(params, count=11, span_delta_u=0.5,
                                    omegas=(5.0,), ndd=True)
        t = run_sweep(params, spec)
        assert t.column("converged").all()
        assert t.column("ndd").all()
        # every point starts cold; Newton takes at most four solves
        its = t.column("iterations")
        assert np.all((1 < its) & (its <= 4))

    @pytest.mark.parametrize("k", [0, 6])
    def test_flagged_row_masked(self, params, monkeypatch, k):
        # a singular point inside an ordinary grid: its row keeps blank
        # labels and NaN optics, and its neighbours are classified and
        # differenced as if it were not on the grid
        spec = SweepSpec.paper_grid(params, count=13, span_delta_u=1.5,
                                    omegas=(5.0,))
        plain = run_sweep(params, spec)
        t = run_with_singular_row(params, spec, k, monkeypatch)
        keep = np.arange(13) != k
        for c in LABEL_COLUMNS:
            assert t.column(c)[k] == ""
        for c in ("w_g", "chi31_re", "chi41_im", "n31", "ng31", "n41",
                  "ng41"):
            assert np.isnan(t.column(c)[k]), c
        grid = np.asarray(spec.delta_c)[keep]
        for tr in ("31", "41"):
            n = plain.column(f"n{tr}")[keep]
            ng, _ = optics.group_index_profile(grid, n, params)
            assert np.array_equal(t.column(f"ng{tr}")[keep], ng)
            disp, line = optics.classify(
                grid, n, plain.column(f"chi{tr}_im")[keep])
            assert t.column(f"dispersion_class_{tr}")[keep].tolist() == \
                disp.tolist()
            assert t.column(f"line_class_{tr}")[keep].tolist() == \
                line.tolist()
        # rows two or more away from the flagged one do not change
        far = np.abs(np.arange(13) - k) >= 2
        for c in COLUMNS:
            assert np.array_equal(t.column(c)[far], plain.column(c)[far]), c


class TestTableContract:
    """What readers of a table rely on, for a table fresh from run_sweep
    and for one read back from each file format."""

    @pytest.fixture(params=["run", "csv", "json"])
    def table(self, request, small_table, tmp_path):
        if request.param == "run":
            return small_table
        path = tmp_path / f"t.{request.param}"
        if request.param == "csv":
            write_csv(small_table, path)
            return read_csv(path)
        write_json(small_table, path)
        return read_json(path)

    def test_columns(self, table):
        for c in COLUMNS:
            col = table.column(c)
            assert isinstance(col, np.ndarray) and col.shape == (82,), c
            for om in (0.5, 5.0):
                assert table.column(c, om).shape == (41,), c
            if c in LABEL_COLUMNS:
                assert col.dtype == object
                assert all(type(v) is str for v in col)
        with pytest.raises(ValueError, match=r"omega = 7.0.*\[0.5, 5.0\]"):
            table.column("rho11", 7.0)

    def test_columns_read_only(self, table):
        with pytest.raises(ValueError):
            table.column("rho11")[0] = 1.0

    def test_coherence_complex(self, table):
        c = table.coherence("31", 5.0)
        assert c.dtype == complex and c.shape == (41,)
        assert np.array_equal(c.imag, table.column("im_rho31", 5.0))

    def test_omegas_and_summary_keys_builtin(self, table):
        assert table.omegas() == [0.5, 5.0]
        assert all(type(w) is float for w in table.omegas())
        out = summarize(table)
        assert list(out) == [0.5, 5.0]
        assert all(type(w) is float for w in out)
        json.dumps(out, allow_nan=False)

    def test_rejects_interleaved_omegas(self, small_table):
        cols = table_columns(small_table)
        order = np.r_[0:10, 50:60, 10:20]
        with pytest.raises(ValueError, match="contiguous"):
            SpectrumTable({c: v[order] for c, v in cols.items()})


class TestSerialization:

    def test_csv_round_trip(self, small_table, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv(small_table, path)
        back = read_csv(path)
        assert_same_table(back, small_table)

    def test_json_round_trip(self, small_table, tmp_path):
        path = tmp_path / "sweep.json"
        write_json(small_table, path)
        back = read_json(path)
        assert_same_table(back, small_table)

    @pytest.mark.parametrize("which", ["ndd_off", "ndd_on", "odd_values"])
    def test_writer_bytes_match_record_oracle(self, params, small_table,
                                              tmp_path, which):
        if which == "ndd_off":
            table = small_table
        elif which == "ndd_on":
            table = run_sweep(params, SweepSpec.paper_grid(
                params, count=11, span_delta_u=0.5, omegas=(0.5, 20.0),
                ndd=True))
        else:
            # flagged rows (a whole omega block and single rows), -0.0,
            # infinities, bools and ints of both kinds
            cols = flag_rows(table_columns(small_table),
                             np.r_[0:41, 45, 81])
            cols["w_e"][50] = -0.0
            cols["chi31_re"][51], cols["chi31_im"][52] = np.inf, -np.inf
            cols["residual"][53] = 5e-324
            cols["iterations"][54] = 123456
            cols["ndd"][55:60] = True
            table = SpectrumTable(cols)
        for ext, write, oracle, read in (
                ("csv", write_csv, csv_oracle, read_csv),
                ("json", write_json, json_oracle, read_json)):
            got, ref = tmp_path / f"got.{ext}", tmp_path / f"ref.{ext}"
            write(table, got)
            oracle(table, ref)
            assert got.read_bytes() == ref.read_bytes(), ext
            back = read(got)
            assert_same_table(back, table)
            again = tmp_path / f"again.{ext}"
            write(back, again)
            assert again.read_bytes() == ref.read_bytes(), ext

    def test_empty_table_bytes(self, tmp_path):
        table = SpectrumTable({c: [] for c in COLUMNS})
        for ext, write, oracle in (("csv", write_csv, csv_oracle),
                                   ("json", write_json, json_oracle)):
            got, ref = tmp_path / f"got.{ext}", tmp_path / f"ref.{ext}"
            write(table, got)
            oracle(table, ref)
            assert got.read_bytes() == ref.read_bytes(), ext
        assert len(read_csv(tmp_path / "got.csv")) == 0

    def test_csv_deterministic_bytes(self, params, tmp_path):
        spec = SweepSpec.paper_grid(params, count=11, span_delta_u=0.5,
                                    omegas=(0.5, 5.0))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_sweep(params, spec), p1)
        write_csv(run_sweep(params, spec), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_header_check(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_csv(path)

    def test_malformed_rows_rejected(self, small_table, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(small_table, path)
        lines = path.read_text().split("\n")
        lines[5] = lines[5].rsplit(",", 1)[0]
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match="cells"):
            read_csv(path)
        write_csv(small_table, path)
        path.write_text(path.read_text().replace(",true,", ",True,", 1))
        with pytest.raises(ValueError, match="true/false"):
            read_csv(path)

    @pytest.mark.parametrize("col, cell", [("rho22", "abc"),
                                           ("iterations", "2.5")])
    def test_bad_cell_names_the_file(self, small_table, tmp_path, col, cell):
        path = tmp_path / "t.csv"
        write_csv(small_table, path)
        lines = path.read_text().split("\n")
        cells = lines[5].split(",")
        cells[COLUMNS.index(col)] = cell
        lines[5] = ",".join(cells)
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_csv(path)

    @pytest.mark.parametrize("case", list(MALFORMED_JSON))
    def test_malformed_json_rejected(self, small_table, tmp_path, case):
        path = tmp_path / "t.json"
        write_json(small_table, path)
        bad = MALFORMED_JSON[case](json.loads(path.read_text()))
        path.write_text(bad if isinstance(bad, str) else json.dumps(bad))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_json(path)

    def test_write_error_mentions_path(self, small_table, tmp_path):
        with pytest.raises(OSError, match="no/such"):
            write_csv(small_table, tmp_path / "no" / "such" / "dir.csv")


class TestSummarize:

    def test_structure(self, small_table):
        out = summarize(small_table)
        assert set(out) == {0.5, 5.0}
        entry = out[5.0]
        for key in ("w_g_max", "w_g_min", "w_e_max", "w_e_min",
                    "transition_31", "transition_41"):
            assert key in entry
        tr = entry["transition_31"]
        assert "gain_intervals" in tr and "absorption_peak" in tr
        assert tr["absorption_peak"]["chi_im"] >= tr["gain_peak"]["chi_im"]

    def test_weak_drive_transfer_peaks_at_mirror_detunings(self, params):
        # complete ground-state transfer near +delta_u, none near -delta_u
        p = hfs.sodium_d1_cyclic_splittings()
        spec = SweepSpec.paper_grid(p, count=201, span_delta_u=1.5,
                                    omegas=(0.5,))
        out = summarize(run_sweep(p, spec))[0.5]
        assert out["w_g_max"]["value"] > 0.9
        assert out["w_g_max"]["delta_c_over_delta_u"] == pytest.approx(
            1.0, abs=0.1)
        assert out["w_g_min"]["value"] < -0.9
        assert out["w_g_min"]["delta_c_over_delta_u"] == pytest.approx(
            -1.0, abs=0.1)

    def test_flagged_row_neighbour_reported(self, params, monkeypatch):
        # the steepest dispersion sits next to a flagged row: the slope is
        # differenced across the gap, as the ng columns are, so that
        # neighbour can still be reported
        spec = SweepSpec.paper_grid(params, count=13, span_delta_u=1.5,
                                    omegas=(5.0,))
        t = run_with_singular_row(params, spec, 8, monkeypatch)
        entry = summarize(t)[5.0]
        dc = t.column("delta_c_over_delta_u")
        keep = np.arange(13) != 8
        for tr in ("31", "41"):
            slope = np.gradient(t.column(f"chi{tr}_re")[keep], dc[keep])
            assert dc[keep][np.argmax(np.abs(slope))] == dc[7]
            assert entry[f"transition_{tr}"][
                "steepest_dispersion_delta_c_over_delta_u"] == dc[7]

    def test_unflagged_summary_unchanged(self, monkeypatch):
        # without a flagged row the slope is np.gradient over every row, so
        # the summary of the demo sweep keeps its bytes
        doc = parse_config(DEMO_CONFIG.read_text())
        p = doc.system_params()
        t = run_sweep(p, doc.sweep_spec(p))
        text = json.dumps(summarize(t))
        monkeypatch.setattr(optics, "_slope", np.gradient)
        assert json.dumps(summarize(t)) == text

    def test_flagged_intensity_reports_none(self, small_table):
        # every row of omega 0.5 flagged: no extrema, no gain intervals,
        # and the other omega's entry as before
        cols = flag_rows(table_columns(small_table), slice(0, 41))
        out = summarize(SpectrumTable(cols))
        entry = out[0.5]
        for key in ("w_g_max", "w_g_min", "w_e_max", "w_e_min"):
            assert entry[key] is None
        for tr in ("31", "41"):
            assert entry[f"transition_{tr}"] == {
                "gain_intervals": [], "absorption_peak": None,
                "gain_peak": None,
                "steepest_dispersion_delta_c_over_delta_u": None}
        assert out[5.0] == summarize(small_table)[5.0]
        json.dumps(out, allow_nan=False)

    @pytest.mark.filterwarnings("error")
    def test_singular_sweep_summarized(self):
        p = hfs.sodium_d1().replace(gamma31=0.0, gamma32=0.0, gamma41=0.0,
                                    gamma42=0.0)
        out = summarize(run_sweep(p, SweepSpec.linear(-5.0, 5.0, 5, (2.0,))))
        assert out[2.0]["w_g_max"] is None
        assert out[2.0]["transition_31"]["gain_intervals"] == []
