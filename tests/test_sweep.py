import numpy as np
import pytest

import hfs
from hfs.model import STATE_COLUMNS, pack
from hfs.sweep import (COLUMNS, SweepSpec, read_csv, read_json, run_sweep,
                       summarize, write_csv, write_json)


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
        with pytest.raises(ValueError):
            SweepSpec(delta_c=(-1.0, 0.0, 2.0), omegas=(1.0,),
                      symmetric_grid=True)

    @pytest.mark.filterwarnings("error")
    def test_nonfinite_bounds_rejected_before_grid(self, params):
        big = np.float64(1e308)
        for lo, hi in ((0.0, np.inf), (-np.inf, 0.0), (-big, big)):
            with pytest.raises(ValueError, match="finite"):
                SweepSpec.linear(lo, hi, 5, (1.0,))
        with pytest.raises(ValueError, match="finite"):
            SweepSpec.paper_grid(params, count=5, span_delta_u=np.inf)

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
        for rec in small_table.records:
            assert set(rec) == set(COLUMNS)

    def test_all_converged(self, small_table):
        assert all(r["converged"] for r in small_table.records)
        assert all(r["residual"] < 1e-10 for r in small_table.records)

    def test_row_order(self, small_table):
        # records grouped by omega ascending, then delta_c ascending
        oms = [r["omega_over_gamma"] for r in small_table.records]
        assert oms == sorted(oms)
        dcs = small_table.column("delta_c_over_delta_u", 5.0)
        assert np.all(np.diff(dcs) > 0)

    def test_matches_pointwise_solve(self, params, small_table):
        rec = small_table.records[10]
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
        assert all(r["converged"] for r in t.records)
        assert all(r["ndd"] for r in t.records)
        # every point starts cold; Newton takes at most four solves
        assert all(1 < r["iterations"] <= 4 for r in t.records)


class TestSerialization:

    def test_csv_round_trip(self, small_table, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv(small_table, path)
        back = read_csv(path)
        assert back.records == small_table.records

    def test_json_round_trip(self, small_table, tmp_path):
        path = tmp_path / "sweep.json"
        write_json(small_table, path)
        back = read_json(path)
        assert back.records == small_table.records

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
