import numpy as np
import pytest

import hfs
from hfs.dynamics import TRAJECTORY_CSV_HEADER, write_trajectory_csv


@pytest.fixture
def params():
    return hfs.sodium_d1()


class TestEvolve:

    def test_trace_and_hermiticity_along_trajectory(self, params):
        drive = hfs.Drive(omega=5.0, delta_c=10.0)
        traj = hfs.evolve(params, drive, hfs.ground_state(), t_end=20.0)
        for r in traj.rho:
            assert abs(np.trace(r).real - 1.0) < 1e-8
            assert np.max(np.abs(r - r.conj().T)) == 0.0

    def test_short_time_expansion(self, params):
        # rho(dt) ~ rho0 + dt * rhs(rho0) for small dt
        drive = hfs.Drive(omega=2.0, delta_c=5.0)
        dt = 1e-4
        traj = hfs.evolve(params, drive, hfs.ground_state(), t_end=dt)
        expect = hfs.ground_state() + dt * hfs.rhs_verbatim(
            params, drive, hfs.ground_state())
        assert np.max(np.abs(traj.final - expect)) < 1e-6

    def test_t_eval_grid_respected(self, params):
        drive = hfs.Drive(omega=1.0)
        grid = np.linspace(0.0, 5.0, 11)
        traj = hfs.evolve(params, drive, hfs.ground_state(), t_end=5.0,
                          t_eval=grid)
        assert np.allclose(traj.t, grid)
        assert traj.rho.shape == (11, 4, 4)

    def test_matches_expm_for_frozen_linear_problem(self, params):
        # local-field off: the flow is linear, so expm of the generator is an
        # independent exact propagator
        import scipy.linalg
        from hfs.model import pack, unpack
        from hfs.params import bare_rabi
        from hfs.steady import generator_matrix
        drive = hfs.Drive(omega=5.0, delta_c=30.0)
        t_end = 10.0
        traj = hfs.evolve(params, drive, hfs.ground_state(), t_end=t_end,
                          rtol=1e-10, atol=1e-12)
        a = generator_matrix(params, drive, bare_rabi(params, drive))
        ref = unpack(scipy.linalg.expm(a * t_end) @ pack(hfs.ground_state()))
        assert np.max(np.abs(traj.final - ref)) < 1e-8

    def test_invalid_arguments(self, params, monkeypatch):
        # rejected before integrating: an infinite or nan t_end would never
        # return, so the integrator must not be reached at all
        def never(*args, **kwargs):
            raise AssertionError("solve_ivp called")
        monkeypatch.setattr(hfs.dynamics, "solve_ivp", never)
        drive = hfs.Drive(omega=1.0)
        inf, nan = float("inf"), float("nan")
        for t_end in (0.0, -1.0, inf, nan):
            with pytest.raises(ValueError, match="t_end"):
                hfs.evolve(params, drive, hfs.ground_state(), t_end=t_end)
        for tol in (-1.0, 0.0, inf, nan):
            for kw in ({"rtol": tol}, {"atol": tol}):
                with pytest.raises(ValueError, match="tolerances"):
                    hfs.evolve(params, drive, hfs.ground_state(), t_end=1.0,
                               **kw)

    def test_csv_round_values(self, params, tmp_path):
        drive = hfs.Drive(omega=1.0)
        traj = hfs.evolve(params, drive, hfs.ground_state(), t_end=2.0,
                          t_eval=np.linspace(0, 2, 5))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == TRAJECTORY_CSV_HEADER == (
            "t,rho11,rho22,rho33,rho44,re_rho21,im_rho21,re_rho31,im_rho31,"
            "re_rho32,im_rho32,re_rho41,im_rho41,re_rho42,im_rho42,"
            "re_rho43,im_rho43")
        assert len(lines) == 6
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[1] == 1.0          # rho11 at t=0


class TestRelaxToSteady:

    def test_agrees_with_linear_solver(self, params):
        drive = hfs.Drive(omega=5.0, delta_c=0.5 * params.delta_u)
        direct = hfs.solve_selfconsistent(params, drive).rho
        relaxed = hfs.relax_to_steady(params, drive, residual_tol=1e-10)
        assert relaxed.converged
        assert np.max(np.abs(relaxed.rho - direct)) < 1e-7

    def test_agrees_with_ndd_on(self, params):
        drive = hfs.Drive(omega=5.0, delta_c=0.5 * params.delta_u,
                          ndd_enabled=True)
        direct = hfs.solve_selfconsistent(params, drive).rho
        relaxed = hfs.relax_to_steady(params, drive, residual_tol=1e-10,
                                      t_max=1e6)
        assert relaxed.converged
        assert np.max(np.abs(relaxed.rho - direct)) < 1e-7

    def test_rk_method_on_easy_point(self, params):
        # bare detuning zero: fast relaxation, cheap for the explicit RK path
        drive = hfs.Drive(omega=5.0, delta_c=-params.delta_u)
        direct = hfs.solve_selfconsistent(params, drive).rho
        relaxed = hfs.relax_to_steady(params, drive, residual_tol=1e-6,
                                      method="rk", t_max=200.0)
        assert relaxed.converged
        assert np.max(np.abs(relaxed.rho - direct)) < 1e-6

    def test_zero_drive_flagged(self, params):
        res = hfs.relax_to_steady(params, hfs.Drive(omega=0.0))
        assert not res.converged
        assert "zero drive" in res.message

    def test_warm_start_early_return(self, params):
        drive = hfs.Drive(omega=5.0, delta_c=12.0)
        rho = hfs.solve_selfconsistent(params, drive).rho
        res = hfs.relax_to_steady(params, drive, rho0=rho, residual_tol=1e-8)
        assert res.converged
        assert res.iterations == 0

    def test_nonconvergence_flagged_not_raised(self, params):
        drive = hfs.Drive(omega=0.2, delta_c=2.0 * params.delta_u)
        res = hfs.relax_to_steady(params, drive, residual_tol=1e-13,
                                  t_max=2.0)
        assert not res.converged
        assert "tolerance" in res.message

    def test_unknown_method(self, params):
        with pytest.raises(ValueError):
            hfs.relax_to_steady(params, hfs.Drive(omega=1.0), method="euler")
