import numpy as np
import pytest

import hfs
from hfs.model import pack, unpack
from hfs.params import bare_rabi
from hfs.steady import generator_matrix


@pytest.fixture
def params():
    return hfs.sodium_d1()


class TestGeneratorMatrix:

    def test_matches_rhs_on_random_vectors(self, params):
        drive = hfs.Drive(omega=5.0, delta_c=12.0)
        rabi = bare_rabi(params, drive)
        a = generator_matrix(params, drive, rabi)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.normal(size=16)
            direct = pack(hfs.rhs_verbatim(params, drive, unpack(x), rabi=rabi))
            assert np.max(np.abs(a @ x - direct)) < 1e-12
        for k, e in enumerate(np.eye(16)):
            assert np.array_equal(a[:, k], pack(
                hfs.rhs_verbatim(params, drive, unpack(e), rabi=rabi)))

    def test_trace_row_sums_to_zero(self, params):
        drive = hfs.Drive(omega=2.0, delta_c=-40.0)
        a = generator_matrix(params, drive, bare_rabi(params, drive))
        # sum of the four population rows is d(trace)/dt = 0 identically
        assert np.max(np.abs(a[0:4, :].sum(axis=0))) < 1e-14


class TestLinearSolve:

    def test_residual_near_roundoff(self, params):
        drive = hfs.Drive(omega=5.0, delta_c=0.3 * params.delta_u)
        rho = hfs.solve_linear_steady(params, drive, bare_rabi(params, drive))
        assert hfs.residual_norm(params, drive, rho) < 1e-11
        rep = hfs.validate_density_matrix(rho)
        assert rep.ok

    def test_zero_drive_raises(self, params):
        drive = hfs.Drive(omega=0.0)
        with pytest.raises(hfs.SingularSystem):
            hfs.solve_linear_steady(params, drive, bare_rabi(params, drive))

    def test_two_level_closed_form(self):
        # reduced system against the standalone closed form
        from hfs.identities import two_level_reduction, two_level_steady
        p = two_level_reduction()
        om, de = 1.0, 0.0
        drive = hfs.Drive(omega=om, delta_c=de + p.delta_g - p.delta_u)
        rho = hfs.solve_linear_steady(p, drive, bare_rabi(p, drive))
        r33, r31 = two_level_steady(om, de)
        assert r33 == pytest.approx(4.0 / 9.0, abs=1e-15)
        assert rho[2, 2].real == pytest.approx(r33, abs=1e-12)
        assert rho[2, 0] == pytest.approx(r31, abs=1e-12)
        # the decoupled levels stay empty
        assert rho[1, 1].real == pytest.approx(0.0, abs=1e-14)
        assert rho[3, 3].real == pytest.approx(0.0, abs=1e-14)


class TestSelfConsistent:

    def test_ndd_off_single_iteration(self, params):
        drive = hfs.Drive(omega=5.0, delta_c=10.0, ndd_enabled=False)
        res = hfs.solve_selfconsistent(params, drive)
        assert res.converged
        assert res.iterations == 1
        assert res.residual < 1e-11

    def test_ndd_on_fixed_point(self, params):
        drive = hfs.Drive(omega=5.0, delta_c=0.2 * params.delta_u,
                          ndd_enabled=True)
        res = hfs.solve_selfconsistent(params, drive)
        assert res.converged
        assert res.iterations > 1
        # the returned state satisfies the self-consistent equations
        assert hfs.residual_norm(params, drive, res.rho) < 1e-10
        # and the reported couplings reproduce themselves
        rabi = hfs.effective_rabi(params, drive, res.rho)
        for k, v in rabi.as_dict().items():
            assert v == pytest.approx(res.rabi_final.as_dict()[k], abs=1e-9)

    def test_ndd_shifts_solution(self, params):
        drive_off = hfs.Drive(omega=5.0, delta_c=0.2 * params.delta_u)
        drive_on = drive_off.replace(ndd_enabled=True)
        rho_off = hfs.solve_selfconsistent(params, drive_off).rho
        rho_on = hfs.solve_selfconsistent(params, drive_on).rho
        assert np.max(np.abs(rho_on - rho_off)) > 1e-6

    def test_zero_epsilon_matches_ndd_off(self, params):
        eps = {k: 0.0 for k in ("13", "14", "23", "24")}
        drive_on = hfs.Drive(omega=5.0, delta_c=7.0, ndd_enabled=True,
                             epsilon=eps)
        drive_off = hfs.Drive(omega=5.0, delta_c=7.0)
        rho_on = hfs.solve_selfconsistent(params, drive_on).rho
        rho_off = hfs.solve_selfconsistent(params, drive_off).rho
        assert np.max(np.abs(rho_on - rho_off)) < 1e-14

    def test_warm_start_converges_faster(self, params):
        drive = hfs.Drive(omega=5.0, delta_c=0.2 * params.delta_u,
                          ndd_enabled=True)
        cold = hfs.solve_selfconsistent(params, drive)
        warm = hfs.solve_selfconsistent(
            params, drive.replace(delta_c=drive.delta_c + 0.01),
            hfs.SolveOptions(warm_start=cold.rho))
        assert warm.converged
        assert warm.iterations <= cold.iterations

    def test_options_validation(self):
        for fp_tol in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                hfs.SolveOptions(fp_tol=fp_tol)
        with pytest.raises(ValueError):
            hfs.SolveOptions(damping=0.0)
        with pytest.raises(ValueError):
            hfs.SolveOptions(damping=1.5)
        with pytest.raises(ValueError):
            hfs.SolveOptions(max_iters=0)

    def test_nonconvergence_reported_not_raised(self, params):
        drive = hfs.Drive(omega=5.0, delta_c=0.2 * params.delta_u,
                          ndd_enabled=True)
        res = hfs.solve_selfconsistent(params, drive,
                                       hfs.SolveOptions(max_iters=2))
        assert not res.converged
        assert res.message != ""


def test_steady_states_on_random_drives(params):
    rng = np.random.default_rng(42)
    for _ in range(20):
        drive = hfs.Drive(omega=float(rng.uniform(0.3, 30.0)),
                          delta_c=float(rng.uniform(-2, 2)) * params.delta_u,
                          ndd_enabled=bool(rng.integers(2)))
        res = hfs.solve_selfconsistent(params, drive)
        assert res.converged
        rep = hfs.validate_density_matrix(res.rho, tol=1e-8)
        assert rep.ok
