import numpy as np
import pytest

import hfs
import hfs.steady
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
        # a cold start takes Newton at most four solves past the bare one
        assert 1 < res.iterations <= 4
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


class TestNewton:
    """Newton on the four couplings against the damped-Picard fallback."""

    @staticmethod
    def picard_only(monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("forced")
        monkeypatch.setattr(hfs.steady, "_newton_step", singular)

    def test_matches_picard(self, params, monkeypatch):
        drives = [hfs.Drive(omega=om, delta_c=dc * params.delta_u,
                            ndd_enabled=True)
                  for om in (0.5, 5.0, 20.0, 100.0)
                  for dc in np.linspace(-5.0, 5.0, 9)]
        newton = [hfs.solve_selfconsistent(params, d) for d in drives]
        self.picard_only(monkeypatch)
        picard = [hfs.solve_selfconsistent(params, d) for d in drives]
        for a, b in zip(newton, picard):
            assert a.converged and b.converged
            assert a.iterations < b.iterations
            assert np.max(np.abs(a.rho - b.rho)) < 1e-12

    def test_jacobian_matches_finite_differences(self, params):
        # _newton_step returns J^-1 r; with r = e_k that is column k of J^-1,
        # J being the derivative of the map rabi -> rabi - mu*omega + eps*Re x
        from hfs.params import PAIRS, RabiSet
        from hfs.steady import _PAIR_RE, _newton_step, _steady_system
        eps = np.array([0.8, 1.1, 0.6, 1.3])
        drive = hfs.Drive(omega=5.0, delta_c=0.3 * params.delta_u,
                          ndd_enabled=True, epsilon=dict(zip(PAIRS, eps)))
        rabi = np.array([4.6, 5.2, 4.9, 5.4])

        def fixed_point_map(r):
            x = _steady_system(params, drive, RabiSet(*r))[0]
            return r + eps * x[_PAIR_RE]

        h = 1e-6
        jac = np.column_stack([
            (fixed_point_map(rabi + h * e) - fixed_point_map(rabi - h * e))
            / (2 * h) for e in np.eye(4)])
        x, m, kept = _steady_system(params, drive, RabiSet(*rabi))
        inv = np.column_stack([_newton_step(x, m, kept, eps, e)
                               for e in np.eye(4)])
        assert np.max(np.abs(inv @ jac - np.eye(4))) < 1e-7

    @pytest.mark.parametrize("fault", ["raise", "nan", "uphill"])
    def test_fallback_after_failed_step(self, params, monkeypatch, fault):
        # the first step is Newton's; the second fails, and Picard continues
        # from the last iterate to the same fixed point
        drive = hfs.Drive(omega=20.0, delta_c=-0.4 * params.delta_u,
                          ndd_enabled=True)
        ref = hfs.solve_selfconsistent(params, drive)
        newton_step = hfs.steady._newton_step
        calls = []

        def faulty(*args):
            calls.append(fault)
            step = newton_step(*args)
            if len(calls) == 1:
                return step
            if fault == "raise":
                raise np.linalg.LinAlgError("forced")
            return step * np.nan if fault == "nan" else -3.0 * step

        monkeypatch.setattr(hfs.steady, "_newton_step", faulty)
        res = hfs.solve_selfconsistent(params, drive)
        assert len(calls) == 2
        assert res.converged
        assert res.iterations > ref.iterations
        assert np.max(np.abs(res.rho - ref.rho)) < 1e-12

    def test_max_iters_bounds_fallback(self, params, monkeypatch):
        drive = hfs.Drive(omega=5.0, delta_c=0.2 * params.delta_u,
                          ndd_enabled=True)
        self.picard_only(monkeypatch)
        res = hfs.solve_selfconsistent(params, drive,
                                       hfs.SolveOptions(max_iters=3))
        assert not res.converged
        assert res.iterations == 3


#: decay rates and dipole multipliers that link each level to the others
_LEVEL_LINKS = {2: ("gamma32", "gamma42", "mu23", "mu24"),
                3: ("gamma31", "gamma32", "mu13", "mu23"),
                4: ("gamma41", "gamma42", "mu14", "mu24")}


def random_params(rng, dark=None):
    """SystemParams with random rates, dipoles, splittings and density.

    Each decay rate and dipole multiplier is zero with probability 1/4;
    level ``dark`` (2, 3 or 4), if given, is cut off from drive and decay,
    so its population row is pinned.
    """
    def rate(lo, hi):
        return 0.0 if rng.random() < 0.25 else float(rng.uniform(lo, hi))
    p = hfs.SystemParams(
        gamma31=rate(0.2, 2.0), gamma32=rate(0.2, 2.0),
        gamma41=rate(0.2, 2.0), gamma42=rate(0.2, 2.0),
        mu13=rate(0.3, 1.5), mu14=rate(0.3, 1.5),
        mu23=rate(0.3, 1.5), mu24=rate(0.3, 1.5),
        delta_g=float(rng.uniform(2.0, 60.0)),
        delta_e=float(rng.uniform(0.5, 20.0)),
        number_density=float(rng.uniform(0.1, 3.0)) * 1.5e20)
    return p.replace(**dict.fromkeys(_LEVEL_LINKS.get(dark, ()), 0.0))


class TestGrid:
    """The stacked grid solver against the per-point solver."""

    @pytest.mark.parametrize("ndd", [False, True])
    def test_matches_pointwise_on_random_params(self, ndd):
        rng = np.random.default_rng(7 + ndd)
        for dark in (None, 2, 3, 4) * 4:
            p = random_params(rng, dark)
            omega = float(rng.uniform(0.3, 30.0))
            grid = np.sort(rng.uniform(-3.0, 3.0, 9)) * p.delta_u
            sol = hfs.solve_grid(p, omega, grid, ndd)
            for k, dc in enumerate(grid):
                drive = hfs.Drive(omega=omega, delta_c=dc, ndd_enabled=ndd)
                try:
                    ref = hfs.solve_selfconsistent(p, drive)
                except hfs.SingularSystem:
                    assert sol.singular[k]
                    assert np.all(np.isnan(sol.x[k]))
                    continue
                assert not sol.singular[k]
                assert sol.converged[k] == ref.converged
                assert sol.iterations[k] == ref.iterations
                assert np.max(np.abs(unpack(sol.x[k]) - ref.rho)) <= 1e-12
                assert sol.residual[k] == pytest.approx(ref.residual,
                                                        abs=1e-13)

    def test_max_iters_matches_pointwise(self, params):
        # a point that spends max_iters leaves the lockstep unconverged
        opts = hfs.SolveOptions(max_iters=2)
        grid = np.linspace(-1.0, 1.0, 5) * params.delta_u
        sol = hfs.solve_grid(params, 5.0, grid, True, opts)
        assert not np.all(sol.converged)
        for k, dc in enumerate(grid):
            ref = hfs.solve_selfconsistent(
                params, hfs.Drive(omega=5.0, delta_c=dc, ndd_enabled=True),
                opts)
            assert sol.converged[k] == ref.converged
            assert sol.iterations[k] == ref.iterations == 2
            assert np.max(np.abs(unpack(sol.x[k]) - ref.rho)) <= 1e-12

    def test_stack_assembly_matches_generator(self):
        from hfs.params import RabiSet
        from hfs.steady import _detuning_stack, _with_couplings
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = random_params(rng)
            grid = rng.uniform(-4.0, 4.0, 16) * p.delta_u
            rabi = rng.normal(scale=10.0, size=(16, 4))
            stack = _with_couplings(_detuning_stack(p, grid), rabi)
            for dc, r, a in zip(grid, rabi, stack):
                drive = hfs.Drive(omega=1.0, delta_c=dc)
                ref = generator_matrix(p, drive, RabiSet(*r))
                scale = max(abs(drive.delta(p)), p.delta_g + p.delta_e)
                assert np.max(np.abs(a - ref)) <= 4 * np.spacing(scale)

    def test_nonfinite_step_falls_back_to_pointwise(self, params,
                                                    monkeypatch):
        # the first point's first lockstep step is not finite: that point
        # alone is solved again by solve_selfconsistent
        grid = np.linspace(-0.5, 0.5, 7) * params.delta_u
        newton_step = hfs.steady._newton_step
        pointwise = hfs.steady.solve_selfconsistent
        stacked, alone = [], []

        def faulty(x, *args):
            step = newton_step(x, *args)
            if x.ndim == 2 and not stacked:
                step[0] = np.nan
            stacked.append(x.ndim == 2)
            return step

        def counted(params, drive, opts=None):
            alone.append(drive.delta_c)
            return pointwise(params, drive, opts)

        monkeypatch.setattr(hfs.steady, "_newton_step", faulty)
        monkeypatch.setattr(hfs.steady, "solve_selfconsistent", counted)
        sol = hfs.solve_grid(params, 5.0, grid, ndd_enabled=True)
        assert alone == [grid[0]]
        for k, dc in enumerate(grid):
            ref = pointwise(params, hfs.Drive(omega=5.0, delta_c=dc,
                                              ndd_enabled=True))
            assert sol.converged[k] and sol.iterations[k] == ref.iterations
            assert np.max(np.abs(unpack(sol.x[k]) - ref.rho)) <= 1e-12

    @pytest.mark.parametrize("ndd", [False, True])
    def test_failed_gate_falls_back_to_pointwise(self, params, monkeypatch,
                                                 ndd):
        # the stacked system of the middle point is corrupted, so its
        # batched solution fails the residual gate of the true generator
        grid = np.linspace(-0.5, 0.5, 5) * params.delta_u
        system_rows = hfs.steady._system_rows

        def corrupted(a):
            m, kept = system_rows(a)
            if a.ndim == 3 and len(a) == len(grid):
                m[2, 5, 5] += 1.0
            return m, kept

        monkeypatch.setattr(hfs.steady, "_system_rows", corrupted)
        sol = hfs.solve_grid(params, 5.0, grid, ndd)
        for k, dc in enumerate(grid):
            ref = hfs.solve_selfconsistent(
                params, hfs.Drive(omega=5.0, delta_c=dc, ndd_enabled=ndd))
            assert sol.iterations[k] == ref.iterations
            assert np.max(np.abs(unpack(sol.x[k]) - ref.rho)) <= 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ndd", [False, True])
    def test_singular_grid_flagged(self, ndd):
        # without decay every point lacks a unique steady state
        p = hfs.sodium_d1().replace(gamma31=0.0, gamma32=0.0, gamma41=0.0,
                                    gamma42=0.0)
        with pytest.raises(hfs.SingularSystem):
            hfs.solve_selfconsistent(p, hfs.Drive(omega=2.0,
                                                  ndd_enabled=ndd))
        sol = hfs.solve_grid(p, 2.0, np.linspace(-5.0, 5.0, 7), ndd)
        assert np.all(sol.singular)
        assert np.all(np.isnan(sol.x)) and np.all(np.isnan(sol.residual))
        assert not np.any(sol.converged) and not np.any(sol.iterations)
        table = hfs.run_sweep(p, hfs.SweepSpec.linear(-5.0, 5.0, 7, (2.0,),
                                                      ndd=ndd))
        assert not table.column("converged").any()
        assert np.isnan(table.column("rho11")).all()
        # flagged rows keep blank labels and NaN optics
        for tr in ("31", "41"):
            assert (table.column(f"dispersion_class_{tr}") == "").all()
            assert (table.column(f"line_class_{tr}") == "").all()
            assert np.isnan(table.column(f"n{tr}")).all()
            assert np.isnan(table.column(f"ng{tr}")).all()


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
