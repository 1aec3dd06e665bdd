import subprocess
import sys
from pathlib import Path

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
        # _newton_step returns J^-1 r from the sensitivities of the solve;
        # with r = e_k that is column k of J^-1, J being the derivative of
        # the map rabi -> rabi - mu*omega + eps*Re x
        from hfs.steady import (_PAIR_RE, _detuning_stack, _newton_step,
                                _solve_stack)
        eps = np.array([0.8, 1.1, 0.6, 1.3])
        base = _detuning_stack(params, np.array([0.3 * params.delta_u]))
        rabi = np.array([4.6, 5.2, 4.9, 5.4])

        def fixed_point_map(r):
            x = _solve_stack(base, r)[0][0]
            return r + eps * x[_PAIR_RE]

        h = 1e-6
        jac = np.column_stack([
            (fixed_point_map(rabi + h * e) - fixed_point_map(rabi - h * e))
            / (2 * h) for e in np.eye(4)])
        _, _, _, ok, dx = _solve_stack(base, rabi, sensitivities=True)
        assert ok[0]
        inv = np.column_stack([_newton_step(dx, eps, e[None])[0]
                               for e in np.eye(4)])
        assert np.max(np.abs(inv @ jac - np.eye(4))) < 1e-7

    @pytest.mark.parametrize("omega", [0.5, 5.0, 20.0, 100.0])
    def test_merged_sensitivities_match_separate_solve(self, params, omega):
        # the sensitivities ride on the refinement solve, from the state
        # before its refinement step; a separate solve at the refined state
        # gives the same dx/drabi_q
        from hfs.steady import (_coupling_basis, _detuning_stack,
                                _solve_stack, _system_rows)
        base = _detuning_stack(params, np.linspace(-5.0, 5.0, 41)
                               * params.delta_u)
        rabi = np.tile(hfs.steady._couplings(
            bare_rabi(params, hfs.Drive(omega=omega))), (len(base), 1))
        x, a, m, ok, dx = _solve_stack(base, rabi, sensitivities=True)
        assert ok.all() and dx.shape == (len(base), 16, 4)
        _, kept = _system_rows(a)
        bx = np.einsum("qij,nj->niq", _coupling_basis(), x)
        ref = -np.linalg.solve(m, np.where(kept[..., None], bx, 0.0))
        scale = np.abs(ref).max(axis=(1, 2))
        assert np.all(np.abs(dx - ref).max(axis=(1, 2)) <= 1e-10 * scale)
        # and the sensitivities cost the NDD-off solve nothing
        x_off, _, _, _, none = _solve_stack(base, rabi)
        assert none is None
        assert np.max(np.abs(x_off - x)) <= 1e-15

    @staticmethod
    def count_solves(monkeypatch):
        solve_stack, calls = hfs.steady._solve_stack, []

        def counted(*args, **kwargs):
            out = solve_stack(*args, **kwargs)
            calls.append(out[0].copy())
            return out

        monkeypatch.setattr(hfs.steady, "_solve_stack", counted)
        return calls

    def test_settled_point_keeps_its_last_newton_solve(self, params,
                                                       monkeypatch):
        # the bare solve, one per Newton iterate, and no clean solve after
        drive = hfs.Drive(omega=5.0, delta_c=0.2 * params.delta_u,
                          ndd_enabled=True)
        calls = self.count_solves(monkeypatch)
        res = hfs.solve_selfconsistent(params, drive)
        assert res.converged and res.iterations >= 2
        assert len(calls) == res.iterations + 1
        assert np.array_equal(pack(res.rho), calls[-1][0])
        assert hfs.residual_norm(params, drive, res.rho) < 1e-12
        calls.clear()
        assert hfs.solve_selfconsistent(
            params, drive.replace(ndd_enabled=False)).iterations == 1
        assert len(calls) == 1

    def test_picard_point_gets_its_clean_solve(self, params, monkeypatch):
        # the bare solve, one per Picard iteration, then the clean solve
        drive = hfs.Drive(omega=5.0, delta_c=0.2 * params.delta_u,
                          ndd_enabled=True)
        self.picard_only(monkeypatch)
        calls = self.count_solves(monkeypatch)
        res = hfs.solve_selfconsistent(params, drive)
        assert res.converged
        assert len(calls) == res.iterations + 2
        assert np.array_equal(pack(res.rho), calls[-1][0])
        assert hfs.residual_norm(params, drive, res.rho) < 1e-12

    def test_settled_point_failing_gate_is_solved_again(self, params,
                                                        monkeypatch):
        # every lockstep solve of the middle point is shifted off its steady
        # state by the same amount: Newton settles it in as many iterations
        # as before, its state fails the gate at its own couplings, and it
        # is solved again on its own, not flagged singular
        from hfs.steady import _detuning_stack
        grid = np.linspace(-0.5, 0.5, 5) * params.delta_u
        ref = hfs.solve_grid(params, 5.0, grid, ndd_enabled=True)
        target = _detuning_stack(params, grid[2:3])[0]
        solve_stack, solve_point = (hfs.steady._solve_stack,
                                    hfs.steady._solve_point)
        retried = []

        def shifted(base, rabi, sensitivities=False):
            out = solve_stack(base, rabi, sensitivities)
            if sensitivities and not retried:
                out[0][np.all(base == target, axis=(1, 2)), 4] += 1e-6
            return out

        def counted(params, drive, delta_c, opts):
            retried.append(delta_c)
            return solve_point(params, drive, delta_c, opts)

        monkeypatch.setattr(hfs.steady, "_solve_stack", shifted)
        monkeypatch.setattr(hfs.steady, "_solve_point", counted)
        sol = hfs.solve_grid(params, 5.0, grid, ndd_enabled=True)
        assert retried == [grid[2]]
        assert not sol.singular.any() and sol.converged.all()
        assert np.array_equal(sol.iterations, ref.iterations)
        assert np.max(np.abs(sol.x - ref.x)) <= 1e-12
        assert np.all(sol.residual < 1e-12)

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


CONFIG = Path(__file__).resolve().parents[1] / "demos" / "sweep.cfg"


def generator_build_stack(p, grid):
    """Coupling-free generators at ``grid`` with A(0) built by
    ``generator_matrix`` at zero detuning: the oracle of the rate basis."""
    from hfs.steady import _NO_COUPLING, _detuning_basis
    a0 = generator_matrix(p, hfs.Drive(omega=0.0, delta_c=-p.delta_u),
                          _NO_COUPLING)
    delta = np.asarray(grid) + p.delta_u
    return a0 + delta[:, None, None] * _detuning_basis()


class TestGrid:
    """The stacked solver against independent oracles, and its fallbacks
    against its own undisturbed stack."""

    @pytest.mark.parametrize("ndd", [False, True])
    def test_matches_relaxation_on_random_params(self, ndd):
        # every point against long-time propagation (criterion 06's bound).
        # The relaxation stops at residual 1e-11: at 1e-9 a point with a
        # slow mode stops 2e-6 short of its fixed point
        rng = np.random.default_rng(7 + ndd)
        checked = 0
        for dark in (None, 2, 3, 4) * 3:
            p = random_params(rng, dark)
            omega = float(rng.uniform(0.3, 30.0))
            grid = np.sort(rng.uniform(-3.0, 3.0, 4)) * p.delta_u
            sol = hfs.solve_grid(p, omega, grid, ndd)
            for k, dc in enumerate(grid):
                drive = hfs.Drive(omega=omega, delta_c=dc, ndd_enabled=ndd)
                ref = hfs.relax_to_steady(p, drive, residual_tol=1e-11,
                                          t_max=1e8)
                if sol.singular[k]:
                    # no unique steady state: nothing couples, or the
                    # propagation never settles
                    assert np.all(np.isnan(sol.x[k]))
                    assert (bare_rabi(p, drive).max_abs() == 0.0
                            or not ref.converged)
                    continue
                assert sol.converged[k] and ref.converged
                assert np.max(np.abs(unpack(sol.x[k]) - ref.rho)) < 1e-6
                assert sol.residual[k] < 1e-10
                checked += 1
        assert checked >= 36

    def test_two_level_closed_form(self):
        # the reduced system along a detuning axis against the closed form
        from hfs.identities import two_level_reduction, two_level_steady
        p = two_level_reduction()
        de = np.linspace(-6.0, 6.0, 13)
        for om in (0.2, 1.0, 5.0):
            sol = hfs.solve_grid(p, om, de + p.delta_g - p.delta_u)
            rho = unpack(sol.x.T)
            for k, d in enumerate(de):
                r33, r31 = two_level_steady(om, float(d))
                assert rho[2, 2, k].real == pytest.approx(r33, abs=1e-12)
                assert rho[2, 0, k] == pytest.approx(r31, abs=1e-12)
            assert np.all(np.abs(rho[[1, 3], [1, 3]]) < 1e-14)

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

    def test_rate_basis_is_constant_and_read_only(self):
        from hfs.steady import _rate_basis
        basis = _rate_basis()
        assert basis.shape == (6, 16, 16) and not basis.flags.writeable
        assert _rate_basis() is basis
        # every entry is exact: a decay or splitting coefficient, or half one
        assert set(np.unique(basis)) == {-1.0, -0.5, 0.0, 1.0}

    @pytest.mark.parametrize("which", ["sodium_d1", "cyclic", "sweep_cfg"])
    def test_detuning_stack_matches_generator_build_exactly(self, which):
        # the generator at zero detuning from the rate basis equals the one
        # rhs_verbatim builds, bit for bit, on the parameter sets behind the
        # paper grids; this keeps the sweep tables' bytes
        from hfs.config import parse_config
        from hfs.steady import _detuning_stack
        doc = parse_config(CONFIG.read_text())
        p = {"sodium_d1": hfs.sodium_d1(),
             "cyclic": hfs.sodium_d1_cyclic_splittings(),
             "sweep_cfg": doc.system_params()}[which]
        grid = np.asarray(doc.sweep_spec(p).delta_c)
        assert len(grid) == 2001
        assert np.array_equal(_detuning_stack(p, grid),
                              generator_build_stack(p, grid))

    def test_detuning_stack_round_off_on_random_params(self):
        # with rates and splittings summed in another order the two builds
        # may differ, by round-off of the detuning scale only
        from hfs.steady import _detuning_stack
        rng = np.random.default_rng(15)
        for _ in range(200):
            p = random_params(rng, dark=rng.choice([None, 2, 3, 4]))
            grid = rng.uniform(-5.0, 5.0, 8) * p.delta_u
            scale = max(np.max(np.abs(grid + p.delta_u)),
                        p.delta_g + p.delta_e)
            diff = _detuning_stack(p, grid) - generator_build_stack(p, grid)
            assert np.max(np.abs(diff)) <= 4 * np.spacing(scale)

    def test_nonfinite_step_falls_back_to_picard(self, params, monkeypatch):
        # the first point's first lockstep step is not finite: that point
        # alone leaves the lockstep, and Picard takes it from its last
        # iterate to the same fixed point
        from hfs.steady import _detuning_stack
        grid = np.linspace(-0.5, 0.5, 7) * params.delta_u
        ref = hfs.solve_grid(params, 5.0, grid, ndd_enabled=True)
        newton_step, picard = hfs.steady._newton_step, hfs.steady._picard
        faulted, continued = [], []

        def faulty(x, *args):
            step = newton_step(x, *args)
            if not faulted:
                faulted.append(len(x))
                step[0] = np.nan
            return step

        def counted(base, bare, eps, opts, x, iterations):
            continued.append((base, iterations))
            return picard(base, bare, eps, opts, x, iterations)

        def no_retry(*args):
            raise AssertionError("a point was solved again on its own")

        monkeypatch.setattr(hfs.steady, "_newton_step", faulty)
        monkeypatch.setattr(hfs.steady, "_picard", counted)
        monkeypatch.setattr(hfs.steady, "_solve_point", no_retry)
        sol = hfs.solve_grid(params, 5.0, grid, ndd_enabled=True)
        assert faulted == [len(grid)]
        [(base, iterations)] = continued
        assert iterations == 0
        assert np.array_equal(base, _detuning_stack(params, grid[:1]))
        assert sol.converged.all() and not sol.singular.any()
        assert sol.iterations[0] > ref.iterations[0]
        assert np.array_equal(sol.iterations[1:], ref.iterations[1:])
        assert np.max(np.abs(sol.x - ref.x)) <= 1e-12

    @pytest.mark.parametrize("ndd", [False, True])
    def test_failed_gate_falls_back_to_pointwise(self, params, monkeypatch,
                                                 ndd):
        # the stacked system of the middle point is corrupted, so its
        # batched solution fails the residual gate of the true generator
        # and that point is solved again as a one-point stack
        grid = np.linspace(-0.5, 0.5, 5) * params.delta_u
        ref = hfs.solve_grid(params, 5.0, grid, ndd)
        system_rows = hfs.steady._system_rows

        def corrupted(a):
            m, kept = system_rows(a)
            if a.ndim == 3 and len(a) == len(grid):
                m[2, 5, 5] += 1.0
            return m, kept

        monkeypatch.setattr(hfs.steady, "_system_rows", corrupted)
        sol = hfs.solve_grid(params, 5.0, grid, ndd)
        assert not sol.singular.any()
        assert np.array_equal(sol.iterations, ref.iterations)
        assert np.max(np.abs(sol.x - ref.x)) <= 1e-12

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


def test_no_per_call_path_runs_rhs_verbatim(params, monkeypatch):
    # once the constant bases exist, no solve, relaxation or evolution
    # calls rhs_verbatim: every generator comes from the affine split
    hfs.solve_selfconsistent(params, hfs.Drive(omega=5.0, ndd_enabled=True))

    def forbidden(*args, **kwargs):
        raise AssertionError("rhs_verbatim called on a per-call path")
    monkeypatch.setattr(hfs.steady, "rhs_verbatim", forbidden)
    monkeypatch.setattr(hfs.model, "rhs_verbatim", forbidden)

    grid = np.linspace(-1.0, 1.0, 5) * params.delta_u
    for ndd in (False, True):
        drive = hfs.Drive(omega=5.0, delta_c=0.3 * params.delta_u,
                          ndd_enabled=ndd)
        assert hfs.solve_selfconsistent(params, drive).converged
        assert hfs.solve_grid(params, 5.0, grid, ndd).converged.all()
        assert hfs.relax_to_steady(params, drive).converged
        assert len(hfs.evolve(params, drive, hfs.ground_state(), 1.0)) > 1
    drive = hfs.Drive(omega=5.0, delta_c=0.3 * params.delta_u)
    hfs.solve_linear_steady(params, drive, bare_rabi(params, drive))
    from hfs.identities import two_level_oracle_check
    assert two_level_oracle_check(omegas=(0.5, 2.0), deltas=(-1.0, 0.5)).passed
    other = params.replace(gamma31=0.3, gamma32=1.7, gamma41=0.0,
                           gamma42=2.5, delta_g=40.0, delta_e=7.0)
    assert hfs.solve_selfconsistent(
        other, hfs.Drive(omega=3.0, ndd_enabled=True)).converged


def test_steady_layer_imports_without_scipy(tmp_path):
    # the steady states, sweeps, identities and config need numpy alone:
    # `import hfs`, `import hfs.cli` and the steady, sweep and validate
    # subcommands run with scipy blocked and leave no scipy module loaded
    src = Path(hfs.__file__).resolve().parents[1]
    config = str(src.parent / "demos" / "sweep.cfg")
    code = "\n".join((
        "import sys",
        "sys.modules['scipy'] = None",
        f"sys.path.insert(0, {str(src)!r})",
        "import hfs, hfs.cli",
        f"assert hfs.cli.run_cli(['steady', '--config', {config!r}]) == 0",
        f"assert hfs.cli.run_cli(['sweep', '--config', {config!r},",
        f"    '--output', {str(tmp_path / 'grid.csv')!r}]) == 0",
        f"assert hfs.cli.run_cli(['validate', '--config', {config!r}]) == 0",
        "loaded = [n for n, m in sys.modules.items() if m is not None",
        "          and (n == 'scipy' or n.startswith('scipy.'))]",
        "assert not loaded, loaded",
    ))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


def test_dynamics_names_load_on_first_use():
    import hfs.dynamics
    for name in ("Trajectory", "evolve", "relax_to_steady"):
        assert getattr(hfs, name) is getattr(hfs.dynamics, name)
        assert name in dir(hfs)
    namespace = {}
    exec("from hfs import *", namespace)
    assert all(namespace[name] is getattr(hfs, name) for name in hfs.__all__)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        hfs.no_such_name
