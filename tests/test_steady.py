import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hfs
import hfs.steady
from hfs.model import pack, unpack
from hfs.params import RabiSet, bare_rabi
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
        # a non-integer bound would fail only in the Picard fallback, and
        # True would run as 1
        for max_iters in (2.5, True, "3"):
            with pytest.raises(ValueError, match="integer"):
                hfs.SolveOptions(max_iters=max_iters)
        assert hfs.SolveOptions(max_iters=np.int64(3)).max_iters == 3
        # True would run as 1.0, and a string failed the comparison with
        # TypeError
        for name, match in (("fp_tol", "fp_tol"), ("damping", "damping")):
            for value in (True, "1e-3"):
                with pytest.raises(ValueError, match=match):
                    hfs.SolveOptions(**{name: value})
            opts = hfs.SolveOptions(**{name: np.float64(0.5)})
            assert getattr(opts, name) == 0.5

    def test_nonconvergence_reported_not_raised(self, params):
        drive = hfs.Drive(omega=5.0, delta_c=0.2 * params.delta_u,
                          ndd_enabled=True)
        res = hfs.solve_selfconsistent(params, drive,
                                       hfs.SolveOptions(max_iters=2))
        assert not res.converged
        assert res.message != ""

    def test_rabi_final_from_packed_state_matches_effective_rabi(self):
        # the couplings of a packed state equal effective_rabi's on the
        # unpacked rho bit for bit, the sign of a zero coupling included: a
        # bare coupling is -0.0 where mu or omega is, and unpack keeps a
        # -0.0 real part only where the imaginary part's sign bit is set
        from dataclasses import astuple
        from itertools import product
        from hfs.params import effective_rabi
        from hfs.steady import _PAIR_RE, _affine_split, _state_couplings
        p = hfs.sodium_d1()
        cases = [(p.replace(mu13=-0.0), hfs.Drive(omega=5.0)),
                 (p, hfs.Drive(omega=-0.0)),
                 (p.replace(mu24=-0.0), hfs.Drive(omega=2.0, epsilon={
                     "13": -0.0, "14": 0.0, "23": 2.5, "24": 0.0}))]
        rng = np.random.default_rng(37)
        signs = (0.0, -0.0, 0.25, -0.25)
        plain_differs = 0
        for params, drive in cases:
            drive = drive.replace(ndd_enabled=True)
            _, bare, eps = _affine_split(params, drive, np.zeros(1))
            for re, im in product(signs, signs):
                x = rng.normal(scale=0.1, size=16)
                x[_PAIR_RE], x[_PAIR_RE + 1] = re, im
                ref = np.array(astuple(effective_rabi(params, drive,
                                                      unpack(x))))
                got = _state_couplings(bare, eps, x)
                assert got.tobytes() == ref.tobytes()
                plain = bare - eps * x[_PAIR_RE]
                plain_differs += plain.tobytes() != ref.tobytes()
        # taking Re(rho_ij) as x_re alone would move the sign of a zero
        assert plain_differs > 0

    @pytest.mark.parametrize("ndd", [False, True])
    def test_rabi_final_is_effective_rabi_of_rho(self, ndd):
        from dataclasses import astuple
        from hfs.params import effective_rabi
        rng = np.random.default_rng(41)
        for params in (hfs.sodium_d1(), hfs.sodium_d1().replace(mu13=-0.0),
                       random_params(rng, 3)):
            for omega, dc in ((0.5, -1.0), (5.0, 0.2), (40.0, 2.5)):
                drive = hfs.Drive(omega=omega, delta_c=dc * params.delta_u,
                                  ndd_enabled=ndd)
                res = hfs.solve_selfconsistent(params, drive)
                ref = effective_rabi(params, drive, res.rho)
                assert all(type(v) is float for v in astuple(res.rabi_final))
                assert (np.array(astuple(res.rabi_final)).tobytes()
                        == np.array(astuple(ref)).tobytes())


class TestNewton:
    """Newton on the packed state against the damped-Picard fallback."""

    @staticmethod
    def fault(monkeypatch, change):
        # ``change(base, x, jac)`` may alter the Newton matrices built at
        # the states ``x`` of the generator stack ``base``
        newton_system = hfs.steady._newton_system

        def faulty(base, bare, eps, x):
            out = newton_system(base, bare, eps, x)
            change(base, x, out[3])
            return out

        monkeypatch.setattr(hfs.steady, "_newton_system", faulty)

    @classmethod
    def picard_only(cls, monkeypatch):
        # every step after the one from x = 0, which is the solve at the
        # bare couplings, is not finite
        def no_step(base, x, jac):
            jac[np.any(x != 0.0, axis=-1)] = np.nan
        cls.fault(monkeypatch, no_step)

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

    def test_pair_columns_as_a_slice(self):
        # the Newton matrix updates the Re(rho_ij) columns as one view
        from hfs.steady import _PAIR_ORDER, _PAIR_RE, _PAIR_SLICE
        assert np.array_equal(np.arange(16)[_PAIR_SLICE],
                              _PAIR_RE[_PAIR_ORDER])

    def test_step_max_abs_bounds_its_change_in_rho(self):
        # the lockstep takes a step's full change in rho only where the
        # step's max-abs is below fp_tol: hypot(a, b) >= max(|a|, |b|)
        from hfs.steady import _rho_max_abs
        rng = np.random.default_rng(43)
        steps = rng.normal(size=(4000, 16)) * 10.0 ** rng.uniform(
            -320, 300, size=(4000, 1))
        steps[:1000, 4::2] = steps[:1000, 5::2]
        steps[1000:2000, 5::2] = np.spacing(steps[1000:2000, 4::2])
        steps[2000:2100] = np.array([5e-324, -0.0, 1.7976931348623157e308,
                                     0.0] * 4)
        assert np.all(np.abs(steps).max(axis=-1) <= _rho_max_abs(steps))

    def test_jacobian_matches_finite_differences(self, params):
        # the Newton matrix against central differences of the flow that
        # rhs_verbatim defines with the couplings following the state
        # (effective_rabi), its population-1 row replaced by the trace
        # row.  The flow is quadratic in the state, so the differences are
        # exact up to round-off
        from hfs.model import rhs_verbatim
        from hfs.params import effective_rabi
        from hfs.steady import _TRACE_ROW, _affine_split, _newton_system
        h = 1e-5
        for omega, dc in ((0.5, 0.3), (5.0, -0.2), (20.0, 1.0), (100.0, 0.0)):
            drive = hfs.Drive(omega=omega, delta_c=dc * params.delta_u,
                              ndd_enabled=True)
            x = pack(hfs.solve_selfconsistent(params, drive).rho)

            def flow(x):
                rho = unpack(x)
                rabi = effective_rabi(params, drive, rho)
                return pack(rhs_verbatim(params, drive, rho, rabi=rabi))

            ref = np.column_stack([(flow(x + h * e) - flow(x - h * e))
                                   / (2 * h) for e in np.eye(16)])
            ref[0] = _TRACE_ROW
            base, bare, eps = _affine_split(params, drive,
                                            np.array([drive.delta_c]))
            jac = _newton_system(base, bare, eps, x[None])[3][0]
            assert np.max(np.abs(jac - ref)) <= 1e-6 * np.max(np.abs(ref))

    @staticmethod
    def count_solves(monkeypatch):
        solve_stack, calls = hfs.steady._solve_stack, []

        def counted(*args):
            out = solve_stack(*args)
            calls.append(out[0].copy())
            return out

        monkeypatch.setattr(hfs.steady, "_solve_stack", counted)
        return calls

    @staticmethod
    def count_factorizations(monkeypatch):
        # (matrices factored, solutions) of every np.linalg.solve call
        solve, calls = np.linalg.solve, []

        def counted(a, b):
            out = solve(a, b)
            calls.append((len(a), out[..., 0].copy()))
            return out

        monkeypatch.setattr(np.linalg, "solve", counted)
        return calls

    def test_settled_point_keeps_its_last_newton_solve(self, params,
                                                       monkeypatch):
        # k Newton steps after the step from x = 0 (the solve at the bare
        # couplings) factor k + 1 matrices, and no clean solve follows: the
        # state returned is the last iterate
        drive = hfs.Drive(omega=5.0, delta_c=0.2 * params.delta_u,
                          ndd_enabled=True)
        states = []
        self.fault(monkeypatch, lambda base, x, jac: states.append(x.copy()))
        steps = self.count_factorizations(monkeypatch)
        res = hfs.solve_selfconsistent(params, drive)
        assert res.converged and res.iterations >= 2
        assert [n for n, _ in steps] == [1] * (res.iterations + 1)
        assert np.array_equal(pack(res.rho), states[-1][0] - steps[-1][1][0])
        assert hfs.residual_norm(params, drive, res.rho) < 1e-12
        # without the correction: one solve and its refinement step
        steps.clear()
        assert hfs.solve_selfconsistent(
            params, drive.replace(ndd_enabled=False)).iterations == 1
        assert [n for n, _ in steps] == [1, 1]

    def test_stack_factors_k_plus_one_matrices_per_point(self, params,
                                                         monkeypatch):
        # in lockstep a point stops costing factorizations when it leaves:
        # a stack whose points settle after k_i steps factors
        # sum(k_i + 1) matrices, where a coupling Newton took 2 k_i + 2
        steps = self.count_factorizations(monkeypatch)
        for omega in (0.5, 5.0, 20.0, 100.0):
            steps.clear()
            sol = hfs.solve_grid(params, omega,
                                 np.linspace(-5.0, 5.0, 41) * params.delta_u,
                                 ndd_enabled=True)
            assert sol.converged.all()
            assert sum(n for n, _ in steps) == np.sum(sol.iterations + 1)

    def test_picard_point_gets_its_clean_solve(self, params, monkeypatch):
        # the solve at the bare couplings comes from Newton; one solve per
        # Picard iteration, then the clean solve
        drive = hfs.Drive(omega=5.0, delta_c=0.2 * params.delta_u,
                          ndd_enabled=True)
        self.picard_only(monkeypatch)
        calls = self.count_solves(monkeypatch)
        res = hfs.solve_selfconsistent(params, drive)
        assert res.converged
        assert len(calls) == res.iterations + 1
        assert np.array_equal(pack(res.rho), calls[-1][0])
        assert hfs.residual_norm(params, drive, res.rho) < 1e-12

    def test_settled_point_failing_gate_is_solved_again(self, params,
                                                        monkeypatch):
        # the middle point's Newton matrices after the step from x = 0 are
        # scaled up 1e12 in the lockstep: its first step is too short to
        # move it, so Newton settles it at the solve at the bare couplings,
        # which fails the gate at its own couplings.  It is solved again on
        # its own, not flagged singular
        from hfs.steady import _detuning_stack
        grid = np.linspace(-0.5, 0.5, 5) * params.delta_u
        ref = hfs.solve_grid(params, 5.0, grid, ndd_enabled=True)
        target = _detuning_stack(params, grid[2:3])[0]
        solve_point, retried = hfs.steady._solve_point, []

        def stiff(base, x, jac):
            if not retried:
                jac[np.all(base == target, axis=(1, 2))
                    & np.any(x != 0.0, axis=-1)] *= 1e12

        def counted(params, drive, delta_c, opts):
            retried.append(delta_c)
            return solve_point(params, drive, delta_c, opts)

        self.fault(monkeypatch, stiff)
        monkeypatch.setattr(hfs.steady, "_solve_point", counted)
        sol = hfs.solve_grid(params, 5.0, grid, ndd_enabled=True)
        assert retried == [grid[2]]
        assert not sol.singular.any() and sol.converged.all()
        assert np.array_equal(sol.iterations, ref.iterations)
        assert np.max(np.abs(sol.x - ref.x)) <= 1e-12
        assert np.all(sol.residual < 1e-12)

    @pytest.mark.parametrize("fault", ["raise", "nan", "uphill"])
    def test_fallback_after_failed_step(self, params, monkeypatch, fault):
        # the first Newton step is sound; the second is singular, not
        # finite, or three times Newton's step backwards (its residual
        # grows, which the next pass sees), and Picard continues from the
        # last iterate to the same fixed point
        drive = hfs.Drive(omega=20.0, delta_c=-0.4 * params.delta_u,
                          ndd_enabled=True)
        ref = hfs.solve_selfconsistent(params, drive)
        calls = []

        def faulty(base, x, jac):
            calls.append(fault)
            if len(calls) == 3:
                if fault == "raise":
                    jac[:] = 0.0
                elif fault == "nan":
                    jac[:] = np.nan
                else:
                    jac *= -1.0 / 3.0

        self.fault(monkeypatch, faulty)
        res = hfs.solve_selfconsistent(params, drive)
        assert len(calls) == (4 if fault == "uphill" else 3)
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
    ``generator_matrix`` at zero detuning: the oracle of the basis's rate
    slice."""
    from hfs.steady import _DETUNING, _NO_COUPLING, _basis
    a0 = generator_matrix(p, hfs.Drive(omega=0.0, delta_c=-p.delta_u),
                          _NO_COUPLING)
    delta = np.asarray(grid) + p.delta_u
    return a0 + delta[:, None, None] * _basis()[_DETUNING]


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

    def test_basis_is_constant_and_read_only(self):
        from hfs.steady import _DETUNING, _basis
        basis = _basis()
        assert basis.shape == (11, 16, 16) and not basis.flags.writeable
        assert _basis() is basis
        # every entry is exact: a pure-number coefficient of the equations
        assert set(np.unique(basis)) == {-2.0, -1.0, -0.5, 0.0, 1.0, 2.0}
        # a decay or splitting coefficient, or half one
        assert set(np.unique(basis[:_DETUNING])) == {-1.0, -0.5, 0.0, 1.0}

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
        # the first point's first Newton step is not finite: that point
        # alone leaves the lockstep, and Picard takes it from its last
        # iterate to the same fixed point
        from hfs.steady import _detuning_stack
        grid = np.linspace(-0.5, 0.5, 7) * params.delta_u
        ref = hfs.solve_grid(params, 5.0, grid, ndd_enabled=True)
        picard, faulted, continued = hfs.steady._picard, [], []

        def faulty(base, x, jac):
            # the step from x = 0 is the solve at the bare couplings
            if x.any() and not faulted:
                faulted.append(len(x))
                jac[0] = np.nan

        def counted(base, bare, eps, opts, x, iterations):
            continued.append((base, iterations))
            return picard(base, bare, eps, opts, x, iterations)

        def no_retry(*args):
            raise AssertionError("a point was solved again on its own")

        TestNewton.fault(monkeypatch, faulty)
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

    def test_points_leaving_at_different_iterates_match_alone(
            self, monkeypatch):
        # one stack whose points leave the lockstep at different iterates by
        # every exit: settled after 4 and 5 iterations, out of iterations,
        # stalled at the first and the second iterate and continued by
        # Picard, and failed at the second Newton step (its couplings
        # forced to zero).  Each point's fields equal those of the point
        # solved alone, bit for bit
        from hfs.steady import _affine_split, _lockstep_newton
        p = hfs.sodium_d1()
        p = p.replace(number_density=300.0 * p.number_density)
        grid = (np.linspace(-3.0, 3.0, 121)[[0, 40, 46, 50, 62, 90]]
                * p.delta_u)
        drive = hfs.Drive(omega=100.0, ndd_enabled=True)
        opts = hfs.SolveOptions(max_iters=5)
        base, bare, eps = _affine_split(p, drive, grid)
        newton_system, doomed, passes = (hfs.steady._newton_system, base[5],
                                         [])

        def failing(base, bare, eps, x):
            out = newton_system(base, bare, eps, x)
            hit = np.all(base == doomed, axis=(1, 2))
            if hit.any():
                passes.append(1)
                if len(passes) >= 3:
                    out[0][hit] = 0.0
            return out

        monkeypatch.setattr(hfs.steady, "_newton_system", failing)
        stack = _lockstep_newton(base, bare, eps, opts)
        _, _, converged, iterations, stalled, failed = stack
        assert iterations.tolist() == [4, 5, 5, 1, 2, 1]
        assert converged.tolist() == [True, True, False, False, False, False]
        assert np.flatnonzero(stalled).tolist() == [3, 4]
        assert np.flatnonzero(failed).tolist() == [5]
        for k in range(len(grid)):
            passes.clear()
            alone = _lockstep_newton(base[k:k + 1], bare, eps, opts)
            for got, ref in zip(stack, alone):
                assert np.array_equal(got[k], ref[0])

        passes.clear()
        sol = hfs.solve_grid(p, drive.omega, grid, True, opts)
        assert np.flatnonzero(sol.singular).tolist() == [5]
        for k, dc in enumerate(grid):
            passes.clear()
            if sol.singular[k]:
                with pytest.raises(hfs.SingularSystem):
                    hfs.solve_selfconsistent(p, drive.replace(delta_c=dc),
                                             opts)
                continue
            ref = hfs.solve_selfconsistent(p, drive.replace(delta_c=dc), opts)
            assert np.array_equal(sol.x[k], pack(ref.rho))
            assert sol.converged[k] == ref.converged
            assert sol.iterations[k] == ref.iterations
            assert sol.residual[k] == ref.residual
        assert sol.converged.tolist()[:3] == [True, True, False]
        assert sol.iterations.tolist() == [4, 5, 5, 5, 5, 0]

    def test_high_density_rows_pass_the_gate(self):
        # at 100x the paper's density (local-field strength ~39 gamma)
        # Newton settles some rows and stalls on others, which the Picard
        # fallback takes over; nothing raises, and every converged row
        # satisfies the equations at its own couplings
        from hfs.config import parse_config
        p = parse_config(CONFIG.read_text()).system_params()
        p = p.replace(number_density=1.5e22)
        grid = np.linspace(0.0, 0.12, 9) * p.delta_u
        sol = hfs.solve_grid(p, 100.0, grid, ndd_enabled=True)
        assert not sol.singular.any() and sol.converged.sum() >= 4
        for k, dc in enumerate(grid):
            if sol.converged[k]:
                drive = hfs.Drive(omega=100.0, delta_c=dc, ndd_enabled=True)
                assert hfs.residual_norm(p, drive, unpack(sol.x[k])) <= 1e-8

    def test_system_rows_match_where_build(self):
        # pinned and unpinned points in one stack, against the masked build
        # the copy-and-overwrite one replaced
        from hfs.steady import (_ZERO_ROW_TOL, _couplings, _detuning_stack,
                                _system_rows, _with_couplings)

        def where_build(a):
            row_max = np.abs(a).max(axis=-1)
            scale = np.maximum(row_max.max(axis=-1, keepdims=True), 1.0)
            kept = row_max >= _ZERO_ROW_TOL * scale
            kept[..., 0] = False
            kept[..., 4:] = True
            m = np.where(kept[..., None], a, 0.0)
            m[..., 0, 0:4] = 1.0
            pin = np.arange(1, 4)
            m[..., pin, pin] = np.where(kept[..., pin], m[..., pin, pin], 1.0)
            return m, kept

        rng = np.random.default_rng(19)
        stacks = []
        for dark in (None, 2, 3, 4) * 3:
            p = random_params(rng, dark)
            grid = rng.uniform(-3.0, 3.0, 5) * p.delta_u
            rabi = _couplings(bare_rabi(p, hfs.Drive(omega=2.0)))
            stacks.append(_with_couplings(_detuning_stack(p, grid), rabi))
        mixed = np.concatenate(stacks)
        has_pin = ~where_build(mixed)[1][:, 1:4].all(axis=-1)
        assert 0 < has_pin.sum() < len(mixed) and not has_pin[:5].any()
        # a stack with pinned rows, one without, and a single matrix
        for a in (mixed, stacks[0], mixed[has_pin][0]):
            m, kept = _system_rows(a)
            m_ref, kept_ref = where_build(a)
            assert np.array_equal(m, m_ref) and np.array_equal(kept, kept_ref)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ndd", [False, True])
    @pytest.mark.parametrize("delta_c", [
        [0.0, np.nan, 1.0], [0.0, np.inf], [-np.inf, 0.0], [[0.0, 1.0]], 3.0,
    ], ids=["nan", "inf", "-inf", "2-d", "scalar"])
    def test_invalid_detunings_rejected(self, monkeypatch, ndd, delta_c):
        # a ValueError before any solve: NaN used to reach np.linalg.cond
        # (LinAlgError), inf to warn first, a 2-D grid to fail a broadcast
        def never(*args):
            raise AssertionError("a solve started")

        monkeypatch.setattr(hfs.steady, "_affine_split", never)
        with pytest.raises(ValueError, match="delta_c"):
            hfs.solve_grid(hfs.sodium_d1_cyclic_splittings(), 5.0, delta_c,
                           ndd)

    def test_empty_grid(self):
        for ndd in (False, True):
            sol = hfs.solve_grid(hfs.sodium_d1(), 5.0, [], ndd)
            assert sol.x.shape == (0, 16) and sol.singular.shape == (0,)

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


# -- the NDD-on solve against its pre-change form ---------------------------
#
# The Newton lockstep before its passes skipped the bookkeeping of points
# that go on: the marks and the compaction ran on every pass, the settle
# test took the full change in rho of every step, the tail of _solve_axis
# indexed subsets even when every point settled, and rabi_final came from
# effective_rabi on the unpacked rho.  These reference functions keep that
# form; the solver must give the same bytes.

def ref_system_rows(a):
    from hfs.steady import (_PINNABLE, _PINNED_ROWS, _TRACE_ROW,
                            _ZERO_ROW_TOL)
    scale = np.maximum(np.abs(a).max(axis=(-2, -1)), 1.0)[..., None]
    kept = np.full(a.shape[:-1], True)
    kept[..., 0] = False
    kept[..., _PINNABLE] = (np.abs(a[..., _PINNABLE, :]).max(axis=-1)
                            >= _ZERO_ROW_TOL * scale)
    m = a.copy()
    m[..., 0, :] = _TRACE_ROW
    if not kept[..., _PINNABLE].all():
        m[..., _PINNABLE, :] = np.where(kept[..., _PINNABLE, None],
                                        m[..., _PINNABLE, :], _PINNED_ROWS)
    return m, kept


def ref_newton_system(base, bare, eps, x):
    from hfs.steady import (_COUPLINGS, _PAIR_RE, _TRACE_RHS, _apply,
                            _basis, _with_couplings)
    rabi = bare - eps * x[:, _PAIR_RE]
    m, kept = ref_system_rows(_with_couplings(base, rabi))
    f = _apply(m, x) - _TRACE_RHS
    bx = (x @ _basis()[_COUPLINGS].reshape(64, 16).T).reshape(len(x), 4, 16)
    jac = m.copy()
    jac[..., _PAIR_RE] -= eps * kept[..., None] * bx.swapaxes(-1, -2)
    return rabi, m, f, jac


def ref_lockstep_newton(base, bare, eps, opts):
    from hfs.steady import _rho_max_abs
    n = len(base)
    x_out, m_out = np.empty((n, 16)), np.empty((n, 16, 16))
    failed, stalled, converged = np.zeros((3, n), dtype=bool)
    iterations = np.zeros(n, dtype=int)
    x, live, last, done = (np.zeros((n, 16)), np.arange(n),
                           np.full(n, np.inf), -1)

    def leave(keep, *marks):
        nonlocal live, x, m, base, last, step
        if not keep.all():
            for flags, mask in marks:
                flags[live[mask]] = True
            gone = live[~keep]
            x_out[gone], m_out[gone] = x[~keep], m[~keep]
            live, iterations[gone] = live[keep], max(done, 0)
            if live.size:
                x, m, base, last, step = (
                    v[keep] for v in (x, m, base, last, step))
        return live.size > 0

    while True:
        rabi, m, f, jac = ref_newton_system(base, bare, eps, x)
        try:
            step = np.linalg.solve(jac, f[..., None])[..., 0]
        except np.linalg.LinAlgError:
            if live.size > 1:
                failed[live] = True
                leave(np.zeros(live.size, dtype=bool))
                break
            step = np.full_like(f, np.nan)
        fnorm, finite = np.abs(f).max(axis=-1), np.isfinite(step).all(axis=-1)
        ok = (rabi != 0.0).any(axis=-1) & (finite | (done >= 0))
        going = ok & finite & (fnorm < last)
        if done >= 0:
            last = fnorm
        if not leave(going, (failed, ~ok), (stalled, ok & ~going)):
            break
        x -= step
        done += 1
        settled = _rho_max_abs(step) < opts.fp_tol
        if not leave(~settled & (done < opts.max_iters), (converged, settled)):
            break
    return x_out, m_out, converged, iterations, stalled, failed


def ref_solve_axis(params, drive, delta_c, opts):
    from hfs.steady import (_PAIR_RE, SingularSystem, _affine_split, _apply,
                            _gate, _picard, _rho_max_abs, _solve_stack,
                            _with_couplings)

    def own_residual(base, x):
        return _apply(_with_couplings(base, bare - eps * x[:, _PAIR_RE]), x)

    base, bare, eps = _affine_split(params, drive, delta_c)
    n = len(base)
    if not np.any(eps != 0.0):
        x, a, m, ok = _solve_stack(base, bare)
        resid = _apply(a, x)
        return (x, np.ones(n, dtype=bool), np.ones(n, dtype=int),
                _rho_max_abs(resid), ~(ok & _gate(resid)), m)
    x, m, converged, iterations, stalled, failed = ref_lockstep_newton(
        base, bare, eps, opts)
    settled = converged & ~stalled
    for k in np.flatnonzero(stalled):
        try:
            x[k], converged[k], iterations[k] = _picard(
                base[k:k + 1], bare, eps, opts, x[k], iterations[k])
        except SingularSystem:
            failed[k] = True
    live = np.flatnonzero(~failed)
    resid = own_residual(base[live], x[live])
    keep = settled[live]
    failed[live[keep & ~_gate(resid)]] = True
    redo = live[~keep]
    if redo.size:
        x_redo, a, m[redo], ok = _solve_stack(
            base[redo], bare - eps * x[redo][:, _PAIR_RE])
        failed[redo[~(ok & _gate(_apply(a, x_redo)))]] = True
        x[redo] = x_redo
        resid[~keep] = own_residual(base[redo], x_redo)
    residual = np.full(n, np.nan)
    residual[live] = _rho_max_abs(resid)
    return x, converged, iterations, residual, failed, m


def ref_solve_point(params, drive, delta_c, opts):
    from hfs.steady import _couplings, _singular
    x, converged, iterations, residual, failed, m = ref_solve_axis(
        params, drive, np.array([delta_c]), opts)
    if failed[0]:
        raise _singular(_couplings(bare_rabi(params, drive)), m[0])
    return x[0], bool(converged[0]), int(iterations[0]), float(residual[0])


def ref_solve_selfconsistent(params, drive, opts):
    from hfs.params import effective_rabi
    x, converged, iterations, residual = ref_solve_point(
        params, drive, drive.delta_c, opts)
    rho = unpack(x)
    return hfs.SteadyResult(
        rho=rho, converged=converged, iterations=iterations,
        residual=residual, rabi_final=effective_rabi(params, drive, rho),
        message="" if converged else
        f"fixed-point iteration did not converge in {opts.max_iters} steps")


def ref_solve_grid(params, omega, delta_c, opts):
    delta_c = np.asarray(delta_c, dtype=float)
    drive = hfs.Drive(omega=omega, ndd_enabled=True)
    x, converged, iterations, residual, failed, _ = ref_solve_axis(
        params, drive, delta_c, opts)
    singular = np.zeros(len(x), dtype=bool)
    for k in np.flatnonzero(failed):
        try:
            x[k], converged[k], iterations[k], residual[k] = ref_solve_point(
                params, drive, delta_c[k], opts)
        except hfs.SingularSystem:
            singular[k] = True
    x[singular], residual[singular] = np.nan, np.nan
    converged[singular], iterations[singular] = False, 0
    return hfs.steady.GridSolution(
        x=x, converged=converged, iterations=iterations, residual=residual,
        singular=singular)


def assert_same_bytes(got, ref):
    """Every field of two GridSolutions or SteadyResults, byte for byte."""
    from dataclasses import astuple, fields
    for field in fields(ref):
        a, b = getattr(got, field.name), getattr(ref, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            assert a.tobytes() == b.tobytes(), field.name
        elif isinstance(b, float):
            assert type(a) is float and repr(a) == repr(b), field.name
        elif isinstance(b, RabiSet):
            assert [type(v) for v in astuple(a)] == [float] * 4
            assert (np.array(astuple(a)).tobytes()
                    == np.array(astuple(b)).tobytes()), field.name
        else:
            assert type(a) is type(b) and a == b, field.name


def assert_same_solves(params, omega, grid, opts):
    """solve_grid, and solve_selfconsistent at every grid point, against the
    reference, bytes and errors alike; returns the grid solution."""
    sol = hfs.solve_grid(params, omega, grid, True, opts)
    assert_same_bytes(sol, ref_solve_grid(params, omega, grid, opts))
    for dc in grid:
        drive = hfs.Drive(omega=omega, delta_c=float(dc), ndd_enabled=True)
        try:
            ref = ref_solve_selfconsistent(params, drive, opts)
        except hfs.SingularSystem as exc:
            with pytest.raises(hfs.SingularSystem) as got:
                hfs.solve_selfconsistent(params, drive, opts)
            assert str(got.value) == str(exc)
            continue
        assert_same_bytes(hfs.solve_selfconsistent(params, drive, opts), ref)
    return sol


def assert_same_lockstep(params, omega, grid, opts):
    """The lockstep's 6-tuple on the whole stack and on each one-point
    stack, against the reference lockstep."""
    from hfs.steady import _affine_split, _lockstep_newton
    base, bare, eps = _affine_split(
        params, hfs.Drive(omega=omega, ndd_enabled=True), grid)
    for stack in [base] + [base[k:k + 1] for k in range(len(base))]:
        got = _lockstep_newton(stack, bare, eps, opts)
        ref = ref_lockstep_newton(stack, bare, eps, opts)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestMatchesPreChangeSolve:
    """The NDD-on solve against the pre-change lockstep, byte for byte."""

    @pytest.mark.parametrize("omega", [0.5, 5.0, 20.0, 100.0])
    def test_paper_parameters(self, omega):
        from hfs.config import parse_config
        p = parse_config(CONFIG.read_text()).system_params()
        grid = np.linspace(-5.0, 5.0, 21) * p.delta_u
        sol = assert_same_solves(p, omega, grid, hfs.SolveOptions())
        assert sol.converged.all()
        assert_same_lockstep(p, omega, grid[::4], hfs.SolveOptions())

    def test_dark_level_parameter_sets(self):
        # pinned population rows, zero decay rates and dipoles
        rng = np.random.default_rng(29)
        for dark in (None, 2, 3, 4) * 2:
            p = random_params(rng, dark)
            omega = float(np.exp(rng.uniform(np.log(0.3), np.log(60.0))))
            grid = np.sort(rng.uniform(-3.0, 3.0, 5)) * p.delta_u
            assert_same_solves(p, omega, grid, hfs.SolveOptions())
            assert_same_lockstep(p, omega, grid, hfs.SolveOptions())

    @pytest.mark.parametrize("density", ["100x", "300x"])
    def test_high_density_stalls_to_picard(self, density, monkeypatch):
        # Newton stalls on some points, which Picard continues, some of them
        # up to max_iters
        if density == "100x":
            from hfs.config import parse_config
            p = parse_config(CONFIG.read_text()).system_params()
            p = p.replace(number_density=1.5e22)
            grid = np.linspace(0.0, 0.12, 5) * p.delta_u
        else:
            p = hfs.sodium_d1()
            p = p.replace(number_density=300.0 * p.number_density)
            grid = (np.linspace(-3.0, 3.0, 121)[[0, 40, 46, 50, 62, 90]]
                    * p.delta_u)
        picard, continued = hfs.steady._picard, []

        def counted(*args):
            continued.append(args[-1])
            return picard(*args)

        monkeypatch.setattr(hfs.steady, "_picard", counted)
        for max_iters in (1, 5, 40):
            opts = hfs.SolveOptions(max_iters=max_iters)
            sol = assert_same_solves(p, 100.0, grid, opts)
            assert not sol.converged.all()
            assert_same_lockstep(p, 100.0, grid, opts)
        assert continued

    @pytest.mark.parametrize("max_iters", [1, 2, 3, 4, 5])
    def test_max_iters_caps(self, max_iters):
        p = hfs.sodium_d1()
        grid = np.linspace(-1.0, 1.0, 5) * p.delta_u
        opts = hfs.SolveOptions(max_iters=max_iters)
        for omega in (0.5, 5.0, 100.0):
            assert_same_solves(p, omega, grid, opts)
            assert_same_lockstep(p, omega, grid, opts)

    def test_pinned_epsilon(self):
        # pinned local-field strengths, all zero included (the fixed
        # generator route with the correction on), and signed zeros
        p = hfs.sodium_d1()
        for eps in ({"13": 0.0, "14": 0.0, "23": 0.0, "24": 0.0},
                    {"13": -0.0, "14": 0.0, "23": -0.0, "24": 0.0},
                    {"13": 3.0, "14": 0.0, "23": 7.5, "24": 1.25},
                    {"13": 40.0, "14": 40.0, "23": 40.0, "24": 40.0}):
            drives = [hfs.Drive(omega=om, delta_c=dc * p.delta_u,
                                ndd_enabled=True, epsilon=eps)
                      for om in (0.5, 5.0, 20.0) for dc in (-1.0, 0.1, 2.0)]
            for d in drives:
                assert_same_bytes(
                    hfs.solve_selfconsistent(p, d),
                    ref_solve_selfconsistent(p, d, hfs.SolveOptions()))

    def test_singular_batches(self):
        # without decay every Newton matrix is singular and fails its
        # batch; without drive every coupling vanishes
        opts = hfs.SolveOptions()
        grid = np.linspace(-2.0, 2.0, 5)
        p = hfs.sodium_d1().replace(gamma31=0.0, gamma32=0.0, gamma41=0.0,
                                    gamma42=0.0)
        sol = assert_same_solves(p, 2.0, grid, opts)
        assert sol.singular.all()
        sol = assert_same_solves(hfs.sodium_d1(), 0.0, grid, opts)
        assert sol.singular.all()
        assert_same_lockstep(p, 2.0, grid, opts)
        assert_same_lockstep(hfs.sodium_d1(), 0.0, grid, opts)

    @pytest.mark.parametrize("fault", ["nan", "uphill"])
    @pytest.mark.parametrize("max_iters", [1, 2, 500])
    def test_faulted_newton_steps(self, monkeypatch, fault, max_iters):
        # every Newton step after the solve at the bare couplings is not
        # finite, or three times Newton's step backwards: every point stops
        # in the same pass, and Picard takes over
        def faulty(newton_system):
            def system(base, bare, eps, x):
                out = newton_system(base, bare, eps, x)
                moved = np.any(x != 0.0, axis=-1)
                if fault == "nan":
                    out[3][moved] = np.nan
                else:
                    out[3][moved] *= -1.0 / 3.0
                return out
            return system

        monkeypatch.setattr(hfs.steady, "_newton_system",
                            faulty(hfs.steady._newton_system))
        monkeypatch.setitem(globals(), "ref_newton_system",
                            faulty(ref_newton_system))
        p = hfs.sodium_d1()
        grid = np.linspace(-1.0, 1.0, 3) * p.delta_u
        opts = hfs.SolveOptions(max_iters=max_iters)
        sol = assert_same_solves(p, 5.0, grid, opts)
        assert sol.converged.all() == (max_iters == 500)
        assert_same_lockstep(p, 5.0, grid, opts)

    def test_random_drives_one_point(self):
        # one-point stacks over the benchmark's drive range
        rng = np.random.default_rng(31)
        p = hfs.sodium_d1()
        drives = [hfs.Drive(
            omega=float(np.exp(rng.uniform(np.log(0.5), np.log(100.0)))),
            delta_c=float(rng.uniform(-5.0, 5.0)) * p.delta_u,
            ndd_enabled=True) for _ in range(40)]
        for d in drives:
            assert_same_bytes(
                hfs.solve_selfconsistent(p, d),
                ref_solve_selfconsistent(p, d, hfs.SolveOptions()))
