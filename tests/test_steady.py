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
        # a non-integer bound would never equal the count of passes, and
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
    """Newton on the packed state, its backtracked steps and its exits."""

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
    def uphill(cls, monkeypatch, states=None):
        # every step after the one from x = 0, which is the solve at the
        # bare couplings, is three times Newton's step backwards, so every
        # trial raises the residual; ``states`` collects the states seen
        def backwards(base, x, jac):
            if states is not None:
                states.append(x.copy())
            jac[np.any(x != 0.0, axis=-1)] *= -1.0 / 3.0
        cls.fault(monkeypatch, backwards)

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
        from hfs.steady import (_TRACE_ROW, _affine_split, _newton_stack,
                                _newton_system)
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
            jac = _newton_system(base, *_newton_stack(base, bare, eps),
                                 x[None])[3][0]
            assert np.max(np.abs(jac - ref)) <= 1e-6 * np.max(np.abs(ref))

    @staticmethod
    def count_factorizations(monkeypatch):
        # (matrices factored, solutions) of every call of the solver's
        # batched LAPACK solve
        solve, calls = hfs.steady._gesv, []

        def counted(a, b):
            out = solve(a, b)
            calls.append((len(a), out[..., 0].copy()))
            return out

        monkeypatch.setattr(hfs.steady, "_gesv", counted)
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

    @pytest.mark.parametrize("fault", ["raise", "nan", "uphill"])
    def test_fallback_after_failed_step(self, params, monkeypatch, fault):
        # the first Newton step is sound; the second is singular, not
        # finite, or three times Newton's step backwards.  A singular or
        # non-finite step rejects its trial at once, which is tried again
        # at half the step before it, and Newton goes on from there to the
        # same fixed point.  The backward step's trial raises the residual
        # a pass later, and so does every shortening of that step, until
        # it falls below fp_tol and the point stops at the iterate the
        # step was taken from
        drive = hfs.Drive(omega=20.0, delta_c=-0.4 * params.delta_u,
                          ndd_enabled=True)
        ref = hfs.solve_selfconsistent(params, drive)
        states = []

        def faulty(base, x, jac):
            states.append(x[0].copy())
            if len(states) == 3:
                if fault == "raise":
                    jac[:] = 0.0
                elif fault == "nan":
                    jac[:] = np.nan
                else:
                    jac *= -1.0 / 3.0

        self.fault(monkeypatch, faulty)
        steps = self.count_factorizations(monkeypatch)
        res = hfs.solve_selfconsistent(params, drive)
        if fault == "uphill":
            assert not res.converged
            assert res.iterations == len(states) - 1 < 60
            assert np.array_equal(pack(res.rho), states[2])
            trial = steps[2][1][0]
            for x in states[3:]:
                assert np.array_equal(x, states[2] - trial)
                trial = 0.5 * trial
            return
        assert res.converged
        assert res.iterations > ref.iterations
        assert np.max(np.abs(res.rho - ref.rho)) < 1e-12
        # the last accepted iterate, and the step taken from it
        assert np.array_equal(states[3], states[1] - 0.5 * steps[1][1][0])

    @pytest.mark.parametrize("damping", [0.5, 1.0])
    def test_damping_shortens_rejected_steps(self, params, monkeypatch,
                                             damping):
        # every trial after the solve at the bare couplings raises the
        # residual, so each is tried again from that solve at damping
        # times its step.  At 0.5 the step falls below fp_tol, at 1.0 the
        # same trial repeats until max_iters; the solve ends unconverged
        # at its last accepted iterate, the bare solve, and raises nothing
        drive = hfs.Drive(omega=5.0, delta_c=0.2 * params.delta_u,
                          ndd_enabled=True)
        opts = hfs.SolveOptions(max_iters=100, damping=damping)
        states = []
        self.uphill(monkeypatch, states)
        steps = self.count_factorizations(monkeypatch)
        res = hfs.solve_selfconsistent(params, drive, opts)
        assert not res.converged and res.message
        # every pass after the one from x = 0 counts
        assert res.iterations == len(states) - 1
        if damping == 1.0:
            assert res.iterations == opts.max_iters
        else:
            assert res.iterations < opts.max_iters
        bare_solve = states[1][0]
        assert np.array_equal(pack(res.rho), bare_solve)
        trial = steps[1][1][0]
        for x in states[2:]:
            assert np.array_equal(x[0], bare_solve - trial)
            trial = damping * trial
        assert np.max(np.abs(trial)) < opts.fp_tol or damping == 1.0

    def test_max_iters_bounds_fallback(self, params, monkeypatch):
        # every pass counts toward max_iters, a retried trial too
        drive = hfs.Drive(omega=5.0, delta_c=0.2 * params.delta_u,
                          ndd_enabled=True)
        states = []
        self.uphill(monkeypatch, states)
        res = hfs.solve_selfconsistent(params, drive,
                                       hfs.SolveOptions(max_iters=3))
        assert not res.converged
        assert res.iterations == 3 and len(states) == 4
        assert np.array_equal(pack(res.rho), states[1][0])


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
    """The stacked solver against independent oracles, and its exits
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
        from hfs.steady import _generators
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = random_params(rng)
            grid = rng.uniform(-4.0, 4.0, 16) * p.delta_u
            rabi = rng.normal(scale=10.0, size=(16, 4))
            stack = _generators(p, grid, rabi)
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
        # the generators without drive along the detuning axis, one product
        # of the coefficients with the basis, equal the ones rhs_verbatim
        # builds at zero detuning plus the detuning slice, bit for bit, on
        # the parameter sets behind the paper grids; this keeps the sweep
        # tables' bytes
        from hfs.config import parse_config
        from hfs.steady import _affine_split
        doc = parse_config(CONFIG.read_text())
        p = {"sodium_d1": hfs.sodium_d1(),
             "cyclic": hfs.sodium_d1_cyclic_splittings(),
             "sweep_cfg": doc.system_params()}[which]
        grid = np.asarray(doc.sweep_spec(p).delta_c)
        assert len(grid) == 2001
        assert np.array_equal(_affine_split(p, hfs.Drive(omega=0.0), grid)[0],
                              generator_build_stack(p, grid))

    def test_detuning_stack_round_off_on_random_params(self):
        # with rates and splittings summed in another order the two builds
        # may differ, by round-off of the detuning scale only
        from hfs.steady import _affine_split
        rng = np.random.default_rng(15)
        for _ in range(200):
            p = random_params(rng, dark=rng.choice([None, 2, 3, 4]))
            grid = rng.uniform(-5.0, 5.0, 8) * p.delta_u
            scale = max(np.max(np.abs(grid + p.delta_u)),
                        p.delta_g + p.delta_e)
            diff = (_affine_split(p, hfs.Drive(omega=0.0), grid)[0]
                    - generator_build_stack(p, grid))
            assert np.max(np.abs(diff)) <= 4 * np.spacing(scale)

    def test_nonfinite_step_is_backtracked(self, params, monkeypatch):
        # the first point's second Newton step after the solve at the bare
        # couplings is not finite: that trial alone is tried again closer
        # to the last accepted iterate, and Newton takes the point from
        # there to the same fixed point; the other points keep their bytes
        grid = np.linspace(-0.5, 0.5, 7) * params.delta_u
        ref = hfs.solve_grid(params, 5.0, grid, ndd_enabled=True)
        moved = []

        def faulty(base, x, jac):
            # the step from x = 0 is the solve at the bare couplings
            if x.any():
                moved.append(len(x))
                if len(moved) == 2:
                    jac[0] = np.nan

        TestNewton.fault(monkeypatch, faulty)
        sol = hfs.solve_grid(params, 5.0, grid, ndd_enabled=True)
        assert moved[:2] == [len(grid)] * 2
        assert sol.converged.all() and not sol.singular.any()
        assert sol.iterations[0] > ref.iterations[0]
        assert np.array_equal(sol.iterations[1:], ref.iterations[1:])
        assert sol.x[1:].tobytes() == ref.x[1:].tobytes()
        assert np.max(np.abs(sol.x - ref.x)) <= 1e-12

    @pytest.mark.parametrize("ndd", [False, True])
    def test_failed_gate_marks_its_point_singular(self, params, monkeypatch,
                                                  ndd):
        # the stacked system of the middle point is corrupted, so its
        # solution (with the correction on, the fixed point Newton settles
        # at) fails the residual gate of the true generator: that point is
        # marked singular, and the others keep their bytes
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
        assert np.flatnonzero(sol.singular).tolist() == [2]
        assert np.isnan(sol.x[2]).all() and np.isnan(sol.residual[2])
        others = [0, 1, 3, 4]
        for name in ("x", "converged", "iterations", "residual"):
            assert (getattr(sol, name)[others].tobytes()
                    == getattr(ref, name)[others].tobytes())

    def test_points_leaving_at_different_iterates_match_alone(
            self, monkeypatch):
        # one stack whose points leave the lockstep at different iterates by
        # every exit: settled after 6 full steps, settled after 17 passes
        # with backtracked ones among them, out of iterations, stopped when
        # a backtracked step fell below fp_tol (its Newton matrices scaled
        # by -1e5, so that every step is a tiny one backwards), stopped at
        # the solve at the bare couplings (its Newton step there not
        # finite), and failed at the second Newton step (its couplings
        # forced to zero).  Each point's fields equal those of the point
        # solved alone, bit for bit
        from hfs.config import parse_config
        from hfs.steady import _affine_split, _lockstep_newton, _newton_stack
        p = parse_config(CONFIG.read_text()).system_params()
        p = p.replace(number_density=1.5e22)
        grid = np.array([0.0, 0.02, 0.025, 0.1, 0.11, 0.12]) * p.delta_u
        drive = hfs.Drive(omega=100.0, ndd_enabled=True)
        opts = hfs.SolveOptions(max_iters=20)
        base, bare, eps = _affine_split(p, drive, grid)
        newton_system, passes = hfs.steady._newton_system, []

        def faulty(stack, bare, eps, x):
            out = newton_system(stack, bare, eps, x)
            moved = np.any(x != 0.0, axis=-1)
            out[3][moved & np.all(stack == base[3], axis=(1, 2))] *= -1e5
            out[3][moved & np.all(stack == base[4], axis=(1, 2))] = np.nan
            doomed = np.all(stack == base[5], axis=(1, 2))
            if doomed.any():
                passes.append(1)
                if len(passes) >= 3:
                    out[0][doomed] = 0.0
            return out

        monkeypatch.setattr(hfs.steady, "_newton_system", faulty)
        stack = _lockstep_newton(base, *_newton_stack(base, bare, eps), opts)
        _, _, converged, iterations, failed = stack
        assert iterations.tolist() == [6, 17, 20, 18, 0, 1]
        assert converged.tolist() == [True, True] + [False] * 4
        assert np.flatnonzero(failed).tolist() == [5]
        for k in range(len(grid)):
            passes.clear()
            alone = _lockstep_newton(
                base[k:k + 1], *_newton_stack(base[k:k + 1], bare, eps), opts)
            for got, ref in zip(stack, alone):
                assert got[k:k + 1].tobytes() == ref.tobytes()

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
        assert sol.converged.tolist() == [True, True] + [False] * 4
        assert sol.iterations.tolist() == [6, 17, 20, 18, 0, 0]
        # the points that stop unconverged hold an accepted iterate: the
        # one stopped at the bare solve holds that solve
        point = drive.replace(delta_c=grid[4])
        want = hfs.solve_linear_steady(p, point, bare_rabi(p, point))
        assert np.max(np.abs(sol.x[4] - pack(want))) <= 1e-12

    def test_high_density_picard_rows_converge(self):
        # at 100x the paper's density, the 13 rows on which Newton's full
        # step stalled and the damped-Picard fallback spent max_iters
        # without settling (all but 0.05 delta_u) settle by backtracked
        # Newton steps, each at its own couplings to round-off
        from hfs.config import parse_config
        p = parse_config(CONFIG.read_text()).system_params()
        p = p.replace(number_density=1.5e22)
        grid = np.linspace(0.010, 0.070, 13) * p.delta_u
        sol = hfs.solve_grid(p, 100.0, grid, ndd_enabled=True)
        assert sol.converged.all() and not sol.singular.any()
        assert sol.iterations.max() < 40
        for k, dc in enumerate(grid):
            drive = hfs.Drive(omega=100.0, delta_c=dc, ndd_enabled=True)
            assert hfs.residual_norm(p, drive, unpack(sol.x[k])) <= 1e-8

    def test_high_density_rows_pass_the_gate(self):
        # at 100x the paper's density (local-field strength ~39 gamma) a
        # full Newton step fails to lower the residual on some rows, which
        # backtracked steps then settle; nothing raises, every row
        # converges, and every row satisfies the equations at its own
        # couplings
        from hfs.config import parse_config
        p = parse_config(CONFIG.read_text()).system_params()
        p = p.replace(number_density=1.5e22)
        grid = np.linspace(0.0, 0.12, 9) * p.delta_u
        sol = hfs.solve_grid(p, 100.0, grid, ndd_enabled=True)
        assert not sol.singular.any() and sol.converged.all()
        for k, dc in enumerate(grid):
            drive = hfs.Drive(omega=100.0, delta_c=dc, ndd_enabled=True)
            assert hfs.residual_norm(p, drive, unpack(sol.x[k])) <= 1e-8

    def test_system_rows_match_where_build(self):
        # pinned and unpinned points in one stack, against the masked build
        # the copy-and-overwrite one replaced
        from hfs.steady import (_ZERO_ROW_TOL, _couplings, _generators,
                                _system_rows)

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
            stacks.append(_generators(p, grid, rabi))
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


# -- the generators against their pre-change build --------------------------
#
# Before the generators came from one product of eleven coefficients with
# the basis, a stack was built in three steps: the rates contracted with
# their slice of the basis, the detuning broadcast over the coupling-free
# result, and the couplings contracted and added; the solves took the
# coupling-free stack and the couplings.  These copies keep that split for
# the frozen references below and in test_dynamics.py.

def ref_detuning_stack(params, delta_c):
    from hfs.steady import _DETUNING, _RATES, _basis
    basis = _basis()
    rates = [getattr(params, k) for k in _RATES]
    a0 = np.dot(rates, basis[:_DETUNING].reshape(_DETUNING, -1))
    delta = np.asarray(delta_c, dtype=float) + params.delta_u
    return a0.reshape(16, 16) + delta[:, None, None] * basis[_DETUNING]


def ref_with_couplings(base, rabi):
    from hfs.steady import _COUPLINGS, _basis
    per_point = np.dot(rabi.reshape(-1, 4),
                       _basis()[_COUPLINGS].reshape(4, -1))
    return base + per_point.reshape(rabi.shape[:-1] + (16, 16))


def ref_affine_split(params, drive, delta_c):
    from hfs.params import PAIRS
    from hfs.steady import _couplings
    eps = np.zeros(4)
    if drive.ndd_enabled:
        eps_pairs = drive.epsilon_for(params)
        eps = np.array([eps_pairs[p] for p in PAIRS])
    return (ref_detuning_stack(params, delta_c),
            _couplings(bare_rabi(params, drive)), eps)


def ref_solve_stack(base, rabi):
    from hfs.steady import _TRACE_RHS, _apply
    a = ref_with_couplings(base, rabi)
    m, _ = ref_system_rows(a)
    n = len(a)
    try:
        x = np.linalg.solve(m, _TRACE_RHS[:, None])[..., 0]
    except np.linalg.LinAlgError:
        return np.zeros((n, 16)), a, m, np.zeros(n, bool)
    ok = np.isfinite(x).all(axis=-1) & (rabi != 0.0).any(axis=-1)
    x[~ok] = 0.0
    x += np.linalg.solve(m, (_TRACE_RHS - _apply(m, x))[..., None])[..., 0]
    ok &= np.isfinite(x).all(axis=-1)
    x[~ok] = 0.0
    return x, a, m, ok


def ref_solve_one(base, rabi):
    from hfs.steady import _apply, _gate, _singular
    x, a, m, ok = ref_solve_stack(base, rabi)
    if not (ok[0] and _gate(_apply(a, x))[0]):
        raise _singular(rabi, m[0])
    return x[0]


def ref_picard(base, bare, eps, opts, x, iterations):
    from hfs.steady import _PAIR_RE, _rho_max_abs
    for iterations in range(iterations + 1, opts.max_iters + 1):
        x_new = ref_solve_one(base, bare - eps * x[_PAIR_RE])
        change = float(_rho_max_abs(x_new - x))
        x = opts.damping * x_new + (1.0 - opts.damping) * x
        if change < opts.fp_tol:
            return x, True, iterations
    return x, False, iterations


class TestOneContraction:
    """The generators as one product of the coefficients with the basis,
    against the pre-change three-step build, byte for byte."""

    def test_basis_facts(self):
        # every product is exact, and an entry sums rates, splittings and
        # the detuning (at most four of them), or else exactly one coupling
        from hfs.steady import _COUPLINGS, _basis
        basis = _basis().reshape(11, 256)
        assert set(np.unique(basis)) == {-2.0, -1.0, -0.5, 0.0, 1.0, 2.0}
        entered = basis != 0.0
        couplings = entered[_COUPLINGS].sum(axis=0)
        others = entered[:_COUPLINGS.start].sum(axis=0)
        assert couplings.max() == 1 and others.max() == 4
        assert not np.any((couplings > 0) & (others > 0))

    @staticmethod
    def assert_same_build(p, drive, grid):
        # the stack, and each one-point stack, against the pre-change build
        from hfs.steady import _affine_split
        base, bare, _ = ref_affine_split(p, drive, grid)
        want = ref_with_couplings(base, bare)
        assert _affine_split(p, drive, grid)[0].tobytes() == want.tobytes()
        for k in range(len(grid)):
            got = _affine_split(p, drive, grid[k:k + 1])[0]
            assert got.tobytes() == want[k:k + 1].tobytes()

    @pytest.mark.parametrize("omega", [0.5, 5.0, 20.0, 100.0])
    def test_paper_stacks(self, omega):
        # the four 2001-point stacks of demos/sweep.cfg
        from hfs.config import parse_config
        doc = parse_config(CONFIG.read_text())
        p = doc.system_params()
        grid = np.asarray(doc.sweep_spec(p).delta_c)
        assert len(grid) == 2001
        self.assert_same_build(p, hfs.Drive(omega=omega), grid)

    def test_random_and_dark_level_sets(self):
        rng = np.random.default_rng(73)
        for dark in (None, 2, 3, 4) * 5:
            p = random_params(rng, dark)
            omega = float(np.exp(rng.uniform(np.log(0.3), np.log(100.0))))
            grid = rng.uniform(-5.0, 5.0, 9) * p.delta_u
            self.assert_same_build(p, hfs.Drive(omega=omega), grid)

    @pytest.mark.parametrize("case", ["mu13=-0", "omega=0", "omega=-0"])
    def test_signed_and_zero_couplings(self, case):
        # a bare coupling of -0.0 or 0.0 enters its entries alone
        p, omega = hfs.sodium_d1(), 5.0
        if case == "mu13=-0":
            p = p.replace(mu13=-0.0)
        else:
            omega = -0.0 if case == "omega=-0" else 0.0
        grid = np.linspace(-3.0, 3.0, 13) * p.delta_u
        self.assert_same_build(p, hfs.Drive(omega=omega), grid)

    def test_solve_linear_steady_at_arbitrary_couplings(self):
        # solve_linear_steady puts its own couplings into the product; its
        # states and errors against the pre-change one-point solve
        from hfs.steady import _couplings
        rng = np.random.default_rng(79)
        singular = 0
        for k in range(60):
            p = random_params(rng, [None, 2, 3, 4][k % 4])
            drive = hfs.Drive(omega=1.0,
                              delta_c=float(rng.uniform(-3, 3)) * p.delta_u)
            r = rng.normal(scale=10.0, size=4)
            r[rng.random(4) < 0.3] = rng.choice([0.0, -0.0])
            rabi = RabiSet(*r.tolist())
            base = ref_detuning_stack(p, [drive.delta_c])
            try:
                want = unpack(ref_solve_one(base, _couplings(rabi)))
            except hfs.SingularSystem as exc:
                singular += 1
                with pytest.raises(hfs.SingularSystem) as got:
                    hfs.solve_linear_steady(p, drive, rabi)
                assert str(got.value) == str(exc)
                continue
            got = hfs.solve_linear_steady(p, drive, rabi)
            assert got.tobytes() == want.tobytes()
        assert 0 < singular < 60


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
                            _basis)
    rabi = bare - eps * x[:, _PAIR_RE]
    m, kept = ref_system_rows(ref_with_couplings(base, rabi))
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
    from hfs.steady import (_PAIR_RE, SingularSystem, _apply, _gate,
                            _rho_max_abs)

    def own_residual(base, x):
        return _apply(ref_with_couplings(base, bare - eps * x[:, _PAIR_RE]),
                      x)

    base, bare, eps = ref_affine_split(params, drive, delta_c)
    n = len(base)
    if not np.any(eps != 0.0):
        x, a, m, ok = ref_solve_stack(base, bare)
        resid = _apply(a, x)
        return (x, np.ones(n, dtype=bool), np.ones(n, dtype=int),
                _rho_max_abs(resid), ~(ok & _gate(resid)), m)
    x, m, converged, iterations, stalled, failed = ref_lockstep_newton(
        base, bare, eps, opts)
    settled = converged & ~stalled
    for k in np.flatnonzero(stalled):
        try:
            x[k], converged[k], iterations[k] = ref_picard(
                base[k:k + 1], bare, eps, opts, x[k], iterations[k])
        except SingularSystem:
            failed[k] = True
    live = np.flatnonzero(~failed)
    resid = own_residual(base[live], x[live])
    keep = settled[live]
    failed[live[keep & ~_gate(resid)]] = True
    redo = live[~keep]
    if redo.size:
        x_redo, a, m[redo], ok = ref_solve_stack(
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
        assert_same_point(params, hfs.Drive(omega=omega, delta_c=float(dc),
                                            ndd_enabled=True), opts)
    return sol


def newton_alone(params, omega, grid, opts):
    """The points on which the reference lockstep never stalled, and of
    those the ones it settled or failed, where the reference returned its
    own Newton iterate or none.  Each point is run alone, as the reference
    solved again alone every point its stack failed (a singular matrix
    failed the whole stack there)."""
    base, bare, eps = ref_affine_split(
        params, hfs.Drive(omega=omega, ndd_enabled=True), grid)
    alone = [ref_lockstep_newton(base[k:k + 1], bare, eps, opts)
             for k in range(len(grid))]
    settled, stalled, failed = (np.array([out[i][0] for out in alone])
                                for i in (2, 4, 5))
    return ~stalled, ~stalled & (settled | failed)


def grid_row(sol, k):
    """Row ``k`` of a GridSolution as a one-point GridSolution."""
    from dataclasses import fields
    return hfs.steady.GridSolution(**{
        f.name: getattr(sol, f.name)[k:k + 1] for f in fields(sol)})


def assert_matches_reference(params, omega, grid, opts):
    """solve_grid and solve_selfconsistent against the reference, bytes
    and errors alike, at the points where its Newton lockstep alone
    settled or failed.  Elsewhere the reference continued by Picard or
    solved again at the couplings reached, and a point must equal itself
    solved alone, bit for bit, pass the residual gate at its own couplings
    where it converged, and lie within 1e-9 of the reference where both
    converged.  Returns the grid solution and the reference's."""
    sol = hfs.solve_grid(params, omega, grid, True, opts)
    ref = ref_solve_grid(params, omega, grid, opts)
    _, same = newton_alone(params, omega, grid, opts)
    for k, dc in enumerate(grid):
        drive = hfs.Drive(omega=omega, delta_c=float(dc), ndd_enabled=True)
        if same[k]:
            assert_same_bytes(grid_row(sol, k), grid_row(ref, k))
            assert_same_point(params, drive, opts)
            continue
        alone = hfs.solve_grid(params, omega, grid[k:k + 1], True, opts)
        assert_same_bytes(grid_row(sol, k), alone)
        assert not sol.singular[k]
        res = hfs.solve_selfconsistent(params, drive, opts)
        assert np.array_equal(pack(res.rho), sol.x[k])
        assert (res.converged, res.iterations, res.residual) == (
            sol.converged[k], sol.iterations[k], sol.residual[k])
        if sol.converged[k]:
            assert hfs.residual_norm(params, drive, res.rho) <= 1e-8
        if sol.converged[k] and ref.converged[k]:
            assert np.max(np.abs(sol.x[k] - ref.x[k])) <= 1e-9
    return sol, ref


def assert_same_point(params, drive, opts):
    """solve_selfconsistent against the reference at one drive, bytes and
    errors alike."""
    try:
        ref = ref_solve_selfconsistent(params, drive, opts)
    except hfs.SingularSystem as exc:
        with pytest.raises(hfs.SingularSystem) as got:
            hfs.solve_selfconsistent(params, drive, opts)
        assert str(got.value) == str(exc)
        return
    assert_same_bytes(hfs.solve_selfconsistent(params, drive, opts), ref)


def assert_same_lockstep(params, omega, grid, opts):
    """The lockstep on the whole stack against each one-point stack, all
    fields bit for bit, and against the reference lockstep on the
    pre-change split wherever that never stalled: the state where it
    settled or failed (where it ran out of iterations it returned its
    unchecked last step, the lockstep its last accepted iterate), and
    every other field."""
    from hfs.steady import _affine_split, _lockstep_newton, _newton_stack
    drive = hfs.Drive(omega=omega, ndd_enabled=True)
    a_bare, bare, eps = _affine_split(params, drive, grid)
    base = ref_affine_split(params, drive, grid)[0]
    got = _lockstep_newton(a_bare, *_newton_stack(a_bare, bare, eps), opts)
    x, m, converged, iterations, _, failed = ref_lockstep_newton(
        base, bare, eps, opts)
    newton, same = newton_alone(params, omega, grid, opts)
    assert got[0][same].tobytes() == x[same].tobytes()
    for a, b in zip(got[1:], (m, converged, iterations, failed)):
        assert a.dtype == b.dtype and a[newton].tobytes() == b[newton].tobytes()
    for k in range(len(grid)):
        alone = _lockstep_newton(
            a_bare[k:k + 1], *_newton_stack(a_bare[k:k + 1], bare, eps), opts)
        for a, b in zip(got, alone):
            assert a.dtype == b.dtype and a[k:k + 1].tobytes() == b.tobytes()


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
    def test_high_density_stalls_to_picard(self, density):
        # the reference's Newton stalls on some points, which Picard
        # continued, some of them up to max_iters; backtracked Newton
        # steps continue them here, and settle every point Picard settled
        # and the ones it left unsettled (at 300x and max_iters 500, one
        # settles in 7 iterations where Picard took 68)
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
        stalled = 0
        for max_iters in (1, 5, 40, 500):
            opts = hfs.SolveOptions(max_iters=max_iters)
            sol, ref = assert_matches_reference(p, 100.0, grid, opts)
            assert not ref.converged.all()
            assert sol.converged[ref.converged].all()
            stalled += np.sum(~newton_alone(p, 100.0, grid, opts)[0])
            assert_same_lockstep(p, 100.0, grid, opts)
        assert stalled

    @pytest.mark.parametrize("max_iters", [1, 2, 3, 4, 5])
    def test_max_iters_caps(self, max_iters):
        p = hfs.sodium_d1()
        grid = np.linspace(-1.0, 1.0, 5) * p.delta_u
        opts = hfs.SolveOptions(max_iters=max_iters)
        for omega in (0.5, 5.0, 100.0):
            assert_matches_reference(p, omega, grid, opts)
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
        # point; without drive every coupling vanishes
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
        # unconverged at that solve, its last accepted iterate, where the
        # reference's Picard took over
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
        sol, ref = assert_matches_reference(p, 5.0, grid, opts)
        assert not sol.converged.any()
        assert ref.converged.all() == (max_iters == 500)
        for k, dc in enumerate(grid):
            drive = hfs.Drive(omega=5.0, delta_c=dc)
            want = hfs.solve_linear_steady(p, drive, bare_rabi(p, drive))
            assert np.max(np.abs(sol.x[k] - pack(want))) <= 1e-12
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


# -- the batched LAPACK solve -----------------------------------------------

def detuning_entries(stack, target):
    """The generators of ``stack`` (with or without their couplings) whose
    detuning entries equal those of the generator ``target``."""
    from hfs.steady import _DETUNING, _basis
    entries = _basis()[_DETUNING] != 0.0
    return np.all(stack[:, entries] == target[entries], axis=-1)


class TestBatchedSolve:
    """numpy's private gufunc behind every solve: ``np.linalg.solve``'s
    bytes, and a singular matrix failing its own point only."""

    @staticmethod
    def systems(n):
        # (n, 16, 16) system matrices of the paper grid and Newton
        # matrices at random density matrices
        from hfs.config import parse_config
        from hfs.steady import (_affine_split, _newton_stack, _newton_system,
                                _system_rows)
        p = parse_config(CONFIG.read_text()).system_params()
        drive = hfs.Drive(omega=20.0, ndd_enabled=True)
        a_bare, bare, eps = _affine_split(
            p, drive, np.linspace(-5.0, 5.0, n) * p.delta_u)
        x = random_density_states(np.random.default_rng(n), n)
        jac = _newton_system(a_bare, *_newton_stack(a_bare, bare, eps), x)[3]
        return _system_rows(a_bare)[0], jac

    @pytest.mark.parametrize("n", [1, 401])
    def test_matches_linalg_solve(self, n):
        # a change in numpy's private kernel shows up here first
        from hfs.steady import _TRACE_RHS, _gesv
        rng = np.random.default_rng(83)
        for m in self.systems(n):
            for b in (_TRACE_RHS[:, None], rng.normal(size=(n, 16, 1))):
                assert (_gesv(m, b).tobytes()
                        == np.linalg.solve(m, b).tobytes())

    def test_singular_matrix_fails_its_own_row(self):
        from hfs.steady import _TRACE_RHS, _gesv
        for m in self.systems(9):
            m[4] = 0.0
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(m, _TRACE_RHS[:, None])
            with np.errstate(all="ignore"):
                x = _gesv(m, _TRACE_RHS[:, None])[..., 0]
            assert np.isnan(x[4]).all()
            others = np.delete(np.arange(9), 4)
            assert np.isfinite(x[others]).all()
            assert (x[others].tobytes() == np.linalg.solve(
                m[others], _TRACE_RHS[:, None])[..., 0].tobytes())

    @pytest.mark.parametrize("ndd", [False, True])
    def test_error_state_restored(self, ndd):
        # the solves ignore floating-point errors, and give the caller's
        # error state back on every exit, a raise included
        p = hfs.sodium_d1().replace(gamma31=0.0, gamma32=0.0, gamma41=0.0,
                                    gamma42=0.0)
        with np.errstate(all="warn"):
            state = np.geterr()
            sol = hfs.solve_grid(p, 2.0, np.linspace(-2.0, 2.0, 5), ndd)
            assert sol.singular.all() and np.geterr() == state
            with pytest.raises(hfs.SingularSystem):
                hfs.solve_selfconsistent(p, hfs.Drive(omega=2.0,
                                                      ndd_enabled=ndd))
            assert np.geterr() == state

    @pytest.mark.parametrize("when", ["bare", "iterate"])
    def test_singular_newton_matrix_in_a_regular_stack(self, monkeypatch,
                                                       when):
        # one point's Newton matrix is singular, at the solve at the bare
        # couplings (the point fails, and alone it is singular) or at its
        # iterates (it stops at once, unconverged, at the solve at the bare
        # couplings): the other points settle in the stack with the bytes
        # they have alone
        from hfs.steady import _affine_split
        p = hfs.sodium_d1()
        grid = np.linspace(-1.0, 1.0, 7) * p.delta_u
        drive = hfs.Drive(omega=5.0, ndd_enabled=True)
        target = _affine_split(p, drive, grid[2:3])[0][0]

        def faulty(newton_system):
            def system(base, bare, eps, x):
                out = newton_system(base, bare, eps, x)
                moved = np.any(x != 0.0, axis=-1)
                hit = detuning_entries(base, target) & (
                    moved if when == "iterate" else ~moved)
                out[3][hit] = 0.0
                return out
            return system

        monkeypatch.setattr(hfs.steady, "_newton_system",
                            faulty(hfs.steady._newton_system))
        monkeypatch.setitem(globals(), "ref_newton_system",
                            faulty(ref_newton_system))
        opts = hfs.SolveOptions()
        sol, _ = assert_matches_reference(p, 5.0, grid, opts)
        assert sol.singular.tolist() == [when == "bare" if k == 2 else False
                                         for k in range(len(grid))]
        others = np.delete(np.arange(len(grid)), 2)
        assert sol.converged[others].all()
        if when == "iterate":
            point = drive.replace(delta_c=grid[2])
            want = hfs.solve_linear_steady(p, point, bare_rabi(p, point))
            assert not sol.converged[2] and sol.iterations[2] == 0
            assert np.max(np.abs(sol.x[2] - pack(want))) <= 1e-12
        for k in others:
            one = hfs.solve_grid(p, 5.0, grid[k:k + 1], True, opts)
            assert_same_bytes(grid_row(sol, k), one)

    def test_singular_system_in_a_regular_stack(self, monkeypatch):
        # NDD off: one point's system matrix is singular; it alone is
        # marked singular, and the other points keep the bytes they have
        # alone
        from hfs.steady import _affine_split
        p = hfs.sodium_d1()
        grid = np.linspace(-1.0, 1.0, 7) * p.delta_u
        target = _affine_split(p, hfs.Drive(omega=5.0), grid[2:3])[0][0]
        system_rows = hfs.steady._system_rows

        def zeroed(a):
            m, kept = system_rows(a)
            m[detuning_entries(a, target)] = 0.0
            return m, kept

        monkeypatch.setattr(hfs.steady, "_system_rows", zeroed)
        sol = hfs.solve_grid(p, 5.0, grid)
        assert np.flatnonzero(sol.singular).tolist() == [2]
        with pytest.raises(hfs.SingularSystem):
            hfs.solve_selfconsistent(p, hfs.Drive(omega=5.0,
                                                  delta_c=grid[2]))
        for k in np.delete(np.arange(len(grid)), 2):
            one = hfs.solve_grid(p, 5.0, grid[k:k + 1])
            assert_same_bytes(grid_row(sol, k), one)


# -- the generators are affine in the packed state --------------------------

def random_density_states(rng, n):
    """(n, 16) packed states of random density matrices."""
    z = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
    rho = z @ z.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
    return pack(np.moveaxis(rho, 0, -1)).T


class TestAffineGenerator:
    """``m(x) = m(0) - x @ G`` against the rebuild at the state's couplings,
    byte for byte."""

    def test_basis_facts(self):
        # what makes the affine form exact: every eps_q * B_q is exact, at
        # most one coupling enters an entry, and nothing else enters there
        from hfs.steady import _COUPLINGS, _basis
        basis = _basis()
        couplings = basis[_COUPLINGS]
        assert set(np.unique(couplings)) == {-2.0, -1.0, 0.0, 1.0, 2.0}
        entered = couplings != 0.0
        assert entered.sum(axis=0).max() == 1
        assert not basis[:_COUPLINGS.start][:, entered.any(axis=0)].any()

    @staticmethod
    def assert_affine(p, omega, grid, rng, drive_kw=None):
        # the Newton system at states of the stack (zero, signed zero, the
        # solved states, random density matrices) against the rebuild and
        # against the pre-change system, and the full generator of the
        # relaxation against the rebuild
        from hfs.steady import (_PAIR_RE, _affine_split, _newton_stack,
                                _newton_system, _state_linear, _system_rows)
        drive = hfs.Drive(omega=omega, ndd_enabled=True, **(drive_kw or {}))
        a_bare, bare, eps = _affine_split(p, drive, grid)
        base = ref_affine_split(p, drive, grid)[0]
        stack, rows = _newton_stack(a_bare, bare, eps)
        g = _state_linear(eps)
        n = len(base)
        solved = hfs.solve_grid(p, omega, grid, True).x
        for x in (np.zeros((n, 16)), np.full((n, 16), -0.0),
                  np.where(np.isnan(solved), 0.0, solved),
                  random_density_states(rng, n),
                  10.0 * rng.normal(size=(n, 16))):
            r = bare - eps * x[:, _PAIR_RE]
            got = _newton_system(a_bare, stack, rows, x)
            assert got[1].tobytes() == _system_rows(
                ref_with_couplings(base, r))[0].tobytes()
            for a, b in zip(got, ref_newton_system(base, bare, eps, x)):
                assert a.tobytes() == b.tobytes()
            assert ((a_bare - (x @ g).reshape(n, 16, 16)).tobytes()
                    == ref_with_couplings(base, r).tobytes())

    @pytest.mark.parametrize("omega", [0.5, 5.0, 20.0, 100.0])
    def test_paper_stacks(self, omega):
        from hfs.config import parse_config
        p = parse_config(CONFIG.read_text()).system_params()
        grid = np.linspace(-5.0, 5.0, 41) * p.delta_u
        self.assert_affine(p, omega, grid, np.random.default_rng(47))

    def test_dark_level_parameter_sets(self):
        rng = np.random.default_rng(53)
        for dark in (None, 2, 3, 4) * 2:
            p = random_params(rng, dark)
            omega = float(np.exp(rng.uniform(np.log(0.3), np.log(60.0))))
            grid = np.sort(rng.uniform(-3.0, 3.0, 7)) * p.delta_u
            self.assert_affine(p, omega, grid, rng)

    def test_pinned_and_signed_zero_epsilon(self):
        p = hfs.sodium_d1()
        grid = np.linspace(-2.0, 2.0, 9) * p.delta_u
        rng = np.random.default_rng(59)
        for eps in ({"13": -0.0, "14": 0.0, "23": -0.0, "24": 0.0},
                    {"13": 3.0, "14": 0.0, "23": 7.5, "24": 1.25}):
            self.assert_affine(p, 5.0, grid, rng, {"epsilon": eps})

    @pytest.mark.parametrize("level", [2, 3, 4])
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_decay_rate_near_the_pinning_threshold(self, level, factor):
        # a level cut off from the drive whose decay rate is half or twice
        # _ZERO_ROW_TOL times the matrix scale: pinned, or kept by a hair
        from hfs.steady import _ZERO_ROW_TOL, _affine_split, _system_rows
        rate = {2: "gamma42", 3: "gamma31", 4: "gamma41"}[level]
        rng = np.random.default_rng(61 + level)
        p = random_params(rng, level)
        grid = np.linspace(-2.0, 2.0, 9) * p.delta_u
        a = _affine_split(p, hfs.Drive(omega=20.0), grid)[0]
        scale = np.abs(a).max(axis=(-2, -1))
        p = p.replace(**{rate: factor * _ZERO_ROW_TOL * float(scale.min())})
        a = _affine_split(p, hfs.Drive(omega=20.0), grid)[0]
        kept = _system_rows(a)[1][:, level - 1]
        assert kept.any() == (factor > 1.0)
        self.assert_affine(p, 20.0, grid, rng)

    @staticmethod
    def assert_bare_pins(base, bare, eps, x):
        # the Newton system's m at states x is the generator at their
        # couplings with the trace row and the rows pinned at the bare
        # couplings; returns whether a rebuild at x pins other rows
        from hfs.steady import (_PAIR_RE, _PINNED_ROWS, _TRACE_ROW,
                                _newton_stack, _newton_system, _system_rows)
        r = bare - eps * x[:, _PAIR_RE]
        a_bare = ref_with_couplings(base, bare)
        kept = _system_rows(a_bare)[1]
        m = _newton_system(a_bare, *_newton_stack(a_bare, bare, eps), x)[1]
        want = ref_with_couplings(base, r)
        want[:, 0] = _TRACE_ROW
        want[:, 1:4] = np.where(kept[:, 1:4, None], want[:, 1:4], _PINNED_ROWS)
        assert m.tobytes() == want.tobytes()
        return not np.array_equal(
            kept, _system_rows(ref_with_couplings(base, r))[1])

    def test_pinned_rows_taken_at_the_bare_couplings(self):
        # a decay rate between _ZERO_ROW_TOL times the matrix scale at the
        # bare couplings and at the solved state's: a rebuild at the state
        # keeps a row that the bare couplings pin.  The Newton system keeps
        # the bare pattern, so one system serves the whole Newton run
        from hfs.steady import _PAIR_RE, _ZERO_ROW_TOL
        p = random_params(np.random.default_rng(67), 3)
        drive = hfs.Drive(omega=60.0, delta_c=0.0, ndd_enabled=True)
        base, bare, eps = ref_affine_split(p, drive, np.zeros(1))
        x = pack(hfs.solve_selfconsistent(p, drive).rho)[None]
        lo, hi = sorted(
            np.abs(ref_with_couplings(base, c)).max()
            for c in (bare, bare - eps * x[:, _PAIR_RE]))
        p = p.replace(gamma31=_ZERO_ROW_TOL * float(np.sqrt(lo * hi)))
        base, bare, eps = ref_affine_split(p, drive, np.zeros(1))
        x = pack(hfs.solve_selfconsistent(p, drive).rho)[None]
        assert self.assert_bare_pins(base, bare, eps, x)

    def test_pinned_rows_at_states_off_the_solve(self):
        # a dark level with pinned nonzero local-field strengths: at states
        # whose coherences with that level are not zero (no Newton iterate
        # reaches one), its rows stay pinned
        rng = np.random.default_rng(71)
        p = random_params(rng, 3)
        drive = hfs.Drive(omega=5.0, ndd_enabled=True,
                          epsilon={"13": 2.0, "14": 0.5, "23": 1.5,
                                   "24": 0.0})
        base, bare, eps = ref_affine_split(
            p, drive, np.linspace(-1.0, 1.0, 5) * p.delta_u)
        assert self.assert_bare_pins(base, bare, eps,
                                     random_density_states(rng, 5))
