import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from scipy.linalg._matfuncs_expm import pick_pade_structure

import hfs
from hfs.cli import run_cli
from hfs.dynamics import (TRAJECTORY_CSV_HEADER, Trajectory, _affine_rhs,
                          _expm, write_trajectory_csv)
from hfs.identities import two_level_reduction
from hfs.model import ground_state, pack, unpack
from hfs.params import PAIRS, bare_rabi, effective_rabi
from hfs.steady import (_COUPLINGS, _PAIR_RE, SteadyResult, _affine_split,
                        _basis, _rho_max_abs, generator_matrix)

from test_steady import random_params, ref_affine_split, ref_with_couplings


@pytest.fixture
def params():
    return hfs.sodium_d1()


def exact_samples(params, drive, rho0, t):
    """``expm(A t) x0`` at each time, one ``scipy.linalg.expm`` per time with
    ``A`` from ``generator_matrix``: the oracle of the exact route."""
    a = generator_matrix(params, drive, bare_rabi(params, drive))
    x0 = pack(rho0)
    return np.array([scipy.linalg.expm(a * ti) @ x0 for ti in t])


def _mixed_state():
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    rho[3, 0], rho[0, 3] = 0.05 + 0.02j, 0.05 - 0.02j
    return rho


# (params, drive, rho0, t_end) of flows the default route propagates exactly
EXACT_CASES = {
    "demo_5": (hfs.sodium_d1(),
               hfs.Drive(omega=5.0, delta_c=0.5 * hfs.sodium_d1().delta_u),
               hfs.ground_state(), 5.0),
    "demo_50": (hfs.sodium_d1(),
                hfs.Drive(omega=5.0, delta_c=0.5 * hfs.sodium_d1().delta_u),
                hfs.ground_state(), 50.0),
    "two_level": (two_level_reduction(), hfs.Drive(omega=1.0, delta_c=0.3),
                  hfs.ground_state(), 20.0),
    "zero_drive": (hfs.sodium_d1(), hfs.Drive(omega=0.0), _mixed_state(),
                   10.0),
    "pinned_zero_eps": (hfs.sodium_d1(),
                        hfs.Drive(omega=5.0, delta_c=-8.0, ndd_enabled=True,
                                  epsilon=dict.fromkeys(PAIRS, 0.0)),
                        hfs.ground_state(), 10.0),
}


@pytest.fixture
def no_integrator(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("solve_ivp called")
    monkeypatch.setattr(scipy.integrate, "solve_ivp", never)


class TestEvolve:

    def test_trace_and_hermiticity_along_trajectory(self, params):
        drive = hfs.Drive(omega=5.0, delta_c=10.0)
        traj = hfs.evolve(params, drive, hfs.ground_state(), t_end=20.0)
        for r in traj.rho:
            assert abs(np.trace(r).real - 1.0) < 1e-8
            assert np.max(np.abs(r - r.conj().T)) == 0.0

    def test_short_time_expansion(self, params):
        # rho(dt) ~ rho0 + dt * rhs(rho0) for small dt; the grid keeps both
        # ends however short the horizon
        drive = hfs.Drive(omega=2.0, delta_c=5.0)
        dt = 1e-4
        traj = hfs.evolve(params, drive, hfs.ground_state(), t_end=dt)
        expect = hfs.ground_state() + dt * hfs.rhs_verbatim(
            params, drive, hfs.ground_state())
        assert np.max(np.abs(traj.final - expect)) < 1e-6
        assert len(traj) >= 2 and traj.t[0] == 0.0 and traj.t[-1] == dt

    def test_t_eval_grid_respected(self, params, no_integrator):
        drive = hfs.Drive(omega=1.0)
        for grid in (np.linspace(0.0, 5.0, 11), [0.25, 1.0, 3.5, 5.0]):
            traj = hfs.evolve(params, drive, hfs.ground_state(), t_end=5.0,
                              t_eval=grid)
            assert np.array_equal(traj.t, grid) and traj.t is not grid
            got = pack(np.moveaxis(traj.rho, 0, -1)).T
            ref = exact_samples(params, drive, hfs.ground_state(), grid)
            assert np.max(np.abs(got - ref)) <= 1e-12

    @pytest.mark.parametrize("case", list(EXACT_CASES))
    def test_exact_route_matches_per_time_expm(self, no_integrator, case):
        p, drive, rho0, t_end = EXACT_CASES[case]
        traj = hfs.evolve(p, drive, rho0, t_end=t_end)
        got = pack(np.moveaxis(traj.rho, 0, -1)).T
        ref = exact_samples(p, drive, rho0, traj.t)
        assert np.max(np.abs(got - ref)) <= 1e-12
        # the uniform grid from exactly 0 to exactly t_end, no step longer
        # than one over the generator's 1-norm
        norm = np.linalg.norm(generator_matrix(p, drive, bare_rabi(p, drive)),
                              1)
        assert traj.t[0] == 0.0 and traj.t[-1] == t_end
        assert np.max(np.diff(traj.t)) <= (1 + 1e-12) / norm

    def test_matches_expm_for_frozen_linear_problem(self, params):
        # local-field off: the flow is linear and the default route is exact,
        # so the integrator is the one under test, sampled at the exact
        # route's times, within ten times its relative tolerance
        drive = hfs.Drive(omega=5.0, delta_c=30.0)
        exact = hfs.evolve(params, drive, hfs.ground_state(), t_end=10.0)
        for rtol, atol in ((1e-8, 1e-10), (1e-10, 1e-12)):
            rk = hfs.evolve(params, drive, hfs.ground_state(), t_end=10.0,
                            rtol=rtol, atol=atol, t_eval=exact.t,
                            method="DOP853")
            assert np.array_equal(rk.t, exact.t)
            assert np.max(np.abs(rk.rho - exact.rho)) < 10 * rtol

    def test_invalid_arguments(self, params, no_integrator):
        # rejected before integrating: an infinite or nan t_end would never
        # return, so the integrator must not be reached at all, and a
        # finite t_end whose step count t_end * ||A||_1 overflows is
        # rejected before its samples are allocated
        drive = hfs.Drive(omega=1.0)
        inf, nan = float("inf"), float("nan")
        for t_end in (0.0, -1.0, inf, nan, 1e307):
            with pytest.raises(ValueError, match="t_end"):
                hfs.evolve(params, drive, hfs.ground_state(), t_end=t_end)
        for tol in (-1.0, 0.0, inf, nan):
            for kw in ({"rtol": tol}, {"atol": tol}):
                with pytest.raises(ValueError, match="tolerances"):
                    hfs.evolve(params, drive, hfs.ground_state(), t_end=1.0,
                               **kw)

    @pytest.mark.parametrize("mode", ["ndd_off", "ndd_on", "pinned_eps"])
    def test_affine_rhs_matches_verbatim(self, mode):
        # the RHS on the affine split against the literal equations at
        # random Hermitian states, couplings self-consistent from the state,
        # within 4 ulp of the largest term
        rng = np.random.default_rng(["ndd_off", "ndd_on",
                                     "pinned_eps"].index(mode))
        local_field = 0
        for dark in (None, 2, 3, 4) * 10:
            p = random_params(rng, dark)
            kw = dict(omega=float(rng.uniform(0.1, 30.0)),
                      delta_c=float(rng.uniform(-3.0, 3.0)) * p.delta_u,
                      ndd_enabled=mode != "ndd_off")
            if mode == "pinned_eps":
                kw["epsilon"] = {q: float(rng.uniform(0.0, 50.0))
                                 for q in PAIRS}
            drive = hfs.Drive(**kw)
            z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            x = pack(z + z.conj().T)
            ref = pack(hfs.rhs_verbatim(p, drive, unpack(x)))
            base, bare, eps = ref_affine_split(p, drive, [drive.delta_c])
            local_field += np.any(eps != 0.0)
            coupling = np.abs(bare) + np.abs(eps * x[_PAIR_RE])
            largest = np.max(np.abs(base[0]) @ np.abs(x) + coupling
                             @ (np.abs(_basis()[_COUPLINGS]) @ np.abs(x)))
            rhs = _affine_rhs(_affine_split(p, drive, [drive.delta_c])[0][0],
                              eps)
            diff = np.abs(rhs(0.0, x) - ref)
            assert np.max(diff) <= 4 * np.finfo(float).eps * largest
        # derived eps vanish only where every dipole does
        assert local_field == 0 if mode == "ndd_off" else local_field >= 36

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

    def test_csv_bytes_match_row_oracle(self, params, tmp_path):
        traj = hfs.evolve(params, hfs.Drive(omega=2.0, ndd_enabled=True),
                          hfs.ground_state(), t_end=3.0)
        odd = np.array([-0.0, 5e-324, np.inf, -np.inf, np.nan, 1e300, 0.1])
        rho = np.resize(odd, (len(odd), 4, 4)) * (1 + 2j)
        for tr in (traj, Trajectory(t=odd.copy(), rho=rho)):
            write_trajectory_csv(tr, tmp_path / "new.csv")
            write_rows(tr, tmp_path / "rows.csv")
            assert ((tmp_path / "new.csv").read_bytes()
                    == (tmp_path / "rows.csv").read_bytes())

    def test_cli_output_bytes(self, tmp_path, monkeypatch):
        # `hfs evolve --output` writes the trajectory it integrated with
        # the same bytes as the row-at-a-time writer
        seen, evolve = [], hfs.dynamics.evolve

        def kept(*args, **kwargs):
            seen.append(evolve(*args, **kwargs))
            return seen[-1]
        monkeypatch.setattr(hfs.dynamics, "evolve", kept)
        out = tmp_path / "traj.csv"
        assert run_cli(["evolve", "--set", "drive.omega=2.0", "--ndd", "on",
                        "--t-end", "3.0", "--output", str(out)]) == 0
        write_rows(seen[0], tmp_path / "rows.csv")
        assert out.read_bytes() == (tmp_path / "rows.csv").read_bytes()


def _lower_triangle_only():
    rho = hfs.ground_state()
    rho[1, 0] = 0.1
    return rho


# (rho0, the error it raises): each breaks one condition on a given rho0
BAD_RHO0 = {
    "shape": (np.eye(2) / 2, "shape"),
    "nan": (np.full((4, 4), np.nan), "finite"),
    "inf": (np.diag([np.inf, 0.0, 0.0, 0.0]), "finite"),
    "non_hermitian": (_lower_triangle_only(), "Hermitian"),
    "trace_2": (2.0 * hfs.ground_state(), "unit trace"),
    "trace_off_by_2e-9": (np.diag([1.0 + 2e-9, 0.0, 0.0, 0.0]), "unit trace"),
}


@pytest.mark.parametrize("case", list(BAD_RHO0))
@pytest.mark.parametrize("func", ["evolve", "relax_to_steady"])
def test_invalid_rho0_rejected(params, monkeypatch, func, case):
    # rejected before a generator is built or the integrator is reached
    def never(*args, **kwargs):
        raise AssertionError("work done on an invalid rho0")
    monkeypatch.setattr(hfs.dynamics, "_affine_split", never)
    monkeypatch.setattr(scipy.integrate, "solve_ivp", never)
    rho0, match = BAD_RHO0[case]
    drive = hfs.Drive(omega=5.0, delta_c=12.0)
    with pytest.raises(ValueError, match=match):
        if func == "evolve":
            hfs.evolve(params, drive, rho0, t_end=1.0)
        else:
            hfs.relax_to_steady(params, drive, rho0=rho0)


# (t_eval, with t_end = 1): each breaks one condition on a given t_eval
BAD_T_EVAL = {
    "empty": [],
    "two_d": [[0.0, 0.5], [0.7, 1.0]],
    "nan": [0.0, np.nan, 1.0],
    "inf": [0.0, 0.5, np.inf],
    "decreasing": [0.0, 0.6, 0.4],
    "repeated": [0.0, 0.5, 0.5, 1.0],
    "negative": [-0.1, 0.5, 1.0],
    "beyond_t_end": [0.0, 0.5, 1.5],
}


@pytest.mark.parametrize("case", list(BAD_T_EVAL))
@pytest.mark.parametrize("route", ["exact", "integrator", "ndd_on"])
def test_invalid_t_eval_rejected(params, monkeypatch, route, case):
    # rejected before a generator is built, an exponential taken or the
    # integrator reached
    def never(*args, **kwargs):
        raise AssertionError("work done on an invalid t_eval")
    monkeypatch.setattr(hfs.dynamics, "_affine_split", never)
    monkeypatch.setattr(scipy.integrate, "solve_ivp", never)
    monkeypatch.setattr(scipy.linalg, "expm", never)
    drive = hfs.Drive(omega=5.0, delta_c=12.0, ndd_enabled=route == "ndd_on")
    method = "DOP853" if route == "integrator" else None
    with pytest.raises(ValueError, match="t_eval"):
        hfs.evolve(params, drive, hfs.ground_state(), t_end=1.0,
                   t_eval=BAD_T_EVAL[case], method=method)


def test_rho0_within_tolerance_accepted(params):
    rho0 = np.diag([1.0 - 5e-10, 0.0, 0.0, 0.0]).astype(complex)
    rho0[1, 0] = 5e-10
    drive = hfs.Drive(omega=5.0, delta_c=12.0)
    assert hfs.relax_to_steady(params, drive, rho0=rho0).converged
    assert len(hfs.evolve(params, drive, rho0, t_end=1.0)) > 1


def test_relaxation_leaves_scipy_integrate_unloaded():
    # relax_to_steady needs scipy.linalg alone, with the local-field
    # correction off and on, and so do evolve and `hfs evolve` with it off;
    # the first evolve that integrates loads scipy.integrate
    src = Path(hfs.__file__).resolve().parents[1]
    code = "\n".join((
        "import sys",
        f"sys.path.insert(0, {str(src)!r})",
        "import hfs",
        "params = hfs.sodium_d1()",
        "for ndd in (False, True):",
        "    drive = hfs.Drive(omega=5.0, delta_c=12.0, ndd_enabled=ndd)",
        "    assert hfs.relax_to_steady(params, drive).converged",
        "assert 'scipy.linalg' in sys.modules",
        "assert 'scipy.integrate' not in sys.modules",
        "off = hfs.Drive(omega=5.0, delta_c=12.0)",
        "traj = hfs.evolve(params, off, hfs.ground_state(), t_end=1.0)",
        "assert len(traj) > 1 and hfs.validate_density_matrix(traj.final).ok",
        "from hfs.cli import run_cli",
        "assert run_cli(['evolve', '--t-end', '1.0']) == 0",
        "assert 'scipy.integrate' not in sys.modules",
        "traj = hfs.evolve(params, drive, hfs.ground_state(), t_end=1.0)",
        "assert 'scipy.integrate' in sys.modules",
        "assert len(traj) > 1 and hfs.validate_density_matrix(traj.final).ok",
    ))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


def write_rows(traj, path):
    """The trajectory CSV written one f-string per value, row by row: the
    byte oracle of ``write_trajectory_csv``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRAJECTORY_CSV_HEADER + "\n")
        for t, x in zip(traj.t, pack(np.moveaxis(traj.rho, 0, -1)).T):
            fh.write(",".join(f"{v:.17g}" for v in (t, *x)) + "\n")


def relax_per_chunk_expm(params, drive, residual_tol, t_max):
    """Relaxation from the ground state with one ``scipy.linalg.expm(A*dt)``
    per chunk of a fixed generator, stopped by ``residual_norm``: the
    oracle of the squared propagators.  Returns ``(rho, iterations)``."""
    a = generator_matrix(params, drive, bare_rabi(params, drive))
    x = pack(hfs.ground_state())
    t, chunk, iterations = 0.0, 1.0, 0
    while t < t_max:
        dt = min(chunk, t_max - t)
        x = scipy.linalg.expm(a * dt) @ x
        t += dt
        chunk *= 2.0
        iterations += 1
        if hfs.residual_norm(params, drive, unpack(x)) < residual_tol:
            break
    return unpack(x), iterations


@pytest.mark.parametrize("ndd", [False, True])
@pytest.mark.parametrize("dt", [1.0, 2.0 ** 6, 2.0 ** 12, 2.0 ** 20])
def test_expm_matches_scipy(ndd, dt):
    # the relaxation's propagators against scipy.linalg.expm, bit for bit,
    # on generators at the couplings of a random state; a change in scipy's
    # private kernels shows up here first
    rng = np.random.default_rng(int(dt) + ndd)
    sets = [hfs.sodium_d1(), two_level_reduction()]
    sets += [random_params(rng, dark) for dark in (None, 2, 3, 4) * 3]
    for p in sets:
        drive = hfs.Drive(omega=float(rng.uniform(0.5, 100.0)),
                          delta_c=float(rng.uniform(-5.0, 5.0)) * p.delta_u,
                          ndd_enabled=ndd)
        base, bare, eps = ref_affine_split(p, drive, [drive.delta_c])
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = z @ z.conj().T
        x = pack(rho / np.trace(rho).real)
        a = base[0] + np.tensordot(bare - eps * x[_PAIR_RE],
                                   _basis()[_COUPLINGS], 1)
        assert all(scipy.linalg.bandwidth(a))    # scipy's generic route
        assert _expm(a * dt).tobytes() == scipy.linalg.expm(a * dt).tobytes()


def demo_generator():
    """The demo drive's generator, scaled to unit 1-norm."""
    p = hfs.sodium_d1()
    drive = hfs.Drive(omega=5.0, delta_c=0.5 * p.delta_u)
    a = generator_matrix(p, drive, bare_rabi(p, drive))
    return a / np.linalg.norm(a, 1)


# 1-norm of the argument -> the number of squarings scipy's Pade step picks:
# none below theta_13 = 5.37 (at Pade orders 3, 7 and 13), then odd and even
@pytest.mark.parametrize("norm, squarings", [
    (1e-3, 0), (1.0, 0), (4.0, 0), (8.0, 1), (16.0, 2), (32.0, 3),
    (1e3, 8), (1e4, 12)])
def test_expm_squarings_match_scipy(norm, squarings):
    a = demo_generator() * norm
    work = np.empty((5,) + a.shape)
    work[0] = a
    assert pick_pade_structure(work)[1] == squarings
    assert _expm(a).tobytes() == scipy.linalg.expm(a).tobytes()


def test_expm_results_do_not_alias():
    # an even and an odd number of squarings: the results sit in different
    # slots of their work arrays, and each call has its own
    a = demo_generator()
    first = _expm(16.0 * a)
    kept = first.copy()
    second = _expm(32.0 * a)
    assert not np.shares_memory(first, second)
    assert first.tobytes() == kept.tobytes()
    assert second.tobytes() == scipy.linalg.expm(32.0 * a).tobytes()


def test_work_arrays_are_not_shared_between_calls(params):
    # each relaxation owns its work array, and _expm works in the one its
    # caller hands it: what a first call returns keeps its bytes through a
    # second call
    first = hfs.relax_to_steady(
        params, hfs.Drive(omega=5.0, delta_c=12.0, ndd_enabled=True))
    kept = first.rho.copy()
    second = hfs.relax_to_steady(
        params, hfs.Drive(omega=20.0, delta_c=-25.0, ndd_enabled=True))
    assert first.iterations > 1 and second.iterations > 1
    assert first.rho.tobytes() == kept.tobytes()
    assert not np.shares_memory(first.rho, second.rho)

    # an even and an odd number of squarings, each in its caller's array
    a = demo_generator()
    work = np.empty((2, 5) + a.shape)
    np.multiply(a, 16.0, out=work[0, 0])
    first = _expm(work[0, 0], work[0])
    kept = first.copy()
    np.multiply(a, 32.0, out=work[1, 0])
    second = _expm(work[1, 0], work[1])
    assert np.shares_memory(first, work[0])
    assert np.shares_memory(second, work[1])
    assert first.tobytes() == kept.tobytes()
    assert first.tobytes() == scipy.linalg.expm(16.0 * a).tobytes()
    assert second.tobytes() == scipy.linalg.expm(32.0 * a).tobytes()


@pytest.mark.parametrize("kernel, code, error", [
    ("pick_pade_structure", (-1, 0), MemoryError),
    ("pade_UV_calc", -11, MemoryError),
    ("pade_UV_calc", -3, RuntimeError),
    ("pade_UV_calc", 1, RuntimeError),
])
def test_expm_kernel_error_codes(monkeypatch, kernel, code, error):
    monkeypatch.setattr(hfs.dynamics, kernel, lambda *args: code)
    with pytest.raises(error, match="error code"):
        _expm(demo_generator())


def relax_reference(params, drive, residual_tol, t_max, rho0=None):
    """The expm route of ``relax_to_steady`` as it was before its chunks
    moved to direct BLAS products: ``scipy.linalg.expm`` per new chunk and
    ``@`` for every product, the full residual after every chunk, and
    ``rabi_final`` from ``effective_rabi``."""
    rho = ground_state() if rho0 is None else np.asarray(rho0, dtype=complex)
    base, bare, eps = ref_affine_split(params, drive, [drive.delta_c])

    def couplings(x):
        return bare - eps * x[_PAIR_RE]

    x = pack(rho)
    a = ref_with_couplings(base[0], couplings(x))
    resid = float(_rho_max_abs(a @ x))
    if resid < residual_tol:
        return SteadyResult(rho=rho, converged=True, iterations=0,
                            residual=resid,
                            rabi_final=effective_rabi(params, drive, rho))
    fixed = not np.any(eps != 0.0)
    t, chunk, iterations = 0.0, 1.0, 0
    prop = None
    while t < t_max:
        dt = min(chunk, t_max - t)
        if fixed and prop is not None and dt == chunk:
            prop = prop @ prop
        else:
            prop = scipy.linalg.expm(a * dt)
        x = prop @ x
        t += dt
        chunk *= 2.0
        iterations += 1
        if not fixed:
            a = ref_with_couplings(base[0], couplings(x))
        resid = float(_rho_max_abs(a @ x))
        if resid < residual_tol:
            break
    rho = unpack(x)
    converged = resid < residual_tol
    return SteadyResult(rho=rho, converged=converged, iterations=iterations,
                        residual=resid,
                        rabi_final=effective_rabi(params, drive, rho),
                        message="" if converged else
                        f"residual {resid:.3e} above tolerance "
                        f"after t = {t_max}")


def renormalised(params, drive, res, residual_tol, t_max):
    """``res`` of :func:`relax_reference` as ``relax_to_steady`` returns it:
    where the state's trace drifted beyond 1e-9, the state divided by its
    trace, with the residual, flag, couplings and message of that state.
    Returns ``(result, drifted)``."""
    x = pack(res.rho)
    tr = x[:4].sum()
    if not abs(tr - 1.0) > 1e-9:
        return res, False
    x = x / tr
    base, bare, eps = ref_affine_split(params, drive, [drive.delta_c])
    resid = float(_rho_max_abs(
        ref_with_couplings(base[0], bare - eps * x[_PAIR_RE]) @ x))
    rho, converged = unpack(x), resid < residual_tol
    return SteadyResult(rho=rho, converged=converged,
                        iterations=res.iterations, residual=resid,
                        rabi_final=effective_rabi(params, drive, rho),
                        message="" if converged else
                        f"residual {resid:.3e} above tolerance "
                        f"after t = {t_max}"), True


@pytest.mark.parametrize("ndd", ["off", "on", "pinned_zero_eps"])
@pytest.mark.parametrize("relax_kw", [
    dict(residual_tol=1e-9, t_max=1e8),
    # chunks 1, ..., 32 reach t = 63 and the seventh is cut to 37; most
    # points do not converge
    dict(residual_tol=1e-13, t_max=100.0),
    # three chunks, the last cut to 0.5: no point converges
    dict(residual_tol=1e-9, t_max=3.5),
])
def test_relaxation_matches_reference_loop(ndd, relax_kw):
    # the chunk loop against its pre-BLAS form, bit for bit, from the ground
    # state and from a mixed state with coherences on coupled pairs; a state
    # whose trace drifted is compared renormalised
    rng = np.random.default_rng(23)
    sets = [hfs.sodium_d1()]
    sets += [random_params(rng, dark) for dark in (None, 2, 3, 4) * 2]
    mixed = _mixed_state()
    mixed[2, 0], mixed[0, 2] = -0.04 + 0.01j, -0.04 - 0.01j
    outcomes, renormalised_runs = [], 0
    for p in sets:
        drive = hfs.Drive(
            omega=float(np.exp(rng.uniform(np.log(0.5), np.log(100.0)))),
            delta_c=float(rng.uniform(-5.0, 5.0)) * p.delta_u,
            ndd_enabled=ndd != "off",
            epsilon=dict.fromkeys(PAIRS, 0.0) if ndd == "pinned_zero_eps"
            else None)
        for rho0 in (None, mixed):
            res = hfs.relax_to_steady(p, drive, rho0=rho0, **relax_kw)
            ref, drifted = renormalised(
                p, drive, relax_reference(p, drive, rho0=rho0, **relax_kw),
                **relax_kw)
            assert res.rho.tobytes() == ref.rho.tobytes()
            assert repr(res.residual) == repr(ref.residual)
            assert res.iterations == ref.iterations
            assert (np.array(astuple(res.rabi_final)).tobytes()
                    == np.array(astuple(ref.rabi_final)).tobytes())
            assert [type(v) for v in astuple(res.rabi_final)] == [float] * 4
            assert res.converged == ref.converged
            assert res.message == ref.message
            outcomes.append((res.converged, res.iterations > 0))
            renormalised_runs += drifted
    # the ground state is stationary where level 1 is undriven
    assert outcomes.count((True, False)) <= 2
    # the long runs drift beyond 1e-9 in 3-5 of 18 relaxations
    assert (renormalised_runs > 0) == (relax_kw["t_max"] > 1e4)
    if relax_kw["t_max"] > 10:
        assert {(True, True), (False, True)} <= set(outcomes)
    else:
        assert (True, True) not in outcomes


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

    def test_trace_drift_renormalised(self, params):
        # an unreachable tolerance runs 40 chunks to t = 1e12, over which
        # the state drifts 2.6e-3 off unit trace, invisible to the
        # residual; divided by its trace it is 2.6e-13 from the solve
        drive = hfs.Drive(omega=5.0, delta_c=12.0)
        direct = hfs.solve_selfconsistent(params, drive).rho
        res = hfs.relax_to_steady(params, drive, residual_tol=1e-300,
                                  t_max=1e12)
        assert not res.converged and res.iterations == 40
        assert abs(np.trace(res.rho).real - 1.0) <= 1e-9
        assert np.max(np.abs(res.rho - direct)) <= 1e-9
        a_bare = _affine_split(params, drive, [drive.delta_c])[0][0]
        assert res.residual == float(_rho_max_abs(a_bare @ pack(res.rho)))

    def test_vanished_trace_not_converged(self, params):
        # with the correction on, chunks of ~1e15 drive the state to exactly
        # zero, whose residual is zero too; it is not a steady state
        drive = hfs.Drive(omega=5.0, delta_c=12.0, ndd_enabled=True)
        res = hfs.relax_to_steady(params, drive, residual_tol=1e-300,
                                  t_max=1e16)
        assert not res.converged and res.iterations == 53
        assert np.isnan(res.rho).all() and np.isnan(res.residual)

    def test_nonconvergence_flagged_not_raised(self, params):
        drive = hfs.Drive(omega=0.2, delta_c=2.0 * params.delta_u)
        res = hfs.relax_to_steady(params, drive, residual_tol=1e-13,
                                  t_max=2.0)
        assert not res.converged
        assert "tolerance" in res.message

    @staticmethod
    def count_expm(monkeypatch, expm=None):
        """Record every exponential ``relax_to_steady`` takes, computed by
        ``expm`` (by default the module's own ``_expm`` on the relaxation's
        work array)."""
        calls = []
        own = expm is None
        expm = expm or hfs.dynamics._expm

        def counted(a, work):
            calls.append(a.copy())
            return expm(a, work) if own else expm(a)
        monkeypatch.setattr(hfs.dynamics, "_expm", counted)
        return calls

    @pytest.mark.parametrize("drive_kw", [
        dict(omega=0.5, delta_c=0.3),
        dict(omega=5.0, delta_c=12.0),
        dict(omega=20.0, delta_c=-25.0),
        # the correction on with every eps zero: the generator is fixed
        dict(omega=5.0, delta_c=-8.0, ndd_enabled=True,
             epsilon=dict.fromkeys(PAIRS, 0.0)),
    ])
    def test_squared_propagators_match_per_chunk_expm(self, params,
                                                      monkeypatch, drive_kw):
        drive = hfs.Drive(**drive_kw)
        ref, iterations = relax_per_chunk_expm(params, drive, 1e-9, 1e8)
        calls = self.count_expm(monkeypatch)
        res = hfs.relax_to_steady(params, drive, residual_tol=1e-9,
                                  t_max=1e8)
        assert res.converged and res.iterations == iterations > 5
        assert len(calls) == 1
        assert np.max(np.abs(res.rho - ref)) < 1e-10

    def test_truncated_last_chunk(self, params, monkeypatch):
        # chunks 1, 2, ..., 32 reach t = 63; the seventh is cut to 37
        drive = hfs.Drive(omega=0.2, delta_c=2.0 * params.delta_u)
        ref, iterations = relax_per_chunk_expm(params, drive, 1e-13, 100.0)
        calls = self.count_expm(monkeypatch)
        res = hfs.relax_to_steady(params, drive, residual_tol=1e-13,
                                  t_max=100.0)
        assert not res.converged and res.iterations == iterations == 7
        assert len(calls) == 2
        assert np.max(np.abs(res.rho - ref)) < 1e-10

    def test_ndd_on_one_expm_per_chunk(self, params, monkeypatch):
        drive = hfs.Drive(omega=5.0, delta_c=12.0, ndd_enabled=True)
        calls = self.count_expm(monkeypatch)
        res = hfs.relax_to_steady(params, drive)
        assert res.converged and len(calls) == res.iterations > 5

    @pytest.mark.parametrize("drive_kw, relax_kw", [
        (dict(omega=5.0, delta_c=12.0), {}),
        (dict(omega=5.0, delta_c=12.0, ndd_enabled=True), {}),
        (dict(omega=30.0, delta_c=-40.0, ndd_enabled=True),
         dict(residual_tol=1e-12, t_max=1e8)),
        (dict(omega=5.0, delta_c=-8.0, ndd_enabled=True,
              epsilon=dict.fromkeys(PAIRS, 0.0)), {}),
        # the seventh chunk is cut to 37
        (dict(omega=0.2, delta_c=2.0 * hfs.sodium_d1().delta_u),
         dict(residual_tol=1e-13, t_max=100.0)),
        (dict(omega=0.2, delta_c=2.0 * hfs.sodium_d1().delta_u,
              ndd_enabled=True), dict(residual_tol=1e-13, t_max=100.0)),
    ])
    def test_same_result_as_scipy_expm(self, params, monkeypatch, drive_kw,
                                       relax_kw):
        drive = hfs.Drive(**drive_kw)
        res = hfs.relax_to_steady(params, drive, **relax_kw)
        calls = self.count_expm(monkeypatch, scipy.linalg.expm)
        ref = hfs.relax_to_steady(params, drive, **relax_kw)
        assert calls
        assert res.rho.tobytes() == ref.rho.tobytes()
        assert res.iterations == ref.iterations
        assert repr(res.residual) == repr(ref.residual)
        assert res.converged == ref.converged

    @pytest.fixture
    def no_work(self, monkeypatch):
        # arguments are checked before the generator is built
        def never(*args):
            raise AssertionError("generator built")
        monkeypatch.setattr(hfs.dynamics, "_affine_split", never)

    @pytest.mark.parametrize("name", ["residual_tol", "t_max"])
    def test_invalid_limits(self, params, no_work, name):
        for value in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match=name):
                hfs.relax_to_steady(params, hfs.Drive(omega=1.0),
                                    **{name: value})
