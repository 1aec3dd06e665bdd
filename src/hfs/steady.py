"""Steady-state solver.

At a fixed Rabi set the equations of motion are linear in the 16 real state
components, so the steady state is a direct linear solve with one population
row traded for the unit-trace constraint.  The generator is affine in the
detuning and the couplings,
``A = A(0) + delta * A_delta + sum_q rabi_q * B_q``, and the generator at
zero detuning is linear in the decay rates and splittings,
``A(0) = sum_k p_k * R_k``.  The bases ``R``, ``A_delta`` and ``B`` are
constants, built once per process from ``rhs_verbatim``, so no solve calls
it.  A detuning axis at one drive is a single ``(N, 16, 16)`` stack solved
by batched LU, and one drive is the one-point stack.  With the local-field
correction enabled the four effective couplings depend on Re(rho_ij), and
the steady state is a fixed point in those couplings.  It is found by
Newton's method on the couplings, in lockstep over the stack, whose 4x4
Jacobians come from differentiating the linear solve: the sensitivities
share one batched solve with the refinement step, so each iterate factors
its matrices twice.  A point that settles returns its last Newton solve; a
point whose Newton step fails to make progress continues by a damped Picard
iteration, and a clean solve follows at the couplings it reaches.

:func:`solve_grid` solves a detuning axis and :func:`solve_selfconsistent`
one drive, both through :func:`_solve_axis`.  The independent checks of the
solver are :func:`hfs.dynamics.relax_to_steady` and the two-level closed
form of :mod:`hfs.identities`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import STATE_COLUMNS, pack, rhs_verbatim, unpack
from .params import (PAIRS, Drive, RabiSet, SystemParams, bare_rabi,
                     effective_rabi)

_ZERO_ROW_TOL = 1e-13

#: largest packed residual a linear solve may leave before it is rejected
_RESIDUAL_GATE = 1e-8

#: the trace-constraint right-hand side of the replaced population-1 row
_TRACE_RHS = np.eye(16)[0]

#: population rows 2..4, the ones that may be pinned
_PINNABLE = np.arange(1, 4)

#: packed index of Re(rho_ij) for each coupled pair, in ``PAIRS`` order
_PAIR_RE = np.array([STATE_COLUMNS.index(f"re_rho{p[::-1]}") for p in PAIRS])

_NO_COUPLING = RabiSet(0.0, 0.0, 0.0, 0.0)

#: the 16 unit states, whose packed derivatives are the generator's columns
_UNIT_STATES = unpack(np.eye(16))
_UNIT_STATES.flags.writeable = False


class SingularSystem(Exception):
    """Steady state not unique beyond the trace direction (e.g. zero drive)."""

    def __init__(self, message: str, cond: float | None = None):
        if cond is not None:
            message = f"{message} (condition estimate {cond:.3e})"
        super().__init__(message)
        self.cond = cond


@dataclass(frozen=True)
class SolveOptions:
    """Controls of the self-consistent solve.

    ``fp_tol`` and ``max_iters`` bound the whole iteration, Newton and Picard
    steps together; ``damping`` is the mixing weight of the Picard fallback
    only.
    """

    fp_tol: float = 1e-11
    max_iters: int = 500
    damping: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.fp_tol < np.inf):
            raise ValueError("fp_tol must be positive and finite")
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class SteadyResult:
    rho: np.ndarray
    converged: bool
    iterations: int
    residual: float
    rabi_final: RabiSet
    message: str = ""


def generator_matrix(params: SystemParams, drive: Drive,
                     rabi: RabiSet) -> np.ndarray:
    """Real 16x16 matrix A with d(pack(rho))/dt = A @ pack(rho) at fixed Rabi.

    Column k is the packed derivative of the k-th unit state, all 16 taken
    as one stack.
    """
    return pack(rhs_verbatim(params, drive, _UNIT_STATES, rabi=rabi))


def _couplings(rabi: RabiSet) -> np.ndarray:
    """The four couplings as an array, in ``PAIRS`` order."""
    return np.array([rabi.o13, rabi.o14, rabi.o23, rabi.o24])


def _difference_basis(reference: tuple, changes: list) -> np.ndarray:
    """Read-only stack of ``generator_matrix(*c) - generator_matrix(*ref)``.

    ``reference`` and each of ``changes`` are ``(params, drive, rabi)``
    arguments of :func:`generator_matrix`.
    """
    a_ref = generator_matrix(*reference)
    basis = np.stack([generator_matrix(*c) - a_ref for c in changes])
    basis.flags.writeable = False
    return basis


@functools.cache
def _coupling_basis() -> np.ndarray:
    """(4, 16, 16) stack B with A(rabi) = A(0) + sum_q rabi_q * B[q].

    The couplings enter the equations of motion with pure-number
    coefficients, so B depends on neither the parameters nor the detuning;
    the split is exact.  Built once from :func:`generator_matrix`, read-only.
    """
    params, drive = SystemParams(), Drive(omega=0.0)
    return _difference_basis((params, drive, _NO_COUPLING),
                             [(params, drive, RabiSet(*e)) for e in np.eye(4)])


@functools.cache
def _detuning_basis() -> np.ndarray:
    """16x16 matrix A_delta with A(delta) = A(0) + delta * A_delta.

    The bare detuning enters the equations of motion with unit coefficients,
    so A_delta depends on no parameter.  It is built from
    :func:`generator_matrix` with unit splittings, where ``delta_c`` = 0 and
    -1 put the detuning at exactly 1 and 0, so every entry is exact;
    read-only.
    """
    params = SystemParams(delta_g=1.0, delta_e=1.0)
    return _difference_basis(
        (params, Drive(omega=0.0, delta_c=-1.0), _NO_COUPLING),
        [(params, Drive(omega=0.0), _NO_COUPLING)])[0]


#: the parameters A(0) is linear in, in the order of :func:`_rate_basis`
_RATES = ("gamma31", "gamma32", "gamma41", "gamma42", "delta_g", "delta_e")


@functools.cache
def _rate_basis() -> np.ndarray:
    """(6, 16, 16) stack R with A(0) = sum_k p_k * R[k] over ``_RATES``.

    At zero detuning and without couplings the generator is linear in the
    four decay rates and the two splittings, with pure-number coefficients.
    R is built from :func:`generator_matrix` at ``delta_c = -delta_u``,
    where the detuning is exactly 0, as the differences from a reference
    with all rates 0 and unit splittings when one rate is raised to 1 or one
    splitting to 2, so every entry is exact; read-only.
    """
    ref = SystemParams(gamma31=0.0, gamma32=0.0, gamma41=0.0, gamma42=0.0,
                       delta_g=1.0, delta_e=1.0)

    def at_zero_detuning(params):
        return params, Drive(omega=0.0, delta_c=-params.delta_u), _NO_COUPLING

    return _difference_basis(
        at_zero_detuning(ref),
        [at_zero_detuning(ref.replace(**{k: getattr(ref, k) + 1.0}))
         for k in _RATES])


def _detuning_stack(params: SystemParams, delta_c: np.ndarray) -> np.ndarray:
    """(N, 16, 16) generators without couplings at the detunings ``delta_c``.

    ``A(0)`` is the rates and splittings of ``params`` contracted with
    :func:`_rate_basis`, and the detuning adds ``delta * A_delta``.  An
    entry matches :func:`generator_matrix` at the same detuning exactly or,
    where either build adds rates or splittings together, to rounding.
    """
    rates = [getattr(params, k) for k in _RATES]
    a0 = np.dot(rates, _rate_basis().reshape(len(_RATES), -1))
    delta = np.asarray(delta_c, dtype=float) + params.delta_u
    return a0.reshape(16, 16) + delta[:, None, None] * _detuning_basis()


def _affine_split(params: SystemParams, drive: Drive, delta_c: np.ndarray):
    """``(base, bare, eps)``: the affine split of ``drive``'s generators.

    ``base`` holds the (N, 16, 16) generators without couplings at the
    detunings ``delta_c``, and the couplings at packed state ``x`` are
    ``bare - eps * x[_PAIR_RE]``: ``bare`` is the bare couplings and ``eps``
    the local-field strengths, both (4,) in ``PAIRS`` order, ``eps`` zero
    when the correction is off.  ``drive.delta_c`` is not read.
    """
    eps = np.zeros(4)
    if drive.ndd_enabled:
        eps_pairs = drive.epsilon_for(params)
        eps = np.array([eps_pairs[p] for p in PAIRS])
    return (_detuning_stack(params, delta_c),
            _couplings(bare_rabi(params, drive)), eps)


def _system_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Steady-state system matrices from generators ``a``, (..., 16, 16).

    The population-1 row is replaced by the trace constraint, and every
    population row that is identically zero (a level fully decoupled from
    drive and decay) is pinned to zero, matching evolution from the ground
    state.  Returns ``(m, kept)``, ``kept`` masking the generator rows kept
    as equations.
    """
    row_max = np.abs(a).max(axis=-1)
    scale = np.maximum(row_max.max(axis=-1, keepdims=True), 1.0)
    kept = row_max >= _ZERO_ROW_TOL * scale
    kept[..., 0] = False
    kept[..., 4:] = True
    m = np.where(kept[..., None], a, 0.0)
    m[..., 0, 0:4] = 1.0
    m[..., _PINNABLE, _PINNABLE] = np.where(
        kept[..., _PINNABLE], m[..., _PINNABLE, _PINNABLE], 1.0)
    return m, kept


def residual_norm(params: SystemParams, drive: Drive,
                  rho: np.ndarray) -> float:
    """Max-abs element of the equations of motion with self-consistent Rabi."""
    rabi = effective_rabi(params, drive, rho)
    return float(np.max(np.abs(rhs_verbatim(params, drive, rho, rabi=rabi))))


def _rho_max_abs(x: np.ndarray) -> np.ndarray:
    """Max-abs element of the 4x4 matrices behind packed ``x`` (..., 16)."""
    return np.maximum(np.abs(x[..., 0:4]).max(axis=-1),
                      np.hypot(x[..., 4::2], x[..., 5::2]).max(axis=-1))


def _newton_step(dx: np.ndarray, eps: np.ndarray,
                 fixed_point_residual: np.ndarray) -> np.ndarray:
    """Newton correction to the couplings from the sensitivities ``dx``.

    ``dx`` holds dx/drabi_q, (..., 16, 4), as :func:`_solve_stack` returns
    them; the fixed-point map's Jacobian is I + diag(eps) dRe(x_p)/drabi_q.
    Takes a stack (leading axes on every argument but ``eps``).  Raises
    ``LinAlgError`` when any Jacobian is singular.
    """
    jac = np.eye(4) + eps[:, None] * dx[..., _PAIR_RE, :]
    return np.linalg.solve(jac, fixed_point_residual[..., None])[..., 0]


@dataclass(frozen=True)
class GridSolution:
    """Steady states along a detuning axis, one row per detuning.

    ``x`` holds the packed states, with NaN rows where ``singular`` marks a
    point without a unique steady state; ``converged``, ``iterations`` and
    ``residual`` are the per-point fields of :class:`SteadyResult` (False, 0
    and NaN at a singular point).
    """

    x: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray
    singular: np.ndarray


def _with_couplings(base: np.ndarray, rabi: np.ndarray) -> np.ndarray:
    """Generators from a coupling-free stack and couplings (4,) or (N, 4)."""
    # sum_q rabi_q * B[q] as one matmul against the flat (4, 256) basis
    per_point = np.dot(rabi.reshape(-1, 4), _coupling_basis().reshape(4, -1))
    return base + per_point.reshape(rabi.shape[:-1] + (16, 16))


def _apply(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix-vector products over a stack: (N, 16, 16) with (N, 16)."""
    return (m @ x[..., None])[..., 0]


def _solve_stack(base: np.ndarray, rabi: np.ndarray,
                 sensitivities: bool = False):
    """The steady-state systems of a generator stack, solved together.

    ``base`` holds the (N, 16, 16) generators without couplings and ``rabi``
    the couplings, (4,) or (N, 4).  Returns ``(x, a, m, ok, dx)``: the
    packed solutions, the generators, the system matrices of
    :func:`_system_rows`, the points whose solve is usable (couplings not
    all zero, solution finite), and ``dx``, None unless ``sensitivities``.
    ``x`` is zero where ``ok`` is False.  One exactly singular matrix fails
    the whole batched solve, and then no point is usable.

    One step of iterative refinement keeps the residual near round-off.
    With ``sensitivities`` the same solve also gives dx/drabi_q =
    -M^-1 B~_q x, (N, 16, 4), from differentiating M x = b: B~_q is the
    coupling matrix with the replaced and pinned rows zeroed, and x the
    solution before its refinement step.  ``dx`` means nothing where ``ok``
    is False.
    """
    a = _with_couplings(base, rabi)
    m, kept = _system_rows(a)
    n = len(a)
    try:
        x = np.linalg.solve(m, _TRACE_RHS[:, None])[..., 0]
    except np.linalg.LinAlgError:
        return np.zeros((n, 16)), a, m, np.zeros(n, bool), None
    ok = np.isfinite(x).all(axis=-1) & (rabi != 0.0).any(axis=-1)
    x[~ok] = 0.0
    rhs = (_TRACE_RHS - _apply(m, x))[..., None]
    if sensitivities:
        # the rows (B_q x)_i, from the flat (64, 16) basis, as columns q
        bx = (x @ _coupling_basis().reshape(64, 16).T).reshape(n, 4, 16)
        rhs = np.concatenate(
            [rhs, np.where(kept[:, None, :], bx, 0.0).swapaxes(-1, -2)],
            axis=-1)
    step = np.linalg.solve(m, rhs)
    x += step[..., 0]
    ok &= np.isfinite(x).all(axis=-1)
    x[~ok] = 0.0
    return x, a, m, ok, (-step[..., 1:] if sensitivities else None)


def _gate(resid: np.ndarray) -> np.ndarray:
    """The points whose packed residuals (N, 16) stay within the gate."""
    return np.abs(resid).max(axis=-1) <= _RESIDUAL_GATE


def _singular(rabi: np.ndarray, m: np.ndarray) -> SingularSystem:
    """The error of a point at couplings ``rabi`` with system matrix ``m``."""
    if not np.any(rabi != 0.0):
        return SingularSystem("all effective couplings vanish; "
                              "ground populations are undetermined")
    return SingularSystem("steady-state system is rank deficient",
                          cond=float(np.linalg.cond(m)))


def _solve_one(base: np.ndarray, rabi: np.ndarray) -> np.ndarray:
    """Packed steady state of a one-point stack at couplings ``rabi`` (4,).

    The solution must pass the residual gate on its generator; otherwise,
    or when the solve is not usable, raises :class:`SingularSystem`.
    """
    x, a, m, ok, _ = _solve_stack(base, rabi)
    if not (ok[0] and _gate(_apply(a, x))[0]):
        raise _singular(rabi, m[0])
    return x[0]


def solve_linear_steady(params: SystemParams, drive: Drive,
                        rabi: RabiSet) -> np.ndarray:
    """Steady state at a frozen Rabi set.

    The population-1 row is replaced by the trace constraint.  A population
    whose equation row is identically zero (a level fully decoupled from
    drive and decay) is pinned to zero, matching evolution from the ground
    state.  Any remaining rank deficiency raises :class:`SingularSystem`.
    """
    base = _detuning_stack(params, np.array([drive.delta_c]))
    return unpack(_solve_one(base, _couplings(rabi)))


def _picard(base: np.ndarray, bare: np.ndarray, eps: np.ndarray,
            opts: SolveOptions, x: np.ndarray,
            iterations: int) -> tuple[np.ndarray, bool, int]:
    """Damped Picard iteration of a one-point stack from packed ``x``.

    Recompute the couplings from the current iterate, re-solve, mix with
    ``damping``, until the max-abs change in rho drops below ``fp_tol`` or
    ``max_iters`` iterations are spent in all, counting on from
    ``iterations``.
    """
    for iterations in range(iterations + 1, opts.max_iters + 1):
        x_new = _solve_one(base, bare - eps * x[_PAIR_RE])
        change = float(_rho_max_abs(x_new - x))
        x = opts.damping * x_new + (1.0 - opts.damping) * x
        if change < opts.fp_tol:
            return x, True, iterations
    return x, False, iterations


def _lockstep_newton(base: np.ndarray, bare: np.ndarray, eps: np.ndarray,
                     opts: SolveOptions):
    """Cold Newton on the couplings of every point of a stack at once.

    The first iterate is the solve at the bare couplings, which counts as no
    iteration.  Each point leaves the lockstep when the max-abs change in
    rho drops below ``fp_tol`` or it has spent ``max_iters`` iterations.
    Returns ``(x, m, converged, iterations, stalled, failed)``: ``m`` holds
    each point's last system matrix, ``stalled`` marks a fixed-point
    residual that failed to decrease or a step that was not finite, and
    ``failed`` a singular system or a Jacobian that failed a batch.
    """
    n = len(base)
    rabi = np.tile(bare, (n, 1))
    x, _, m, ok, dx = _solve_stack(base, rabi, sensitivities=True)
    failed = ~ok
    stalled = np.zeros(n, dtype=bool)
    iterations = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    last_resid = np.full(n, np.inf)
    live = np.flatnonzero(ok)
    while live.size:
        fp_resid = rabi[live] - (bare - eps * x[live][:, _PAIR_RE])
        resid = np.max(np.abs(fp_resid), axis=-1)
        moving = resid < last_resid[live]
        last_resid[live] = resid
        stalled[live[~moving]] = True
        live, fp_resid = live[moving], fp_resid[moving]
        if not live.size:
            break
        try:
            step = _newton_step(dx[live], eps, fp_resid)
        except np.linalg.LinAlgError:
            if live.size > 1:
                # one singular Jacobian fails the batch, not every point
                failed[live] = True
                break
            step = np.full_like(fp_resid, np.nan)
        finite = np.all(np.isfinite(step), axis=-1)
        stalled[live[~finite]] = True
        live, step = live[finite], step[finite]
        if not live.size:
            break
        rabi[live] -= step
        x_new, _, m[live], ok, dx[live] = _solve_stack(
            base[live], rabi[live], sensitivities=True)
        failed[live[~ok]] = True
        iterations[live] += 1
        converged[live] = ok & (_rho_max_abs(x_new - x[live]) < opts.fp_tol)
        x[live] = x_new
        spent = iterations[live] >= opts.max_iters
        live = live[ok & ~converged[live] & ~spent]
    return x, m, converged, iterations, stalled, failed


def _own_residual(base: np.ndarray, bare: np.ndarray, eps: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
    """Packed residuals (N, 16) of states ``x`` at their own couplings."""
    return _apply(_with_couplings(base, bare - eps * x[:, _PAIR_RE]), x)


def _solve_axis(params: SystemParams, drive: Drive, delta_c: np.ndarray,
                opts: SolveOptions):
    """Steady states of ``drive`` at the detunings ``delta_c``, one stack.

    ``drive.delta_c`` is not read.  With the local-field correction, Newton
    runs in lockstep from the bare couplings.  A point it settles returns
    its last Newton solve, gated on the residual of the generator at that
    state's own couplings; one that fails the gate is not settled.  Every
    other point (continued by :func:`_picard` from its last iterate after a
    stalled step, or out of iterations) gets a clean solve at the couplings
    reached, gated on the residual of its generator.  ``residual`` is taken
    at the couplings of the state returned.
    Returns ``(x, converged, iterations, residual, failed, m)``, ``failed``
    marking the points not settled (their other fields mean nothing) and
    ``m`` holding each point's last system matrix.
    """
    base, bare, eps = _affine_split(params, drive, delta_c)
    n = len(base)

    if not np.any(eps != 0.0):
        x, a, m, ok, _ = _solve_stack(base, bare)
        resid = _apply(a, x)
        return (x, np.ones(n, dtype=bool), np.ones(n, dtype=int),
                _rho_max_abs(resid), ~(ok & _gate(resid)), m)

    x, m, converged, iterations, stalled, failed = _lockstep_newton(
        base, bare, eps, opts)
    settled = converged & ~stalled
    for k in np.flatnonzero(stalled):
        try:
            x[k], converged[k], iterations[k] = _picard(
                base[k:k + 1], bare, eps, opts, x[k], iterations[k])
        except SingularSystem:
            failed[k] = True

    # a settled point returns its last Newton solve, gated at its own
    # couplings; every other point is solved cleanly at the couplings reached
    live = np.flatnonzero(~failed)
    resid = _own_residual(base[live], bare, eps, x[live])
    keep = settled[live]
    failed[live[keep & ~_gate(resid)]] = True
    redo = live[~keep]
    if redo.size:
        x_redo, a, m[redo], ok, _ = _solve_stack(
            base[redo], bare - eps * x[redo][:, _PAIR_RE])
        failed[redo[~(ok & _gate(_apply(a, x_redo)))]] = True
        x[redo] = x_redo
        resid[~keep] = _own_residual(base[redo], bare, eps, x_redo)
    residual = np.full(n, np.nan)
    residual[live] = _rho_max_abs(resid)
    return x, converged, iterations, residual, failed, m


def _solve_point(params: SystemParams, drive: Drive, delta_c: float,
                 opts: SolveOptions) -> tuple[np.ndarray, bool, int, float]:
    """``(x, converged, iterations, residual)`` of :func:`_solve_axis` at
    one detuning; raises :class:`SingularSystem` where it is not settled."""
    x, converged, iterations, residual, failed, m = _solve_axis(
        params, drive, np.array([delta_c]), opts)
    if failed[0]:
        raise _singular(_couplings(bare_rabi(params, drive)), m[0])
    return x[0], bool(converged[0]), int(iterations[0]), float(residual[0])


def solve_selfconsistent(params: SystemParams, drive: Drive,
                         opts: SolveOptions | None = None) -> SteadyResult:
    """Steady state with the local-field correction iterated to a fixed point.

    The one-point case of :func:`solve_grid`, at the drive as given
    (a pinned ``epsilon`` included).  Newton's method on the four effective
    couplings runs until the max-abs change in rho between successive
    solves drops below ``fp_tol``; where a Newton step fails to make
    progress, the damped Picard iteration continues from the last iterate.
    The returned rho is the last solve, at a Rabi set that reproduces
    itself to within the last Newton step, so it satisfies the
    self-consistent equations to round-off.  Raises :class:`SingularSystem`
    where the steady state is not unique.
    """
    opts = opts or SolveOptions()
    x, converged, iterations, residual = _solve_point(params, drive,
                                                      drive.delta_c, opts)
    rho = unpack(x)
    return SteadyResult(
        rho=rho, converged=converged, iterations=iterations,
        residual=residual, rabi_final=effective_rabi(params, drive, rho),
        message="" if converged else
        f"fixed-point iteration did not converge in {opts.max_iters} steps")


def solve_grid(params: SystemParams, omega: float, delta_c,
               ndd_enabled: bool = False,
               opts: SolveOptions | None = None) -> GridSolution:
    """Steady states at drive ``omega`` over the detuning axis ``delta_c``.

    The generators of all points form one stack, solved by one batched LU
    and one refinement step, with Newton in lockstep over the stack when
    the local-field correction is on (see :func:`_solve_axis`).  A point
    the stack does not settle is solved again as a one-point stack, and its
    :class:`SingularSystem` marks the point singular.
    """
    opts = opts or SolveOptions()
    delta_c = np.asarray(delta_c, dtype=float)
    drive = Drive(omega=omega, ndd_enabled=ndd_enabled)
    x, converged, iterations, residual, failed, _ = _solve_axis(
        params, drive, delta_c, opts)
    singular = np.zeros(len(x), dtype=bool)
    for k in np.flatnonzero(failed):
        try:
            x[k], converged[k], iterations[k], residual[k] = _solve_point(
                params, drive, delta_c[k], opts)
        except SingularSystem:
            singular[k] = True
    x[singular], residual[singular] = np.nan, np.nan
    converged[singular], iterations[singular] = False, 0
    return GridSolution(x=x, converged=converged, iterations=iterations,
                        residual=residual, singular=singular)
