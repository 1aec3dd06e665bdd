"""Steady-state solvers.

At a fixed Rabi set the equations of motion are linear in the 16 real state
components, so the steady state is a direct linear solve with one population
row traded for the unit-trace constraint.  With the local-field correction
enabled the four effective couplings depend on Re(rho_ij), and the steady
state is a fixed point in those couplings.  It is found by Newton's method on
the couplings, whose 4x4 Jacobian comes from differentiating the linear
solve; a damped Picard iteration takes over whenever a Newton step fails to
make progress.

:func:`solve_selfconsistent` solves one drive.  :func:`solve_grid` solves a
whole detuning axis at one drive strength as one stack: the generator is
affine in the detuning and the couplings,
``A = A(0) + delta * A_delta + sum_q rabi_q * B_q``, so the axis is a single
``(N, 16, 16)`` array with batched solves, and Newton runs in lockstep over
it.  Both share the row handling and the Newton step, and
:func:`solve_selfconsistent` is the reference the grid is checked against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

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
    return pack(rhs_verbatim(params, drive, unpack(np.eye(16)), rabi=rabi))


def _couplings(rabi: RabiSet) -> np.ndarray:
    """The four couplings as an array, in ``PAIRS`` order."""
    return np.array([rabi.o13, rabi.o14, rabi.o23, rabi.o24])


@functools.cache
def _coupling_basis() -> np.ndarray:
    """(4, 16, 16) stack B with A(rabi) = A(0) + sum_q rabi_q * B[q].

    The couplings enter the equations of motion with pure-number
    coefficients, so B depends on neither the parameters nor the detuning;
    the split is exact.  Built once from :func:`generator_matrix`, read-only.
    """
    params, drive = SystemParams(), Drive(omega=0.0)
    a0 = generator_matrix(params, drive, _NO_COUPLING)
    basis = np.stack([generator_matrix(params, drive, RabiSet(*e)) - a0
                      for e in np.eye(4)])
    basis.flags.writeable = False
    return basis


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
    basis = (generator_matrix(params, Drive(omega=0.0), _NO_COUPLING)
             - generator_matrix(params, Drive(omega=0.0, delta_c=-1.0),
                                _NO_COUPLING))
    basis.flags.writeable = False
    return basis


def _detuning_stack(params: SystemParams, delta_c: np.ndarray) -> np.ndarray:
    """(N, 16, 16) generators without couplings at the detunings ``delta_c``.

    ``A(0)`` comes from :func:`generator_matrix` at ``delta_c = -delta_u``,
    where the detuning is exactly 0.  An entry matches the per-point
    generator exactly or, where the per-point build subtracts both
    splittings from the detuning, to rounding.
    """
    a0 = generator_matrix(params, Drive(omega=0.0, delta_c=-params.delta_u),
                          _NO_COUPLING)
    delta = np.asarray(delta_c, dtype=float) + params.delta_u
    return a0 + delta[:, None, None] * _detuning_basis()


def _system_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Steady-state system matrices from generators ``a``, (..., 16, 16).

    The population-1 row is replaced by the trace constraint, and every
    population row that is identically zero (a level fully decoupled from
    drive and decay) is pinned to zero, matching evolution from the ground
    state.  Returns ``(m, kept)``, ``kept`` masking the generator rows kept
    as equations.
    """
    row_max = np.max(np.abs(a), axis=-1)
    scale = np.maximum(np.max(row_max, axis=-1, keepdims=True), 1.0)
    kept = row_max >= _ZERO_ROW_TOL * scale
    kept[..., 0] = False
    kept[..., 4:] = True
    m = np.where(kept[..., None], a, 0.0)
    m[..., 0, 0:4] = 1.0
    m[..., _PINNABLE, _PINNABLE] = np.where(
        kept[..., _PINNABLE], m[..., _PINNABLE, _PINNABLE], 1.0)
    return m, kept


def _steady_system(params: SystemParams, drive: Drive, rabi: RabiSet):
    """Factor and solve the steady-state system at a frozen Rabi set.

    Returns ``(x, m, kept)``: the packed solution, the system matrix of
    :func:`_system_rows` and its mask of kept rows.  Raises
    :class:`SingularSystem` when the couplings all vanish or the system has
    no unique finite solution.
    """
    if rabi.max_abs() == 0.0:
        raise SingularSystem("all effective couplings vanish; "
                             "ground populations are undetermined")
    m, kept = _system_rows(generator_matrix(params, drive, rabi))
    lu, piv, info = lapack.dgetrf(m)
    x = lapack.dgetrs(lu, piv, _TRACE_RHS)[0]
    if info != 0 or not np.all(np.isfinite(x)):
        raise SingularSystem("steady-state system is rank deficient",
                             cond=float(np.linalg.cond(m)))
    # one step of iterative refinement keeps the residual near round-off
    x += lapack.dgetrs(lu, piv, _TRACE_RHS - m @ x)[0]
    return x, m, kept


def solve_linear_steady(params: SystemParams, drive: Drive,
                        rabi: RabiSet) -> np.ndarray:
    """Steady state at a frozen Rabi set.

    The population-1 row is replaced by the trace constraint.  A population
    whose equation row is identically zero (a level fully decoupled from
    drive and decay) is pinned to zero, matching evolution from the ground
    state.  Any remaining rank deficiency raises :class:`SingularSystem`.
    """
    x, m, _ = _steady_system(params, drive, rabi)
    # the physical residual excludes the replaced rows
    resid = float(np.max(np.abs(pack(
        rhs_verbatim(params, drive, unpack(x), rabi=rabi)))))
    if resid > _RESIDUAL_GATE:
        raise SingularSystem("steady-state system is rank deficient",
                             cond=float(np.linalg.cond(m)))
    return unpack(x)


def residual_norm(params: SystemParams, drive: Drive,
                  rho: np.ndarray) -> float:
    """Max-abs element of the equations of motion with self-consistent Rabi."""
    rabi = effective_rabi(params, drive, rho)
    return float(np.max(np.abs(rhs_verbatim(params, drive, rho, rabi=rabi))))


def _rho_max_abs(x: np.ndarray) -> np.ndarray:
    """Max-abs element of the 4x4 matrices behind packed ``x`` (..., 16)."""
    return np.maximum(np.max(np.abs(x[..., 0:4]), axis=-1),
                      np.max(np.hypot(x[..., 4::2], x[..., 5::2]), axis=-1))


def _newton_step(x: np.ndarray, m: np.ndarray, kept: np.ndarray,
                 eps: np.ndarray,
                 fixed_point_residual: np.ndarray) -> np.ndarray:
    """Newton correction to the couplings from the solution ``x`` at them.

    Differentiating M x = b gives dx/drabi_q = -M^-1 B~_q x, where B~_q is
    the coupling matrix with the replaced and pinned rows zeroed.  The
    fixed-point map's Jacobian is then I + diag(eps) dRe(x_p)/drabi_q.
    Takes one point or a stack (leading axes on every argument but
    ``eps``).  Raises ``LinAlgError`` when any matrix is singular.
    """
    bx = np.swapaxes(np.tensordot(x, _coupling_basis(), axes=(-1, -1)),
                     -1, -2)
    dx = -np.linalg.solve(m, np.where(kept[..., None], bx, 0.0))
    jac = np.eye(4) + eps[:, None] * dx[..., _PAIR_RE, :]
    return np.linalg.solve(jac, fixed_point_residual[..., None])[..., 0]


def _picard(params: SystemParams, drive: Drive, opts: SolveOptions,
            rho: np.ndarray, iterations: int) -> tuple[np.ndarray, bool, int]:
    """Damped Picard iteration from ``rho``, counting on from ``iterations``.

    Recompute the Rabi set from the current iterate, re-solve, mix with
    ``damping``, until the max-abs change in rho drops below ``fp_tol`` or
    ``max_iters`` iterations are spent in all.
    """
    for iterations in range(iterations + 1, opts.max_iters + 1):
        rho_new = solve_linear_steady(params, drive,
                                      effective_rabi(params, drive, rho))
        change = float(np.max(np.abs(rho_new - rho)))
        rho = opts.damping * rho_new + (1.0 - opts.damping) * rho
        if change < opts.fp_tol:
            return rho, True, iterations
    return rho, False, iterations


def _newton(params: SystemParams, drive: Drive, opts: SolveOptions,
            eps: np.ndarray) -> tuple[np.ndarray, bool, int]:
    """Newton iteration on the couplings, falling back to :func:`_picard`.

    The first iterate is the solve at the bare couplings, which counts as no
    iteration.  The fallback continues from the last iterate when the
    fixed-point residual fails to decrease, the Jacobian is singular, or a
    step is not finite.
    """
    bare = _couplings(bare_rabi(params, drive))
    rabi = bare
    x, m, kept = _steady_system(params, drive, RabiSet(*rabi))
    iterations = 0
    converged = False
    last_resid = np.inf
    while not converged and iterations < opts.max_iters:
        fp_resid = rabi - (bare - eps * x[_PAIR_RE])
        resid = float(np.max(np.abs(fp_resid)))
        if not resid < last_resid:
            break
        last_resid = resid
        try:
            step = _newton_step(x, m, kept, eps, fp_resid)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        rabi = rabi - step
        x_new, m, kept = _steady_system(params, drive, RabiSet(*rabi))
        iterations += 1
        converged = float(_rho_max_abs(x_new - x)) < opts.fp_tol
        x = x_new
    else:
        return unpack(x), converged, iterations
    # a step made no progress: damped Picard from the last iterate
    return _picard(params, drive, opts, unpack(x), iterations)


def solve_selfconsistent(params: SystemParams, drive: Drive,
                         opts: SolveOptions | None = None) -> SteadyResult:
    """Steady state with the local-field correction iterated to a fixed point.

    Without the correction the first linear solve is already the fixed point.
    Otherwise Newton's method on the four effective couplings runs until the
    max-abs change in rho between successive solves drops below ``fp_tol``;
    where a Newton step fails to make progress, the damped Picard iteration
    (mixing weight ``damping``) continues from the last iterate.  The last
    step is always a plain solve at the final Rabi set so the returned rho
    satisfies the equations to round-off.
    """
    opts = opts or SolveOptions()
    eps = drive.epsilon_for(params)
    ndd_active = drive.ndd_enabled and any(v != 0.0 for v in eps.values())

    if not ndd_active:
        rabi = bare_rabi(params, drive)
        rho = solve_linear_steady(params, drive, rabi)
        return SteadyResult(rho=rho, converged=True, iterations=1,
                            residual=residual_norm(params, drive, rho),
                            rabi_final=effective_rabi(params, drive, rho))

    rho, converged, iterations = _newton(
        params, drive, opts, np.array([eps[p] for p in PAIRS]))
    # final clean solve at the converged couplings
    rho = solve_linear_steady(params, drive, effective_rabi(params, drive, rho))
    return SteadyResult(
        rho=rho,
        converged=converged,
        iterations=iterations,
        residual=residual_norm(params, drive, rho),
        rabi_final=effective_rabi(params, drive, rho),
        message="" if converged else
        f"fixed-point iteration did not converge in {opts.max_iters} steps",
    )


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
    return base + np.tensordot(rabi, _coupling_basis(), axes=1)


def _apply(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix-vector products over a stack: (N, 16, 16) with (N, 16)."""
    return (m @ x[..., None])[..., 0]


def _solve_stack(base: np.ndarray, rabi: np.ndarray):
    """The steady-state systems of a generator stack, solved together.

    ``base`` holds the (N, 16, 16) generators without couplings and ``rabi``
    the couplings, (4,) or (N, 4).  Returns ``(x, a, m, kept, ok)``: the
    packed solutions, the generators, the system matrices and kept-row masks
    of :func:`_system_rows`, and the points whose solve is usable (couplings
    not all zero, solution finite).  ``x`` is zero where ``ok`` is False.
    One exactly singular matrix fails the whole batched solve, and then no
    point is usable.
    """
    a = _with_couplings(base, rabi)
    m, kept = _system_rows(a)
    try:
        x = np.linalg.solve(m, _TRACE_RHS[:, None])[..., 0]
    except np.linalg.LinAlgError:
        return np.zeros((len(a), 16)), a, m, kept, np.zeros(len(a), bool)
    ok = np.all(np.isfinite(x), axis=-1) & np.any(rabi != 0.0, axis=-1)
    x[~ok] = 0.0
    # one step of iterative refinement, as in _steady_system
    x += np.linalg.solve(m, (_TRACE_RHS - _apply(m, x))[..., None])[..., 0]
    ok &= np.all(np.isfinite(x), axis=-1)
    x[~ok] = 0.0
    return x, a, m, kept, ok


def _lockstep_newton(base: np.ndarray, bare: np.ndarray, eps: np.ndarray,
                     opts: SolveOptions):
    """Cold Newton on the couplings of every point of a stack at once.

    The stack form of :func:`_newton` up to its Picard fallback: each point
    leaves the lockstep when the max-abs change in rho drops below
    ``fp_tol`` or it has spent ``max_iters`` iterations.  Returns
    ``(x, converged, iterations, retry)``; ``retry`` marks the points whose
    fixed-point residual failed to decrease, whose step was not finite or
    whose system was singular, which are left for the per-point solver.
    """
    n = len(base)
    rabi = np.tile(bare, (n, 1))
    x, _, m, kept, ok = _solve_stack(base, rabi)
    retry = ~ok
    iterations = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    last_resid = np.full(n, np.inf)
    live = np.flatnonzero(ok)
    while live.size:
        fp_resid = rabi[live] - (bare - eps * x[live][:, _PAIR_RE])
        resid = np.max(np.abs(fp_resid), axis=-1)
        moving = resid < last_resid[live]
        last_resid[live] = resid
        retry[live[~moving]] = True
        live, fp_resid = live[moving], fp_resid[moving]
        try:
            step = _newton_step(x[live], m[live], kept[live], eps, fp_resid)
        except np.linalg.LinAlgError:
            step = np.full_like(fp_resid, np.nan)
        finite = np.all(np.isfinite(step), axis=-1)
        retry[live[~finite]] = True
        live, step = live[finite], step[finite]
        rabi[live] -= step
        x_new, _, m[live], kept[live], ok = _solve_stack(base[live],
                                                         rabi[live])
        retry[live[~ok]] = True
        iterations[live] += 1
        converged[live] = ok & (_rho_max_abs(x_new - x[live]) < opts.fp_tol)
        x[live] = x_new
        spent = iterations[live] >= opts.max_iters
        live = live[ok & ~converged[live] & ~spent]
    return x, converged, iterations, retry


def solve_grid(params: SystemParams, omega: float, delta_c,
               ndd_enabled: bool = False,
               opts: SolveOptions | None = None) -> GridSolution:
    """Steady states at drive ``omega`` over the detuning axis ``delta_c``.

    Point by point the same as :func:`solve_selfconsistent` up to rounding.
    The generators of all points form one stack, solved by one batched LU
    and one refinement step; with the local-field correction, Newton runs in
    lockstep over the stack from the bare couplings, followed by a clean
    solve at the couplings reached.  The residual gate of
    :func:`solve_linear_steady` and the ``residual`` of :func:`residual_norm`
    are computed on the stack.  A point the stack does not settle (a
    singular or non-finite solve, a failed gate, a Newton step that stalls
    or is not finite) is solved again by :func:`solve_selfconsistent`, and
    its :class:`SingularSystem` marks the point singular.
    """
    opts = opts or SolveOptions()
    delta_c = np.asarray(delta_c, dtype=float)
    drive = Drive(omega=omega, ndd_enabled=ndd_enabled)
    eps = np.array([drive.epsilon_for(params)[p] for p in PAIRS])
    bare = _couplings(bare_rabi(params, drive))
    ndd_active = ndd_enabled and bool(np.any(eps != 0.0))
    base = _detuning_stack(params, delta_c)
    n = delta_c.size

    if ndd_active:
        x, converged, iterations, retry = _lockstep_newton(base, bare, eps,
                                                           opts)
    else:
        x = np.zeros((n, 16))
        converged, iterations = np.ones(n, dtype=bool), np.ones(n, dtype=int)
        retry = np.zeros(n, dtype=bool)

    # the clean solve at the couplings reached, gated as solve_linear_steady
    live = np.flatnonzero(~retry)
    rabi = bare - eps * x[live][:, _PAIR_RE] if ndd_active else bare
    x_live, a, _, _, ok = _solve_stack(base[live], rabi)
    ok &= np.max(np.abs(_apply(a, x_live)), axis=-1) <= _RESIDUAL_GATE
    if ndd_active:
        # the residual is taken at the couplings of the state returned
        a = _with_couplings(base[live], bare - eps * x_live[:, _PAIR_RE])
    residual = np.full(n, np.nan)
    x[live], residual[live] = x_live, _rho_max_abs(_apply(a, x_live))
    retry[live[~ok]] = True

    singular = np.zeros(n, dtype=bool)
    for k in np.flatnonzero(retry):
        point = Drive(omega=omega, delta_c=float(delta_c[k]),
                      ndd_enabled=ndd_enabled)
        try:
            res = solve_selfconsistent(params, point, opts)
        except SingularSystem:
            singular[k] = True
            x[k], converged[k], iterations[k] = np.nan, False, 0
            residual[k] = np.nan
            continue
        x[k], converged[k] = pack(res.rho), res.converged
        iterations[k], residual[k] = res.iterations, res.residual
    return GridSolution(x=x, converged=converged, iterations=iterations,
                        residual=residual, singular=singular)
