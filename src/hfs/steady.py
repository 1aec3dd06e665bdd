"""Steady-state solvers.

At a fixed Rabi set the equations of motion are linear in the 16 real state
components, so the steady state is a direct linear solve with one population
row traded for the unit-trace constraint.  With the local-field correction
enabled the four effective couplings depend on Re(rho_ij), and the steady
state is a fixed point in those couplings.  It is found by Newton's method on
the couplings, whose 4x4 Jacobian comes from differentiating the linear solve
(reusing its LU factors); a damped Picard iteration takes over whenever a
Newton step fails to make progress.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import STATE_COLUMNS, pack, rhs_verbatim, unpack
from .params import (PAIRS, Drive, RabiSet, SystemParams, bare_rabi,
                     effective_rabi)

_ZERO_ROW_TOL = 1e-13

#: the trace-constraint right-hand side of the replaced population-1 row
_TRACE_RHS = np.eye(16)[0]

#: packed index of Re(rho_ij) for each coupled pair, in ``PAIRS`` order
_PAIR_RE = np.array([STATE_COLUMNS.index(f"re_rho{p[::-1]}") for p in PAIRS])


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
    warm_start: np.ndarray | None = None

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


@functools.cache
def _coupling_basis() -> np.ndarray:
    """(4, 16, 16) stack B with A(rabi) = A(0) + sum_q rabi_q * B[q].

    The couplings enter the equations of motion with pure-number
    coefficients, so B depends on neither the parameters nor the detuning;
    the split is exact.  Built once from :func:`generator_matrix`, read-only.
    """
    params, drive = SystemParams(), Drive(omega=0.0)
    a0 = generator_matrix(params, drive, RabiSet(0.0, 0.0, 0.0, 0.0))
    basis = np.stack([generator_matrix(params, drive, RabiSet(*e)) - a0
                      for e in np.eye(4)])
    basis.flags.writeable = False
    return basis


def _steady_system(params: SystemParams, drive: Drive, rabi: RabiSet):
    """Factor and solve the steady-state system at a frozen Rabi set.

    The population-1 row is replaced by the trace constraint, and every
    population row that is identically zero is pinned to zero.  Returns
    ``(x, m, lu_piv, kept)``: the packed solution, the system matrix, its LU
    factors and the mask of generator rows kept as equations.
    """
    if rabi.max_abs() == 0.0:
        raise SingularSystem("all effective couplings vanish; "
                             "ground populations are undetermined")
    a = generator_matrix(params, drive, rabi)
    row_max = np.max(np.abs(a), axis=1)
    kept = row_max >= _ZERO_ROW_TOL * max(row_max.max(), 1.0)
    kept[0] = False
    kept[4:] = True
    m = np.where(kept[:, None], a, 0.0)
    m[0, 0:4] = 1.0
    pinned = np.flatnonzero(~kept[1:4]) + 1
    m[pinned, pinned] = 1.0
    try:
        lu_piv = scipy.linalg.lu_factor(m)
        x = scipy.linalg.lu_solve(lu_piv, _TRACE_RHS)
        # one step of iterative refinement keeps the residual near round-off
        x += scipy.linalg.lu_solve(lu_piv, _TRACE_RHS - m @ x)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc), cond=float(np.linalg.cond(m))) from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystem("steady-state system is rank deficient",
                             cond=float(np.linalg.cond(m)))
    return x, m, lu_piv, kept


def solve_linear_steady(params: SystemParams, drive: Drive,
                        rabi: RabiSet) -> np.ndarray:
    """Steady state at a frozen Rabi set.

    The population-1 row is replaced by the trace constraint.  A population
    whose equation row is identically zero (a level fully decoupled from
    drive and decay) is pinned to zero, matching evolution from the ground
    state.  Any remaining rank deficiency raises :class:`SingularSystem`.
    """
    x, m, _, _ = _steady_system(params, drive, rabi)
    # the physical residual excludes the replaced rows
    resid = float(np.max(np.abs(pack(
        rhs_verbatim(params, drive, unpack(x), rabi=rabi)))))
    if resid > 1e-8:
        raise SingularSystem("steady-state system is rank deficient",
                             cond=float(np.linalg.cond(m)))
    return unpack(x)


def residual_norm(params: SystemParams, drive: Drive,
                  rho: np.ndarray) -> float:
    """Max-abs element of the equations of motion with self-consistent Rabi."""
    rabi = effective_rabi(params, drive, rho)
    return float(np.max(np.abs(rhs_verbatim(params, drive, rho, rabi=rabi))))


def _newton_step(x: np.ndarray, lu_piv, kept: np.ndarray, eps: np.ndarray,
                 fixed_point_residual: np.ndarray) -> np.ndarray:
    """Newton correction to the couplings from the solution ``x`` at them.

    Differentiating M x = b gives dx/drabi_q = -M^-1 B~_q x, where B~_q is
    the coupling matrix with the replaced and pinned rows zeroed; the solve
    reuses the LU factors of M.  The fixed-point map's Jacobian is then
    I + diag(eps) dRe(x_p)/drabi_q.  Raises ``LinAlgError`` when singular.
    """
    rhs = np.where(kept[:, None], (_coupling_basis() @ x).T, 0.0)
    dx = -scipy.linalg.lu_solve(lu_piv, rhs)
    jac = np.eye(4) + eps[:, None] * dx[_PAIR_RE]
    return np.linalg.solve(jac, fixed_point_residual)


def _max_change(x_new: np.ndarray, x: np.ndarray) -> float:
    """Max-abs elementwise change of rho between two packed states."""
    return float(np.max(np.abs(unpack(x_new) - unpack(x))))


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

    A cold start's first iterate is the solve at the bare couplings, which
    counts as no iteration; a warm start begins at the couplings of the warm
    state and its first solve is iteration 1.  The fallback continues from
    the last iterate when the fixed-point residual fails to decrease, the
    Jacobian is singular, or a step is not finite.
    """
    bare = np.array(list(bare_rabi(params, drive).as_dict().values()))
    x_prev = None if opts.warm_start is None else pack(opts.warm_start)
    rabi = bare if x_prev is None else bare - eps * x_prev[_PAIR_RE]
    x, _, lu_piv, kept = _steady_system(params, drive, RabiSet(*rabi))
    iterations = 0 if x_prev is None else 1
    converged = x_prev is not None and _max_change(x, x_prev) < opts.fp_tol
    last_resid = np.inf
    while not converged and iterations < opts.max_iters:
        fp_resid = rabi - (bare - eps * x[_PAIR_RE])
        resid = float(np.max(np.abs(fp_resid)))
        if not resid < last_resid:
            break
        last_resid = resid
        try:
            step = _newton_step(x, lu_piv, kept, eps, fp_resid)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        rabi = rabi - step
        x_new, _, lu_piv, kept = _steady_system(params, drive, RabiSet(*rabi))
        iterations += 1
        converged = _max_change(x_new, x) < opts.fp_tol
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
