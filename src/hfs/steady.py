"""Steady-state solvers.

At a fixed Rabi set the equations of motion are linear in the 16 real state
components, so the steady state is a direct linear solve with one population
row traded for the unit-trace constraint.  With the local-field correction
enabled the couplings depend on Re(rho_ij) and the linear solve is wrapped in
a damped Picard iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import pack, rhs_verbatim, unpack
from .params import Drive, RabiSet, SystemParams, bare_rabi, effective_rabi

_ZERO_ROW_TOL = 1e-13
_COND_LIMIT = 1e12


class SingularSystem(Exception):
    """Steady state not unique beyond the trace direction (e.g. zero drive)."""

    def __init__(self, message: str, cond: float | None = None):
        if cond is not None:
            message = f"{message} (condition estimate {cond:.3e})"
        super().__init__(message)
        self.cond = cond


@dataclass(frozen=True)
class SolveOptions:
    """Fixed-point iteration controls for the self-consistent solve."""

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


def solve_linear_steady(params: SystemParams, drive: Drive,
                        rabi: RabiSet) -> np.ndarray:
    """Steady state at a frozen Rabi set.

    The population-1 row is replaced by the trace constraint.  A population
    whose equation row is identically zero (a level fully decoupled from
    drive and decay) is pinned to zero, matching evolution from the ground
    state.  Any remaining rank deficiency raises :class:`SingularSystem`.
    """
    if rabi.max_abs() == 0.0:
        raise SingularSystem("all effective couplings vanish; "
                             "ground populations are undetermined")
    a = generator_matrix(params, drive, rabi)
    m = a.copy()
    b = np.zeros(16)
    scale = max(np.max(np.abs(a)), 1.0)
    m[0, :] = 0.0
    m[0, 0:4] = 1.0
    b[0] = 1.0
    for i in range(1, 4):
        if np.max(np.abs(a[i, :])) < _ZERO_ROW_TOL * scale:
            m[i, :] = 0.0
            m[i, i] = 1.0
    try:
        lu, piv = scipy.linalg.lu_factor(m)
        x = scipy.linalg.lu_solve((lu, piv), b)
        # one step of iterative refinement keeps the residual near round-off
        x += scipy.linalg.lu_solve((lu, piv), b - m @ x)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc), cond=float(np.linalg.cond(m))) from exc
    # the physical residual excludes the replaced rows
    resid = float(np.max(np.abs(pack(
        rhs_verbatim(params, drive, unpack(x), rabi=rabi)))))
    if not np.all(np.isfinite(x)) or resid > 1e-8:
        raise SingularSystem("steady-state system is rank deficient",
                             cond=float(np.linalg.cond(m)))
    return unpack(x)


def residual_norm(params: SystemParams, drive: Drive,
                  rho: np.ndarray) -> float:
    """Max-abs element of the equations of motion with self-consistent Rabi."""
    rabi = effective_rabi(params, drive, rho)
    return float(np.max(np.abs(rhs_verbatim(params, drive, rho, rabi=rabi))))


def solve_selfconsistent(params: SystemParams, drive: Drive,
                         opts: SolveOptions | None = None) -> SteadyResult:
    """Steady state with the local-field correction iterated to a fixed point.

    Without the correction the first linear solve is already the fixed point.
    Otherwise: recompute the Rabi set from the current iterate, re-solve, mix
    with ``damping``, until the max-abs change in rho drops below ``fp_tol``.
    The last step is always an undamped solve at the final Rabi set so the
    returned rho satisfies the equations to round-off.
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

    rho = opts.warm_start
    if rho is None:
        rho = solve_linear_steady(params, drive, bare_rabi(params, drive))
    converged = False
    iterations = 0
    for iterations in range(1, opts.max_iters + 1):
        rabi = effective_rabi(params, drive, rho)
        rho_new = solve_linear_steady(params, drive, rabi)
        change = float(np.max(np.abs(rho_new - rho)))
        rho = opts.damping * rho_new + (1.0 - opts.damping) * rho
        if change < opts.fp_tol:
            converged = True
            break
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
