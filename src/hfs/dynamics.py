"""Time evolution of the density matrix.

``evolve`` integrates the equations of motion with an adaptive embedded
Runge-Kutta pair (scipy's DOP853 by default) on the Hermitian real packing,
so hermiticity holds structurally along the trajectory.  ``relax_to_steady``
is the independent route to the steady state used to cross-check the linear
solver; for efficiency it propagates with matrix exponentials of the frozen-
coupling generator (exact for the linear problem, and sharing its fixed
points with the full nonlinear flow when the local-field correction is on),
with a chunked Runge-Kutta fallback available.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp

from .model import STATE_COLUMNS, pack, rhs_verbatim, unpack
from .params import Drive, SystemParams, effective_rabi
from .steady import SteadyResult, generator_matrix, residual_norm

_TRACE_DEFECT_LIMIT = 1e-9

TRAJECTORY_CSV_HEADER = ",".join(("t",) + STATE_COLUMNS)


class StepSizeUnderflow(Exception):
    def __init__(self, t_reached: float):
        super().__init__(f"integrator step size underflow at t = {t_reached}")
        self.t_reached = t_reached


@dataclass
class Trajectory:
    t: np.ndarray                 # times, units of 1/gamma, strictly increasing
    rho: np.ndarray               # (n, 4, 4) complex samples
    dense: bool = False
    trace_corrections: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.t)

    @property
    def final(self) -> np.ndarray:
        return self.rho[-1]


def evolve(params: SystemParams, drive: Drive, rho0: np.ndarray,
           t_end: float, rtol: float = 1e-8, atol: float = 1e-10,
           t_eval: np.ndarray | None = None,
           method: str = "DOP853") -> Trajectory:
    """Integrate the equations of motion from ``rho0`` up to ``t_end``.

    The local-field coupling, when enabled, is evaluated from the
    instantaneous state at every stage.  Trace drift beyond 1e-9 triggers a
    renormalisation of the stored sample, each logged in the trajectory.
    """
    if not 0.0 < t_end < np.inf:
        raise ValueError("t_end must be positive and finite")
    if not (0.0 < rtol < np.inf and 0.0 < atol < np.inf):
        raise ValueError("tolerances must be positive and finite")

    def f(t, x):
        return pack(rhs_verbatim(params, drive, unpack(x)))

    sol = solve_ivp(f, (0.0, t_end), pack(np.asarray(rho0, dtype=complex)),
                    method=method, rtol=rtol, atol=atol, t_eval=t_eval,
                    dense_output=False)
    if sol.status == -1:
        raise StepSizeUnderflow(float(sol.t[-1]) if len(sol.t) else 0.0)

    rhos = np.ascontiguousarray(np.moveaxis(unpack(sol.y), -1, 0))
    tr = np.trace(rhos, axis1=1, axis2=2).real
    drifted = np.abs(tr - 1.0) > _TRACE_DEFECT_LIMIT
    rhos[drifted] /= tr[drifted, None, None]
    return Trajectory(t=sol.t.copy(), rho=rhos, dense=t_eval is not None,
                      trace_corrections=sol.t[drifted].tolist())


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Trajectory dump: populations and Re/Im coherences per sample."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRAJECTORY_CSV_HEADER + "\n")
        for t, x in zip(traj.t, pack(np.moveaxis(traj.rho, 0, -1)).T):
            fh.write(",".join(f"{v:.17g}" for v in (t, *x)) + "\n")


def relax_to_steady(params: SystemParams, drive: Drive,
                    rho0: np.ndarray | None = None,
                    residual_tol: float = 1e-9, t_max: float = 1e4,
                    method: str = "expm") -> SteadyResult:
    """Drive the state to the steady point by long-time propagation.

    ``method="expm"`` takes time chunks of doubling length, propagating with
    expm of the generator frozen at the chunk's couplings; the couplings are
    refreshed from the state between chunks.  ``method="rk"`` integrates the
    same chunks with :func:`evolve`.  Non-convergence within ``t_max`` is
    reported via the flag, never raised.
    """
    if rho0 is None:
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[0, 0] = 1.0
    rho = np.asarray(rho0, dtype=complex)

    rabi0 = effective_rabi(params, drive, rho)
    if drive.omega == 0.0 and rabi0.max_abs() == 0.0:
        return SteadyResult(rho=rho, converged=False, iterations=0,
                            residual=residual_norm(params, drive, rho),
                            rabi_final=rabi0,
                            message="zero drive: steady state is not unique")

    resid = residual_norm(params, drive, rho)
    if resid < residual_tol:
        return SteadyResult(rho=rho, converged=True, iterations=0,
                            residual=resid,
                            rabi_final=effective_rabi(params, drive, rho))

    t = 0.0
    chunk = 1.0
    iterations = 0
    while t < t_max:
        dt = min(chunk, t_max - t)
        rabi = effective_rabi(params, drive, rho)
        if method == "expm":
            a = generator_matrix(params, drive, rabi)
            rho = unpack(scipy.linalg.expm(a * dt) @ pack(rho))
        elif method == "rk":
            rho = evolve(params, drive, rho, dt).final
        else:
            raise ValueError(f"unknown relaxation method: {method!r}")
        t += dt
        chunk *= 2.0
        iterations += 1
        resid = residual_norm(params, drive, rho)
        if resid < residual_tol:
            return SteadyResult(rho=rho, converged=True, iterations=iterations,
                                residual=resid,
                                rabi_final=effective_rabi(params, drive, rho))
    return SteadyResult(rho=rho, converged=False, iterations=iterations,
                        residual=resid,
                        rabi_final=effective_rabi(params, drive, rho),
                        message=f"residual {resid:.3e} above tolerance "
                                f"after t = {t_max}")
