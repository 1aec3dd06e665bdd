"""Time evolution of the density matrix.

Every route uses the affine split of the generator that the steady layer
builds from ``rhs_verbatim``: at packed state ``x`` the couplings are
``r(x) = bare - eps * Re(x_p)`` over the four coupled pairs ``p``, so the
generator is ``A(x) = A_bare - sum_q eps_q Re(x_p)_q B_q`` with ``A_bare`` the
generator at the bare couplings (one product of eleven coefficients with the
generator basis) and ``B_q`` the basis's coupling slice.  With the local-field
correction off (``eps = 0``) it is the fixed matrix ``A_bare``.  Elsewhere it
is ``A_bare - x G``, with the steady layer's constant state matrix ``G``: the
generator at the state's couplings, bit for bit.

With a fixed generator (the correction off, or every ``eps`` zero) the
flow is linear and ``evolve`` propagates it exactly, ``x(t) = expm(A_bare t)
x0`` (Moler and Van Loan, SIAM Rev. 45, 3 (2003)).  Without requested sample
times it samples the uniform grid of ``n = max(1, ceil(t_end
||A_bare||_1))`` steps from 0 to ``t_end``: the 1-norm bounds the spectral
radius, so the grid resolves the fastest oscillation.  One
``scipy.linalg.expm`` gives the one-step propagator, and the samples are
filled by doubling, in about log2(n) batched products.  At requested times
it takes one batched ``scipy.linalg.expm``.  Otherwise, or with an explicit
``method``, ``evolve`` integrates ``dx/dt = A_bare x - (eps * Re(x_p)) .
(B x)`` with ``scipy.integrate.solve_ivp`` (DOP853 by default).  Both routes
work on the Hermitian real packing, so hermiticity holds structurally along
the trajectory.  ``relax_to_steady`` is the independent route to the steady
state used to cross-check the linear solver: it propagates over chunks of
doubling length with matrix exponentials of the generator frozen at the
chunk's couplings (exact for the linear problem, and sharing its fixed points
with the full nonlinear flow when the local-field correction is on).  With a
fixed generator each chunk's propagator is the square of the previous one,
so one exponential serves every chunk.  A chunked Runge-Kutta route,
integrated by DOP853 whatever the generator, is available too.

The exact route of ``evolve`` calls ``scipy.linalg.expm`` (the
scaling-and-squaring Pade algorithm of Al-Mohy and Higham, SIAM J. Matrix
Anal. Appl. 31, 970 (2009)) once per call, so its argument checks cost
little, and it handles diagonal and triangular generators.  The
relaxation's exponentials come from :func:`_expm`, which runs the generic
route of ``scipy.linalg.expm`` on one real matrix: scipy's own kernels
``pick_pade_structure`` and ``pade_UV_calc`` from
``scipy.linalg._matfuncs_expm``, then the squarings.  On a 16x16 generator
a quarter to a third of an ``expm`` call is its argument checks and batch
loop, which a relaxation would pay once per chunk; the kernels alone give
the same matrix bit for bit.  Each relaxation owns one ``(5, 16, 16)``
work array, which it hands to :func:`_expm`: a chunk's generator is scaled
into its slot 0, the Pade step and the squarings run in it, and a fixed
generator's propagators are squared within it; the generator at the
state's couplings is refreshed in place.  The relaxation's chunk loop (its
squarings, its generator refresh and its matrix-vector products) and the
exact route's uniform-grid fill and squarings are ``np.dot`` calls: on
these contiguous float64 operands ``np.dot`` runs the same BLAS kernel as
``@``, so the bits are those of ``@``, without the matmul dispatch and,
where ``out`` is given, a new array per product.  Three products stay
``@``: the relaxation's residual at its initial state, taken once per
call, the exact route's batched propagators applied at requested times,
and the integrators' right-hand sides.  A relaxation chunk, or initial
state, whose largest packed element of drho/dt is at or above
``residual_tol`` skips the full residual (never smaller).  The kernels
are private to scipy.  This module relies on the contract of their C
implementation:
``pick_pade_structure`` scales the work array itself, and
``pade_UV_calc(Am, m)`` returns an error code.  Older scipy releases had a
Cython version with another argument list that left the scaling to
``expm``.  Hence the ``scipy>=1.17`` floor in ``pyproject.toml``: the
release the bit-for-bit tests were run against.

Importing this module loads ``scipy.linalg``.  ``scipy.integrate`` is
loaded on the first ``evolve`` call that integrates: ``evolve`` with the
local-field correction on or an explicit ``method``, and
``relax_to_steady(method="rk")``.  The default relaxation and ``evolve`` or
``hfs evolve`` with a fixed generator do not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg._matfuncs_expm import pade_UV_calc, pick_pade_structure

from .model import (STATE_COLUMNS, ground_state, pack, unpack,
                    validate_density_matrix)
from .params import Drive, RabiSet, SystemParams, effective_rabi
from .steady import (_COUPLINGS, _PAIR_RE, SteadyResult, _affine_split,
                     _basis, _rho_max_abs, _state_linear)

_TRACE_DEFECT_LIMIT = 1e-9

#: the packed ground state, the relaxation's default initial state;
#: read-only, so that no relaxation can write to it
_GROUND_PACKED = pack(ground_state())
_GROUND_PACKED.flags.writeable = False

TRAJECTORY_CSV_HEADER = ",".join(("t",) + STATE_COLUMNS)


class StepSizeUnderflow(Exception):
    def __init__(self, t_reached: float):
        super().__init__(f"integrator step size underflow at t = {t_reached}")
        self.t_reached = t_reached


@dataclass
class Trajectory:
    t: np.ndarray                 # times, units of 1/gamma, strictly increasing
    rho: np.ndarray               # (n, 4, 4) complex samples

    def __len__(self) -> int:
        return len(self.t)

    @property
    def final(self) -> np.ndarray:
        return self.rho[-1]


def _affine_rhs(a_bare: np.ndarray, eps: np.ndarray):
    """``f(t, x)``, the packed equations of motion on the affine split:
    ``a_bare x - (eps * x[_PAIR_RE]) . (B x)``, one matvec when ``eps`` is
    zero."""
    if not eps.any():
        return lambda t, x: a_bare @ x
    basis = _basis()[_COUPLINGS]
    return lambda t, x: a_bare @ x - (eps * x[_PAIR_RE]) @ (basis @ x)


def _expm(a: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """``scipy.linalg.expm(a)`` for one real (n, n) matrix that is neither
    diagonal nor triangular, bit for bit: scipy's Pade step on a
    ``(5, n, n)`` work array, then its squarings, without the argument
    checks and the batch loop around them.  ``expm`` squares by ``e @ e``;
    here each square is ``np.dot`` into the other of the work array's
    slots 0 and 1 (after the Pade step slot 1 holds a spent power of
    ``a``), the same BLAS product without a new array each time.  The work
    array is this call's own, or ``work`` when the caller owns one, whose
    slot 0 must then hold ``a`` already; the result is a view of it, which
    the next call on the same work array overwrites.  Raises as ``expm``
    does when a kernel fails."""
    if work is None:
        work = np.empty((5,) + a.shape)
        work[0] = a
    m, s = pick_pade_structure(work)
    if m < 0:
        raise MemoryError("could not allocate the Pade structure "
                          f"(error code {m})")
    info = pade_UV_calc(work, m)
    if info != 0:
        if info <= -11:
            raise MemoryError("could not allocate the exponential "
                              f"(error code {info})")
        raise RuntimeError("internal LAPACK error in the exponential "
                           f"(error code {info})")
    # the squarings alternate between slot 0 and the spent slot 1
    e, spare = work[0], work[1]
    for _ in range(s):
        e, spare = np.dot(e, e, out=spare), e
    return e


def _initial_state(rho0) -> np.ndarray:
    """``rho0`` as a complex array; ValueError unless it is a finite 4x4
    matrix that :func:`validate_density_matrix` finds Hermitian and of unit
    trace (each within 1e-9)."""
    rho = np.asarray(rho0, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"rho0 must have shape (4, 4), not {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("rho0 must be finite")
    report = validate_density_matrix(rho)
    if not report.hermitian:
        raise ValueError("rho0 must be Hermitian")
    if not report.unit_trace:
        raise ValueError("rho0 must have unit trace")
    return rho


def _sample_times(t_eval, t_end: float) -> np.ndarray | None:
    """``t_eval`` as a new float array (None stays None); ValueError unless
    it is a non-empty, finite, strictly increasing 1-D grid within
    ``[0, t_end]``."""
    if t_eval is None:
        return None
    t = np.array(t_eval, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("t_eval must be a non-empty 1-D array of times")
    if not np.all(np.isfinite(t)):
        raise ValueError("t_eval must be finite")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("t_eval must be strictly increasing")
    if t[0] < 0.0 or t[-1] > t_end:
        raise ValueError(f"t_eval must lie within [0, t_end = {t_end!r}]")
    return t


def _propagate(a: np.ndarray, x0: np.ndarray, t_end: float,
               t_eval: np.ndarray | None):
    """``(t, xs)``: the exact flow ``x(t) = expm(a t) x0``, one state per
    row of ``xs``.  At ``t_eval`` it is one batched ``scipy.linalg.expm``;
    without it the samples lie on the uniform grid of ``n = max(1,
    ceil(t_end ||a||_1))`` steps (the 1-norm bounds the spectral radius, so
    the grid resolves the fastest oscillation), filled by doubling from the
    one-step propagator: the first ``k`` samples advanced ``k`` steps give
    the next ``k``, and the propagator is squared each round."""
    if t_eval is not None:
        return t_eval, scipy.linalg.expm(t_eval[:, None, None] * a) @ x0
    n = max(1, math.ceil(t_end * np.linalg.norm(a, 1)))
    xs = np.empty((n + 1, x0.size))
    xs[0] = x0
    prop = scipy.linalg.expm(a * (t_end / n))
    done = 1
    while True:
        m = min(done, n + 1 - done)
        np.dot(xs[:m], prop.T, out=xs[done:done + m])
        done += m
        if done > n:
            return np.linspace(0.0, t_end, n + 1), xs
        prop = np.dot(prop, prop)


def evolve(params: SystemParams, drive: Drive, rho0: np.ndarray,
           t_end: float, rtol: float = 1e-8, atol: float = 1e-10,
           t_eval: np.ndarray | None = None,
           method: str | None = None) -> Trajectory:
    """The trajectory from ``rho0`` up to ``t_end``.

    With ``method=None`` (the default) and a fixed generator (the
    local-field correction off, or every ``eps`` zero) the flow is
    propagated exactly, ``x(t) = expm(A_bare t) x0``.  Without ``t_eval``
    the samples then lie on a uniform grid from 0 to ``t_end`` with a step
    of at most ``1 / ||A_bare||_1``.  Otherwise the equations of motion are
    integrated by ``scipy.integrate.solve_ivp`` with ``method`` (DOP853 when
    None), the local-field coupling evaluated from the instantaneous state
    at every stage, and sampled at the integrator's steps.  An explicit
    ``method`` always integrates.  ``rtol`` and ``atol`` are the
    integrator's tolerances and are not read by the exact route, which
    never raises :class:`StepSizeUnderflow`.

    ``t_eval``, when given, must be a non-empty, finite, strictly
    increasing grid within ``[0, t_end]``; the samples are taken there.  A
    stored sample whose trace drifts beyond 1e-9 is renormalised.  ``rho0``
    must be a finite 4x4 matrix, Hermitian and of unit trace within 1e-9.
    Invalid arguments raise ValueError before any propagation, as does a
    ``t_end`` so long that ``t_end * ||A_bare||_1`` overflows.
    """
    if not 0.0 < t_end < np.inf:
        raise ValueError("t_end must be positive and finite")
    if not (0.0 < rtol < np.inf and 0.0 < atol < np.inf):
        raise ValueError("tolerances must be positive and finite")
    t_eval = _sample_times(t_eval, t_end)
    x0 = pack(_initial_state(rho0))
    (a_bare,), _, eps = _affine_split(params, drive, [drive.delta_c])
    if not math.isfinite(float(t_end) * float(np.linalg.norm(a_bare, 1))):
        raise ValueError("t_end * ||A_bare||_1 overflows: t_end is too long "
                         "for this drive")

    if method is None and not eps.any():
        t, xs = _propagate(a_bare, x0, t_end, t_eval)
    else:
        # imported here so that the exact routes never load the integrator
        from scipy.integrate import solve_ivp

        sol = solve_ivp(_affine_rhs(a_bare, eps), (0.0, t_end), x0,
                        method=method or "DOP853", rtol=rtol, atol=atol,
                        t_eval=t_eval, dense_output=False)
        if sol.status == -1:
            raise StepSizeUnderflow(float(sol.t[-1]) if len(sol.t) else 0.0)
        t, xs = sol.t, sol.y.T

    rhos = np.ascontiguousarray(np.moveaxis(unpack(xs.T), -1, 0))
    tr = np.trace(rhos, axis1=1, axis2=2).real
    drifted = np.abs(tr - 1.0) > _TRACE_DEFECT_LIMIT
    rhos[drifted] /= tr[drifted, None, None]
    return Trajectory(t=t, rho=rhos)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Trajectory dump: one row per sample, the time then the packed state
    (populations, Re/Im coherences), floats as ``%.17g``."""
    cells = np.column_stack((traj.t, pack(np.moveaxis(traj.rho, 0, -1)).T))
    row = ",".join(["%.17g"] * cells.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRAJECTORY_CSV_HEADER + "\n")
        fh.write(row * len(cells) % tuple(cells.ravel().tolist()))


def relax_to_steady(params: SystemParams, drive: Drive,
                    rho0: np.ndarray | None = None,
                    residual_tol: float = 1e-9, t_max: float = 1e4,
                    method: str = "expm") -> SteadyResult:
    """Drive the state to the steady point by long-time propagation.

    Time chunks of length 1, 2, 4, ... (the last one cut at ``t_max``) are
    propagated until the residual of the equations of motion, the max-abs
    element of drho/dt at the state's own couplings, drops below
    ``residual_tol``.  ``method="expm"`` propagates each chunk with the
    matrix exponential of the generator frozen at the chunk's couplings,
    refreshed from the state between chunks; with a fixed generator (the
    local-field correction off, or every ``eps`` zero) the propagator of a
    doubled chunk is the square of the previous one.  Each exponential is
    :func:`_expm`: the matrix ``scipy.linalg.expm`` returns, from its Pade
    kernels without its per-call checks; an NDD-on relaxation takes one per
    chunk.  ``method="rk"`` integrates the same chunks with :func:`evolve`
    by DOP853, also where the generator is fixed.  Non-convergence within
    ``t_max`` is reported via the flag, never raised.  A given ``rho0`` is
    checked as in :func:`evolve`; the default is the ground state.

    The propagation slowly loses unit trace, and the residual cannot see
    it: ``c`` times a fixed point is a fixed point of the linear flow.  So
    a returned state whose trace drifted beyond 1e-9 is divided by its
    trace, as :func:`evolve`'s samples are, and ``residual``,
    ``converged`` and ``rabi_final`` are those of the state returned.  With
    a fixed generator this removes the drift's whole effect; with the
    local-field correction on, the couplings followed the drifted state
    along the way, so a remainder is left.  A state whose trace vanished
    or overflowed comes back NaN and not converged.

    ``residual_tol`` bounds the residual, not the distance to the fixed
    point, which can be larger by a factor of about one over the decay rate
    of the slowest mode: at ``residual_tol=1e-9`` one random parameter set
    with a slow mode (decay rates 3->1, 3->2 and 4->1 zero) stopped 2.1e-6
    from its fixed point.  Cross-checks on near-dark parameter sets should
    pass a tighter tolerance.
    """
    if method not in ("expm", "rk"):
        raise ValueError(f"unknown relaxation method: {method!r}")
    if not 0.0 < residual_tol < np.inf:
        raise ValueError("residual_tol must be positive and finite")
    if not 0.0 < t_max < np.inf:
        raise ValueError("t_max must be positive and finite")

    rho = None if rho0 is None else _initial_state(rho0)
    (a_bare,), bare, eps = _affine_split(params, drive, [drive.delta_c])

    def couplings(x):
        return bare - eps * x[_PAIR_RE]

    # the generator at the state's couplings: a_bare - x @ g, refreshed in
    # place between chunks through the flat views, or a_bare itself when
    # it is fixed
    x = _GROUND_PACKED if rho is None else pack(rho)
    fixed, a = not eps.any(), a_bare
    if not fixed:
        g, xg, a = _state_linear(eps), np.empty(256), np.empty((16, 16))
        a_bare_flat, a_flat = a_bare.reshape(256), a.reshape(256)
        np.subtract(a_bare_flat, np.dot(x, g, out=xg), out=a_flat)
    v = a @ x
    zero_drive = drive.omega == 0.0 and not np.any(couplings(x))
    # the full residual only where it may be returned (see the loop's screen)
    if zero_drive or not np.abs(v).max() >= residual_tol:
        resid = float(_rho_max_abs(v))
        if zero_drive or resid < residual_tol:
            rho = ground_state() if rho is None else rho
            return SteadyResult(
                rho=rho, converged=not zero_drive, iterations=0,
                residual=resid, rabi_final=effective_rabi(params, drive, rho),
                message="zero drive: steady state is not unique"
                if zero_drive else "")

    # the exponentials' work array: the chunk's scaled generator goes into
    # slot 0, and a fixed generator's squarings alternate between the
    # propagator's slot and slot 2
    work = np.empty((5, 16, 16))
    t, chunk, iterations = 0.0, 1.0, 0
    prop, spare = None, work[2]
    while t < t_max:
        dt = min(chunk, t_max - t)
        if method == "rk":
            x = pack(evolve(params, drive, unpack(x), dt,
                             method="DOP853").final)
        else:
            if fixed and prop is not None and dt == chunk:
                # twice the last chunk: expm(2 A s) = expm(A s)^2, into
                # the spare slot, which the last propagator becomes
                prop, spare = np.dot(prop, prop, out=spare), prop
            else:
                prop = _expm(np.multiply(a, dt, out=work[0]), work)
            x = np.dot(prop, x)
        t += dt
        chunk *= 2.0
        iterations += 1
        if not fixed:
            np.subtract(a_bare_flat, np.dot(x, g, out=xg), out=a_flat)
        np.dot(a, x, out=v)
        # max|v| <= _rho_max_abs(v): a chunk with max|v| at or above the
        # tolerance is not converged; a NaN goes on to the full residual
        if np.abs(v).max() >= residual_tol and t < t_max:
            continue
        resid = float(_rho_max_abs(v))
        if resid < residual_tol:
            break
    # the residual cannot see a drift of the trace (A (c x) = c A x), so a
    # state that drifted is renormalised, as evolve's samples are, and its
    # residual taken again at its own couplings
    tr = x[:4].sum()
    if abs(tr - 1.0) > _TRACE_DEFECT_LIMIT:
        # a trace that vanished or overflowed leaves a NaN state, which is
        # not converged
        with np.errstate(divide="ignore", invalid="ignore"):
            x = x / tr
        if not fixed:
            np.subtract(a_bare_flat, np.dot(x, g, out=xg), out=a_flat)
        resid = float(_rho_max_abs(np.dot(a, x, out=v)))
    converged = resid < residual_tol
    # effective_rabi's couplings, from the packed state: the bare ones
    # with the correction off
    rabi = couplings(x) if drive.ndd_enabled else bare
    return SteadyResult(rho=unpack(x), converged=converged,
                        iterations=iterations, residual=resid,
                        rabi_final=RabiSet(*rabi.tolist()),
                        message="" if converged else
                        f"residual {resid:.3e} above tolerance "
                        f"after t = {t_max}")
