"""Steady-state solver.

At a fixed Rabi set the equations of motion are linear in the 16 real state
components, so the steady state is a direct linear solve with one population
row traded for the unit-trace constraint.  The generator is linear in eleven
numbers (the decay rates and splittings, the bare detuning and the
couplings), ``A = sum_k c_k * K_k``, so every ``dA/dc_k`` is one matrix of a
constant basis ``K``, built once per process from ``rhs_verbatim``; no solve
calls it.  A detuning axis at one drive is a single ``(N, 16, 16)`` stack
solved by batched LU, and one drive is the one-point stack.  With the
local-field correction enabled the four effective couplings depend on
Re(rho_ij), and the steady state solves ``M(r(x)) x = e_0`` with couplings
``r`` affine in the packed state ``x``.  It is found by Newton's method on
``x``, in lockstep over the stack, from the solve at the bare couplings;
each iterate factors its matrices once, and the Newton matrix is the flow
Jacobian with the trace row in place.  A pass in which every point goes on
costs the Newton system, the batched solve and a few reductions; the flags
and the compaction of the live arrays run only in a pass where a point
leaves.  A point that settles returns its last Newton iterate; a point
whose Newton step fails to make progress continues by a damped Picard
iteration, and a clean solve follows at the couplings it reaches.  When
every point settles, the residuals are taken on the whole stack at once.

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

#: the trace-constraint row that replaces the population-1 row, and its
#: right-hand side
_TRACE_ROW = np.repeat([1.0, 0.0], [4, 12])
_TRACE_RHS = np.eye(16)[0]

#: population rows 2..4, the ones that may be pinned, and their pinned form
_PINNABLE = slice(1, 4)
_PINNED_ROWS = np.eye(16)[_PINNABLE]

#: packed index of Re(rho_ij) for each coupled pair, in ``PAIRS`` order
_PAIR_RE = np.array([STATE_COLUMNS.index(f"re_rho{p[::-1]}") for p in PAIRS])
#: the same indices in increasing order as a slice, and the pairs in that
#: order: ``_PAIR_RE[_PAIR_ORDER]`` is ``range(16)[_PAIR_SLICE]``
_PAIR_ORDER = np.argsort(_PAIR_RE)
_PAIR_SLICE = slice(6, 13, 2)
#: packed index of Im(rho_ij) for each coupled pair
_PAIR_IM = _PAIR_RE + 1

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


def _is_real(value) -> bool:
    """A real number that is not a bool: int, float or a numpy real."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


@dataclass(frozen=True)
class SolveOptions:
    """Controls of the self-consistent solve.

    ``fp_tol`` bounds the max-abs change in rho of the last step, a Newton
    step on the packed state or a Picard iteration; ``max_iters`` bounds
    both kinds of step together.  ``damping`` is the mixing weight of the
    Picard fallback only.
    """

    fp_tol: float = 1e-11
    max_iters: int = 500
    damping: float = 0.5

    def __post_init__(self):
        if not (_is_real(self.fp_tol) and 0.0 < self.fp_tol < np.inf):
            raise ValueError("fp_tol must be positive and finite")
        if not (_is_real(self.damping) and 0.0 < self.damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")
        if (isinstance(self.max_iters, bool)
                or not isinstance(self.max_iters, (int, np.integer))
                or self.max_iters < 1):
            raise ValueError("max_iters must be an integer >= 1")


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


#: the coefficients of the generator in the order of :func:`_basis`: the
#: decay rates and splittings ``_RATES``, the bare detuning, and the four
#: couplings in ``PAIRS`` order
_RATES = ("gamma31", "gamma32", "gamma41", "gamma42", "delta_g", "delta_e")
_DETUNING = 6
_COUPLINGS = slice(7, 11)


@functools.cache
def _basis() -> np.ndarray:
    """(11, 16, 16) stack K with A = sum_k c_k * K[k], read-only.

    The generator is homogeneous linear in eleven numbers with pure-number
    coefficients: the rates and splittings ``_RATES``, the bare detuning
    and the couplings, so K depends on no parameter.  ``K[k]`` is the change
    in :func:`generator_matrix` when coefficient k is raised by 1 (a
    splitting from 1 to 2) from a reference with unit splittings and every
    other coefficient 0, so every entry is exact.
    """
    ref = SystemParams(gamma31=0.0, gamma32=0.0, gamma41=0.0, gamma42=0.0,
                       delta_g=1.0, delta_e=1.0)

    def generator(params=ref, delta=0.0, rabi=_NO_COUPLING):
        drive = Drive(omega=0.0, delta_c=delta - params.delta_u)
        return generator_matrix(params, drive, rabi)

    basis = np.stack(
        [generator(ref.replace(**{k: getattr(ref, k) + 1.0})) for k in _RATES]
        + [generator(delta=1.0)]
        + [generator(rabi=RabiSet(*e)) for e in np.eye(4)]) - generator()
    basis.flags.writeable = False
    return basis


def _detuning_stack(params: SystemParams, delta_c: np.ndarray) -> np.ndarray:
    """(N, 16, 16) generators without couplings at the detunings ``delta_c``.

    ``A(0)`` is the rates and splittings of ``params`` contracted with their
    slice of :func:`_basis`, and the detuning adds ``delta * K[_DETUNING]``.
    An entry matches :func:`generator_matrix` at the same detuning exactly
    or, where either build adds rates or splittings together, to rounding.
    """
    basis = _basis()
    rates = [getattr(params, k) for k in _RATES]
    a0 = np.dot(rates, basis[:_DETUNING].reshape(_DETUNING, -1))
    delta = np.asarray(delta_c, dtype=float) + params.delta_u
    return a0.reshape(16, 16) + delta[:, None, None] * basis[_DETUNING]


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
    as equations.  ``m`` is a copy of ``a`` with the trace row over row 0
    and a unit row over each pinned one; a row is zero below ``_ZERO_ROW_TOL``
    times its matrix's max-abs (at least 1).
    """
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


def residual_norm(params: SystemParams, drive: Drive,
                  rho: np.ndarray) -> float:
    """Max-abs element of the equations of motion with self-consistent Rabi."""
    rabi = effective_rabi(params, drive, rho)
    return float(np.max(np.abs(rhs_verbatim(params, drive, rho, rabi=rabi))))


def _rho_max_abs(x: np.ndarray) -> np.ndarray:
    """Max-abs element of the 4x4 matrices behind packed ``x`` (..., 16)."""
    return np.maximum(np.abs(x[..., 0:4]).max(axis=-1),
                      np.hypot(x[..., 4::2], x[..., 5::2]).max(axis=-1))


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
    # sum_q rabi_q * B_q as one matmul against the basis's flat (4, 256)
    # coupling slice
    per_point = np.dot(rabi.reshape(-1, 4),
                       _basis()[_COUPLINGS].reshape(4, -1))
    return base + per_point.reshape(rabi.shape[:-1] + (16, 16))


@functools.cache
def _coupling_rows() -> np.ndarray:
    """(16, 64) read-only view ``C`` of the coupling slice of :func:`_basis`:
    ``x @ C`` holds the rows ``(B_q x)_i`` of states ``x`` (N, 16), flat in
    ``(q, i)``."""
    return _basis()[_COUPLINGS].reshape(64, 16).T


def _apply(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix-vector products over a stack: (N, 16, 16) with (N, 16)."""
    return (m @ x[..., None])[..., 0]


def _solve_stack(base: np.ndarray, rabi: np.ndarray):
    """The steady-state systems of a generator stack, solved together.

    ``base`` holds the (N, 16, 16) generators without couplings and ``rabi``
    the couplings, (4,) or (N, 4).  Returns ``(x, a, m, ok)``: the packed
    solutions, the generators, the system matrices of :func:`_system_rows`,
    and the points whose solve is usable (couplings not all zero, solution
    finite).  ``x`` is zero where ``ok`` is False.  One exactly singular
    matrix fails the whole batched solve, and then no point is usable.

    One step of iterative refinement keeps the residual near round-off.
    """
    a = _with_couplings(base, rabi)
    m, _ = _system_rows(a)
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


def _newton_system(base: np.ndarray, bare: np.ndarray, eps: np.ndarray,
                   x: np.ndarray):
    """``(rabi, m, f, jac)``: Newton's system at packed states ``x`` (N, 16).

    ``rabi`` holds the couplings ``bare - eps * x[_PAIR_RE]`` of each state,
    ``m`` the system matrices of :func:`_system_rows` at them, ``f = m x -
    e_0`` the residual of the steady-state system, and ``jac`` its
    derivative in ``x``: ``m - sum_q eps_q (B~_q x) e_{p_q}^T``, where
    ``B~_q`` is the coupling slice of :func:`_basis` with the trace and
    pinned rows zeroed and ``p_q = _PAIR_RE[q]``.  Below the trace row and
    off the pinned rows, ``jac`` is the Jacobian of the equations of motion
    with the couplings following the state.
    """
    rabi = bare - eps * x.take(_PAIR_RE, axis=-1)
    m, kept = _system_rows(_with_couplings(base, rabi))
    f = _apply(m, x) - _TRACE_RHS
    # the rows (B_q x)_i as columns q
    bx = (x @ _coupling_rows()).reshape(len(x), 4, 16)
    jac = m.copy()
    # the pair columns as a view, in increasing order
    jac[..., _PAIR_SLICE] -= (eps * kept[..., None]
                              * bx.swapaxes(-1, -2))[..., _PAIR_ORDER]
    return rabi, m, f, jac


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
    x, a, m, ok = _solve_stack(base, rabi)
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
    """Cold Newton on the packed states of every point of a stack at once.

    Each pass builds :func:`_newton_system` at the live states and takes
    the step ``-jac^-1 f`` in one batched solve.  From ``x = 0``, where
    ``jac`` is the system matrix at the bare couplings and ``f = -e_0``,
    the first step is the solve at the bare couplings, which counts as no
    iteration.  A point leaves the lockstep when its step's max-abs change
    in rho drops below ``fp_tol`` or it has spent ``max_iters`` iterations.
    Returns ``(x, m, converged, iterations, stalled, failed)``: ``m`` holds
    each point's last system matrix, ``stalled`` an iterate whose residual
    ``|f|`` failed to decrease or whose step was not finite (the point
    keeps that iterate), and ``failed`` couplings that all vanish, a solve
    at the bare couplings that was not finite, or a singular matrix that
    failed a batch.

    A pass in which every point goes on costs the system, the solve and a
    few reductions.  The max-abs of each step is not finite exactly where
    the step is not, and it bounds the step's change in rho from below
    (``hypot(a, b) >= max(|a|, |b|)``), so that change is taken only in a
    pass where some step may settle.  The flags are set, and the live
    arrays compacted (writing out the states of the points that leave),
    only in a pass where a point leaves; when every point leaves at once,
    the live arrays are the outputs.
    """
    n = len(base)
    x_out, m_out = np.empty((n, 16)), np.empty((n, 16, 16))
    failed, stalled, converged = np.zeros((3, n), dtype=bool)
    iterations = np.zeros(n, dtype=int)
    x, live, last, done = (np.zeros((n, 16)), np.arange(n),
                           np.full(n, np.inf), -1)

    def leave(keep):
        # write out the points not kept and compact the live arrays
        nonlocal live, x, m, base, last, step, size, x_out, m_out
        out = ~keep
        gone = live[out]
        if gone.size == n:  # all at once: the live arrays are the outputs
            x_out, m_out = x, m
        else:
            x_out[gone], m_out[gone] = x[out], m[out]
        live, iterations[gone] = live[keep], max(done, 0)
        if live.size:  # none left: a failed batch has no step yet
            x, m, base, last, step, size = (
                v[keep] for v in (x, m, base, last, step, size))

    while live.size:
        rabi, m, f, jac = _newton_system(base, bare, eps, x)
        try:
            step = np.linalg.solve(jac, f[..., None])[..., 0]
        except np.linalg.LinAlgError:
            if live.size > 1:
                # one singular matrix fails the batch, not every point
                failed[live] = True
                leave(np.zeros(live.size, dtype=bool))
                break
            step = np.full_like(f, np.nan)
        fnorm, size = np.abs(f).max(axis=-1), np.abs(step).max(axis=-1)
        coupled = (rabi != 0.0).any(axis=-1)
        going = coupled & np.isfinite(size) & (fnorm < last)
        if done >= 0:  # the state x = 0 sets no bar for the bare solve
            last = fnorm
        if not going.all():
            # a point whose solve at the bare couplings fails has no iterate
            ok = coupled & (np.isfinite(size) | (done >= 0))
            failed[live[~ok]] = True
            stalled[live[ok & ~going]] = True
            leave(going)
            if not live.size:
                break
        x -= step
        done += 1
        if done == opts.max_iters or (size < opts.fp_tol).any():
            settled = _rho_max_abs(step) < opts.fp_tol
            converged[live[settled]] = True
            leave(~settled & (done < opts.max_iters))
    return x_out, m_out, converged, iterations, stalled, failed


def _own_residual(base: np.ndarray, bare: np.ndarray, eps: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
    """Packed residuals (N, 16) of states ``x`` at their own couplings."""
    rabi = bare - eps * x.take(_PAIR_RE, axis=-1)
    return _apply(_with_couplings(base, rabi), x)


def _solve_axis(base: np.ndarray, bare: np.ndarray, eps: np.ndarray,
                opts: SolveOptions):
    """Steady states of the affine split ``(base, bare, eps)``, one stack.

    With the local-field correction, Newton on the packed state runs in
    lockstep from the solve at the bare couplings (:func:`_lockstep_newton`).
    A point it settles returns its last Newton iterate, gated on the
    residual of the generator at that state's own couplings; one that fails
    the gate is not settled.  Every other point (continued by :func:`_picard`
    from its last iterate after a stalled step, or out of iterations) gets a
    clean solve at the couplings reached, gated on the residual of its
    generator.  ``residual`` is taken at the couplings of the state
    returned.  Returns ``(x, converged, iterations, residual, failed, m)``,
    ``failed`` marking the points not settled (their other fields mean
    nothing) and ``m`` holding each point's last system matrix.
    """
    n = len(base)
    if not np.any(eps != 0.0):
        x, a, m, ok = _solve_stack(base, bare)
        resid = _apply(a, x)
        return (x, np.ones(n, dtype=bool), np.ones(n, dtype=int),
                _rho_max_abs(resid), ~(ok & _gate(resid)), m)

    x, m, converged, iterations, stalled, failed = _lockstep_newton(
        base, bare, eps, opts)
    if converged.all():
        # every point settled: no Picard, no clean solve, no subsets
        resid = _own_residual(base, bare, eps, x)
        return x, converged, iterations, _rho_max_abs(resid), ~_gate(resid), m

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
        x_redo, a, m[redo], ok = _solve_stack(
            base[redo], bare - eps * x[redo][:, _PAIR_RE])
        failed[redo[~(ok & _gate(_apply(a, x_redo)))]] = True
        x[redo] = x_redo
        resid[~keep] = _own_residual(base[redo], bare, eps, x_redo)
    residual = np.full(n, np.nan)
    residual[live] = _rho_max_abs(resid)
    return x, converged, iterations, residual, failed, m


def _state_couplings(bare: np.ndarray, eps: np.ndarray,
                     x: np.ndarray) -> np.ndarray:
    """The couplings (4,) that :func:`effective_rabi` gives at packed ``x``.

    ``bare - eps * Re(rho_ij)``, with the real parts formed as
    :func:`hfs.model.unpack` forms them: ``x_re + 1j * x_im`` keeps a
    ``-0.0`` in ``x_re`` only where ``x_im``'s sign bit is set, and
    ``x_re`` alone would not, which moves the sign of a zero coupling.
    """
    return bare - eps * (x.take(_PAIR_RE) + 1j * x.take(_PAIR_IM)).real


def _solve_point(params: SystemParams, drive: Drive, delta_c: float,
                 opts: SolveOptions
                 ) -> tuple[np.ndarray, bool, int, float, np.ndarray]:
    """``(x, converged, iterations, residual, rabi)`` of :func:`_solve_axis`
    at one detuning, ``rabi`` the couplings (4,) of :func:`effective_rabi`
    at ``x``; raises :class:`SingularSystem` where it is not settled."""
    base, bare, eps = _affine_split(params, drive, np.array([delta_c]))
    x, converged, iterations, residual, failed, m = _solve_axis(
        base, bare, eps, opts)
    if failed[0]:
        raise _singular(bare, m[0])
    x = x[0]
    rabi = _state_couplings(bare, eps, x) if drive.ndd_enabled else bare
    return x, bool(converged[0]), int(iterations[0]), float(residual[0]), rabi


def solve_selfconsistent(params: SystemParams, drive: Drive,
                         opts: SolveOptions | None = None) -> SteadyResult:
    """Steady state with the local-field correction iterated to a fixed point.

    The one-point case of :func:`solve_grid`, at the drive as given
    (a pinned ``epsilon`` included).  Newton's method on the packed state,
    from the solve at the bare couplings, runs until the max-abs change in
    rho of a step drops below ``fp_tol``; each step factors one matrix, the
    Jacobian of the flow with the trace row in place.  Where a Newton step
    fails to make progress, the damped Picard iteration continues from the
    last iterate.  The returned rho is the last Newton iterate, whose
    couplings are its own, so it satisfies the self-consistent equations to
    round-off; ``rabi_final`` is :func:`effective_rabi` at that rho, taken
    from the packed state.  Raises :class:`SingularSystem` where the steady
    state is not unique.
    """
    opts = opts or SolveOptions()
    x, converged, iterations, residual, rabi = _solve_point(
        params, drive, drive.delta_c, opts)
    return SteadyResult(
        rho=unpack(x), converged=converged, iterations=iterations,
        residual=residual, rabi_final=RabiSet(*rabi.tolist()),
        message="" if converged else
        f"fixed-point iteration did not converge in {opts.max_iters} steps")


def solve_grid(params: SystemParams, omega: float, delta_c,
               ndd_enabled: bool = False,
               opts: SolveOptions | None = None) -> GridSolution:
    """Steady states at drive ``omega`` over the detuning axis ``delta_c``.

    The generators of all points form one stack, solved by one batched LU
    and one refinement step; with the local-field correction on, Newton on
    the packed states runs in lockstep over the stack instead, one batched
    LU per iterate (see :func:`_solve_axis`).  A point the stack does not
    settle is solved again as a one-point stack, and its
    :class:`SingularSystem` marks the point singular.  Raises
    ``ValueError`` before any solve where ``delta_c`` is not a 1-D array of
    finite detunings.
    """
    opts = opts or SolveOptions()
    delta_c = np.asarray(delta_c, dtype=float)
    if delta_c.ndim != 1 or not np.isfinite(delta_c).all():
        raise ValueError("delta_c must be a 1-D array of finite detunings")
    drive = Drive(omega=omega, ndd_enabled=ndd_enabled)
    x, converged, iterations, residual, failed, _ = _solve_axis(
        *_affine_split(params, drive, delta_c), opts)
    singular = np.zeros(len(x), dtype=bool)
    for k in np.flatnonzero(failed):
        try:
            x[k], converged[k], iterations[k], residual[k], _ = _solve_point(
                params, drive, delta_c[k], opts)
        except SingularSystem:
            singular[k] = True
    x[singular], residual[singular] = np.nan, np.nan
    converged[singular], iterations[singular] = False, 0
    return GridSolution(x=x, converged=converged, iterations=iterations,
                        residual=residual, singular=singular)
