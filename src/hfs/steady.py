"""Steady-state solver.

At a fixed Rabi set the equations of motion are linear in the 16 real state
components, so the steady state is a direct linear solve with one population
row traded for the unit-trace constraint.  The generator is linear in eleven
numbers (the decay rates and splittings, the bare detuning and the
couplings), ``A = sum_k c_k * K_k``, so every ``dA/dc_k`` is one matrix of a
constant basis ``K``, built once per process from ``rhs_verbatim``; no solve
calls it.  A detuning axis at one drive is a single ``(N, 16, 16)`` stack,
one product of its ``(N, 11)`` coefficients with the flat basis, solved by
batched LU; one drive is the one-point stack.  With the local-field
correction enabled the four effective couplings depend on Re(rho_ij), and
the steady state solves ``M(r(x)) x = e_0`` with couplings ``r`` affine in
the packed state ``x``.  It is found by Newton's method on ``x``, in
lockstep over the stack, from the solve at the bare couplings; each
iterate factors its matrices once, and the Newton matrix is the flow
Jacobian with the trace row in place.  The generator is exactly affine in
``x`` too, ``A_bare - x G`` with a constant ``G`` made once per stack: a
Newton pass forms ``M(r(x)) = M(r(0)) - x G`` from one product, and the
residuals and the relaxation in :mod:`hfs.dynamics` take their generators
from it.  A Newton step that does not lower the max-abs residual is
shortened by ``damping`` from the last accepted iterate until it does, in
the same lockstep; this is the only path.  A point that settles returns
its last Newton iterate, gated on its residual at its own couplings, and
one that does not returns its last accepted iterate.

Every solve is LAPACK's batched ``gesv`` through numpy's private gufunc
``numpy.linalg._umath_linalg.solve``, without the Python wrapper that is
most of an ``np.linalg.solve`` call on a 16x16 system.  This module relies
on the gufunc's contract: a singular matrix gets a NaN solution, which
``np.linalg.solve`` turns into ``LinAlgError`` for the whole stack, and
every other matrix is solved as if alone.  Each solving function runs
under one ``np.errstate(all="ignore")``, so a singular matrix fails its own
point through the finiteness checks.  Hence the ``numpy>=2.4`` floor in
``pyproject.toml``, the release the bit-for-bit tests ran on.

:func:`solve_grid` solves a detuning axis and :func:`solve_selfconsistent`
one drive, both through :func:`_solve_axis`.  The independent checks of the
solver are :func:`hfs.dynamics.relax_to_steady` and the two-level closed
form of :mod:`hfs.identities`.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import solve as _gesv

from .model import STATE_COLUMNS, pack, rhs_verbatim, unpack
from .params import (PAIRS, Drive, RabiSet, SystemParams, _is_real,
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


@dataclass(frozen=True)
class SolveOptions:
    """Controls of the self-consistent solve.

    ``fp_tol`` bounds the max-abs change in rho of the last Newton step
    on the packed state; ``max_iters`` bounds the Newton passes, retried
    steps included.  ``damping`` is the factor by which a step that does
    not lower the residual is shortened: the next trial is the last
    accepted iterate minus ``damping`` times the rejected step.  At 1 a
    rejected step is tried again unchanged until ``max_iters``.
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
_rates = operator.attrgetter(*_RATES)
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


@functools.cache
def _flat_basis() -> np.ndarray:
    """:func:`_basis` as its read-only (11, 256) view."""
    return _basis().reshape(11, -1)


def _generators(params: SystemParams, delta_c,
                rabi: np.ndarray) -> np.ndarray:
    """(N, 16, 16) generators at the detunings ``delta_c`` and couplings
    ``rabi``, (4,) or (N, 4): one product of the (N, 11) coefficients with
    the flat :func:`_basis`, exact term by term, since every basis entry is
    0, +-1/2, +-1 or +-2 and an entry sums at most four rate, splitting and
    detuning terms or else exactly one coupling."""
    delta = np.asarray(delta_c, dtype=float)
    coef = np.empty((delta.size, 11))
    coef[:, :_DETUNING] = _rates(params)
    coef[:, _DETUNING] = delta + params.delta_u
    coef[:, _COUPLINGS] = rabi
    return np.dot(coef, _flat_basis()).reshape(-1, 16, 16)


def _affine_split(params: SystemParams, drive: Drive, delta_c: np.ndarray):
    """``(a_bare, bare, eps)``: the affine split of ``drive``'s generators.

    ``a_bare`` holds the (N, 16, 16) generators at the bare couplings
    ``bare`` and the detunings ``delta_c``.  The couplings at packed state
    ``x`` are ``bare - eps * x[_PAIR_RE]``, with ``eps`` the local-field
    strengths, (4,) in ``PAIRS`` order and zero when the correction is off,
    and the generator there is ``a_bare - x @ _state_linear(eps)``.
    ``drive.delta_c`` is not read.
    """
    eps = np.zeros(4)
    if drive.ndd_enabled:
        eps_pairs = drive.epsilon_for(params)
        eps = np.array([eps_pairs[p] for p in PAIRS])
    # bare_rabi's products, without the RabiSet
    w = drive.omega
    bare = np.array([params.mu13 * w, params.mu14 * w, params.mu23 * w,
                     params.mu24 * w])
    return _generators(params, delta_c, bare), bare, eps


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
    rows = np.abs(a).max(axis=-1)
    scale = np.maximum(rows.max(axis=-1), 1.0)[..., None]
    kept = rows >= _ZERO_ROW_TOL * scale
    kept[..., 0] = False
    kept[..., 4:] = True
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


def _state_linear(eps: np.ndarray) -> np.ndarray:
    """(16, 256) matrix ``G`` of the generators' dependence on the state.

    The couplings at packed state ``x`` are ``bare - eps * x[_PAIR_RE]``,
    so the generator there is ``A_bare - (x @ G).reshape(16, 16)``, with
    ``A_bare`` the generator at the bare couplings and row ``_PAIR_RE[q]``
    of ``G`` holding ``eps_q * B_q`` flat (``B_q`` the coupling slice of
    :func:`_basis`), every other row zero.  It equals the generator that
    :func:`_generators` builds at those couplings, bit for bit: ``B_q``
    holds only 0, +-1 and +-2, so each ``eps_q * B_q`` is exact; at most
    one coupling enters each entry; and no rate, splitting or detuning
    enters where a coupling does.
    """
    g = np.zeros((16, 256))
    g[_PAIR_SLICE] = eps[_PAIR_ORDER, None] * _pair_rows().T.reshape(4, -1)
    return g


@functools.cache
def _pair_rows() -> np.ndarray:
    """(16, 64) read-only ``C``: ``x @ C`` holds the rows ``(B_q x)_i`` of
    states ``x`` (N, 16), flat in ``(q, i)``, with ``B_q`` the coupling
    slice of :func:`_basis` and the couplings ``q`` in ``_PAIR_ORDER``."""
    rows = _basis()[_COUPLINGS][_PAIR_ORDER].reshape(64, 16).T
    rows.flags.writeable = False
    return rows


def _apply(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix-vector products over a stack: (N, 16, 16) with (N, 16)."""
    return (m @ x[..., None])[..., 0]


@np.errstate(all="ignore")
def _solve_stack(a: np.ndarray, rabi: np.ndarray):
    """The steady-state systems of a generator stack, solved together.

    ``a`` holds the (N, 16, 16) generators and ``rabi`` their couplings,
    (4,) or (N, 4), read only for the points whose couplings all vanish.
    Returns ``(x, m, ok)``: the packed solutions, the system matrices of
    :func:`_system_rows`, and the points whose solve is usable (couplings
    not all zero, solution finite), ``x`` zero where ``ok`` is False.  An
    exactly singular matrix fails its own point only: its solution is NaN.

    One step of iterative refinement keeps the residual near round-off.
    """
    m, _ = _system_rows(a)
    x = _gesv(m, _TRACE_RHS[:, None])[..., 0]
    x += _gesv(m, (_TRACE_RHS - _apply(m, x))[..., None])[..., 0]
    ok = np.isfinite(x).all(axis=-1) & rabi.any(axis=-1)
    if not ok.all():
        x[~ok] = 0.0
    return x, m, ok


def _newton_stack(a_bare: np.ndarray, bare: np.ndarray, eps: np.ndarray):
    """``(stack, rows)``: the constants of :func:`_newton_system`.

    ``stack = (bare, eps, g, pinned, g_full)`` holds what every point
    shares: ``g_full`` is :func:`_state_linear`, made once per stack for
    the residuals of :func:`_solve_axis`, and ``g`` its copy with the
    generator's row 0 zeroed, since the trace row does not follow the
    state; ``pinned`` tells whether any point has a pinned row.  ``rows =
    (m0, kept, epsk)`` holds one entry per point: the system matrices and
    kept rows of :func:`_system_rows` of the generators ``a_bare`` at the
    bare couplings, and ``eps * kept`` with the couplings in
    ``_PAIR_ORDER``, shape (N, 16, 4).

    The pinned rows are taken once, at the bare couplings, and Newton
    cannot change them: a population row is pinned only when its level has
    no decay and no nonzero coupling, and then the coherences of that
    level, whose real parts are all that its couplings follow, stay zero.
    Only a decay rate within a hair of ``_ZERO_ROW_TOL`` times the matrix's
    max-abs, which the other levels' couplings move, could be pinned at
    one state and kept at another; the rows pinned at the bare couplings
    then hold for the whole run.
    """
    m0, kept = _system_rows(a_bare)
    g_full = _state_linear(eps)
    g = g_full.copy()
    g.reshape(16, 16, 16)[:, 0] = 0.0
    epsk = eps[_PAIR_ORDER] * kept[..., None]
    return ((bare, eps, g, not kept[..., _PINNABLE].all(), g_full),
            (m0, kept, epsk))


def _newton_system(a_bare: np.ndarray, stack: tuple, rows: tuple,
                   x: np.ndarray):
    """``(rabi, m, f, jac)``: Newton's system at packed states ``x`` (N, 16).

    ``stack`` and ``rows`` are the constants of :func:`_newton_stack`;
    ``a_bare``, the points' generators at the bare couplings, names the
    points and is not read.  ``rabi`` holds the couplings ``bare - eps *
    x[_PAIR_RE]`` of each state, ``m`` the system matrices of
    :func:`_system_rows` at them, ``f = m x - e_0`` the residual of the
    steady-state system, and ``jac`` its derivative in ``x``: ``m - sum_q
    eps_q (B~_q x) e_{p_q}^T``, where ``B~_q`` is the coupling slice of
    :func:`_basis` with the trace and pinned rows zeroed and ``p_q =
    _PAIR_RE[q]``.  Below the trace row and off the pinned rows, ``jac`` is
    the Jacobian of the equations of motion with the couplings following
    the state.

    ``m`` is affine in ``x``, ``m0 - (x @ g).reshape(N, 16, 16)``, the
    pinned rows set again where there are any; it is the matrix that
    :func:`_system_rows` builds from the generators at ``rabi``, bit for
    bit (see :func:`_state_linear`), wherever those pin the rows that the
    bare couplings pin (see :func:`_newton_stack`).
    """
    bare, eps, g, pinned, _ = stack
    m0, kept, epsk = rows
    rabi = bare - eps * x.take(_PAIR_RE, axis=-1)
    m = m0 - (x @ g).reshape(m0.shape)
    if pinned:
        m[..., _PINNABLE, :] = np.where(kept[..., _PINNABLE, None],
                                        m[..., _PINNABLE, :], _PINNED_ROWS)
    f = _apply(m, x) - _TRACE_RHS
    # the rows (B_q x)_i as columns q, in _PAIR_ORDER
    bx = (x @ _pair_rows()).reshape(len(x), 4, 16)
    jac = m.copy()
    # the pair columns as a view, in increasing order
    jac[..., _PAIR_SLICE] -= epsk * bx.swapaxes(-1, -2)
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


def solve_linear_steady(params: SystemParams, drive: Drive,
                        rabi: RabiSet) -> np.ndarray:
    """Steady state at a frozen Rabi set.

    The population-1 row is replaced by the trace constraint.  A population
    whose equation row is identically zero (a level fully decoupled from
    drive and decay) is pinned to zero, matching evolution from the ground
    state.  The solution must pass the residual gate on its generator; any
    remaining rank deficiency raises :class:`SingularSystem`.
    """
    rabi = _couplings(rabi)
    a = _generators(params, np.array([drive.delta_c]), rabi)
    x, m, ok = _solve_stack(a, rabi)
    if not (ok[0] and _gate(_apply(a, x))[0]):
        raise _singular(rabi, m[0])
    return unpack(x[0])


@np.errstate(all="ignore")
def _lockstep_newton(a_bare: np.ndarray, stack: tuple, rows: tuple,
                     opts: SolveOptions):
    """Cold Newton on the packed states of every point of a stack at once,
    each step backtracked until the residual falls.

    ``stack`` and ``rows`` are the constants of :func:`_newton_stack` at
    the generators ``a_bare``; each pass builds :func:`_newton_system` at
    the live states from them and takes the step ``-jac^-1 f`` in one
    batched solve.  From ``x = 0``, where ``jac`` is the system matrix at
    the bare couplings and ``f = -e_0``, the first step is the solve at
    the bare couplings: it counts as no iteration, and it is the first
    accepted iterate.  A later trial is accepted when its max-abs residual
    ``|f|`` is below that of the last accepted iterate and its own Newton
    step is finite.  Otherwise it is replaced by the last accepted iterate
    minus ``damping`` times the step that led to it, a backtracking line
    search on ``|f|`` after Armijo, and the pass counts as an iteration.

    A point settles, converged, when a full Newton step changes rho by
    less than ``fp_tol`` in max-abs, and keeps that last iterate.  It
    leaves unconverged, holding its last accepted iterate, when a
    backtracked step falls below ``fp_tol``, at ``max_iters``, or when its
    Newton step at the bare solve is not finite.  Returns ``(x, m,
    converged, iterations, failed)``: ``m`` holds each point's last system
    matrix, and ``failed`` couplings that all vanish or a solve at the
    bare couplings that was not finite.  A singular matrix gives a NaN
    step for its own point only.

    A pass in which every trial is accepted costs the system, the solve
    and a few reductions.  The max-abs of each step is not finite exactly
    where the step is not, and it bounds the step's change in rho from
    below (``hypot(a, b) >= max(|a|, |b|)``), so that change is taken only
    in a pass where some step may settle.  The flags are set, the rejected
    trials replaced and the live arrays compacted (writing out the states
    of the points that leave, and keeping the per-point constants of those
    that go on) only in a pass where a trial is rejected or a point
    leaves.  The output arrays are made when a first subset of the points
    leaves; when every point leaves at once, as the one point of a
    one-point stack does, the live arrays are the outputs.
    """
    n = len(a_bare)
    failed, converged = np.zeros((2, n), dtype=bool)
    iterations = np.zeros(n, dtype=int)
    x, live, last, done = (np.zeros((n, 16)), np.arange(n),
                           np.full(n, np.inf), -1)
    prev = step = x
    x_out = m_out = None

    def leave(keep):
        # write out the points not kept and compact the live arrays
        nonlocal live, x, prev, step, size, going, m, a_bare, rows, last
        nonlocal x_out, m_out
        out = ~keep
        gone = live[out]
        if gone.size == n:  # all at once: the live arrays are the outputs
            x_out, m_out = x, m
        else:
            if live.size == n:  # the first to leave: make the outputs
                x_out, m_out = np.empty((n, 16)), np.empty((n, 16, 16))
            x_out[gone], m_out[gone] = x[out], m[out]
        live, iterations[gone] = live[keep], max(done, 0)
        if live.size:  # none left: nothing to compact
            x, prev, step, size, going, m, a_bare, last = (
                v[keep] for v in (x, prev, step, size, going, m, a_bare,
                                  last))
            rows = tuple(v[keep] for v in rows)

    while live.size:
        rabi, m, f, jac = _newton_system(a_bare, stack, rows, x)
        trial, step = step, _gesv(jac, f[..., None])[..., 0]
        fnorm, size = np.abs(f).max(axis=-1), np.abs(step).max(axis=-1)
        # a NaN coupling counts as coupled, a -0.0 one does not
        coupled = rabi.any(axis=-1)
        going = coupled & np.isfinite(size) & (fnorm < last)
        full = going.all()  # no trial rejected: every step is a full one
        if full:
            if done >= 0:  # the state x = 0 sets no bar for the bare solve
                last = fnorm
        else:
            # a point whose solve at the bare couplings fails has no iterate
            ok = coupled & (np.isfinite(size) | (done >= 0))
            failed[live[~ok]] = True
            # a rejected trial is tried again closer to the last accepted
            # iterate; the bare solve has none, and leaves unconverged
            back = ok & ~going & (done > 0)
            x[back] = prev[back]
            step[back] = opts.damping * trial[back]
            size[back] = np.abs(step[back]).max(axis=-1)
            if done >= 0:
                last = np.where(going, fnorm, last)
            leave(going | back)
            if not live.size:
                break
        prev, x = x, x - step
        done += 1
        if done == opts.max_iters or (size < opts.fp_tol).any():
            stop = _rho_max_abs(step) < opts.fp_tol
            settled = stop & going  # only a full Newton step settles
            converged[live[settled]] = True
            at_max = done == opts.max_iters
            if at_max or not full:
                # a point that stops unsettled holds its last accepted
                # iterate
                stop |= at_max
                np.copyto(x, prev, where=(stop & ~settled)[:, None])
            leave(~stop)
    if x_out is None:  # an empty stack: no pass ran
        x_out, m_out = x, np.empty((0, 16, 16))
    return x_out, m_out, converged, iterations, failed


def _solve_axis(a_bare: np.ndarray, bare: np.ndarray, eps: np.ndarray,
                opts: SolveOptions):
    """Steady states of the affine split ``(a_bare, bare, eps)``, one stack.

    Without the local-field correction the generators ``a_bare`` are solved
    as they are, each solution gated on the residual of its generator.
    With it, Newton on the packed state runs in lockstep from the solve at
    the bare couplings (:func:`_lockstep_newton`), and every point returns
    the state it leaves with: its last Newton iterate where it settled,
    its last accepted iterate where it did not.  A settled point is gated
    on the residual of the generator at that state's own couplings
    (``a_bare - x @ G``, with ``G`` from :func:`_newton_stack`), and one
    that fails the gate fails.  ``residual`` is taken at the couplings of
    the state returned.  Returns ``(x, converged, iterations, residual,
    failed, m)``, ``failed`` marking the points without a steady state
    (their other fields mean nothing) and ``m`` holding each point's last
    system matrix.
    """
    n = len(a_bare)
    if not eps.any():
        x, m, ok = _solve_stack(a_bare, bare)
        resid = _apply(a_bare, x)
        return (x, np.ones(n, dtype=bool), np.ones(n, dtype=int),
                _rho_max_abs(resid), ~(ok & _gate(resid)), m)

    stack, rows = _newton_stack(a_bare, bare, eps)
    x, m, converged, iterations, failed = _lockstep_newton(
        a_bare, stack, rows, opts)
    g = stack[-1]  # _state_linear(eps)
    resid = _apply(a_bare - (x @ g).reshape(a_bare.shape), x)
    return (x, converged, iterations, _rho_max_abs(resid),
            failed | (converged & ~_gate(resid)), m)


def _state_couplings(bare: np.ndarray, eps: np.ndarray,
                     x: np.ndarray) -> np.ndarray:
    """The couplings (4,) that :func:`effective_rabi` gives at packed ``x``.

    ``bare - eps * Re(rho_ij)``, with the real parts formed as
    :func:`hfs.model.unpack` forms them: ``x_re + 1j * x_im`` keeps a
    ``-0.0`` in ``x_re`` only where ``x_im``'s sign bit is set, and
    ``x_re`` alone would not, which moves the sign of a zero coupling.
    """
    return bare - eps * (x.take(_PAIR_RE) + 1j * x.take(_PAIR_IM)).real


def solve_selfconsistent(params: SystemParams, drive: Drive,
                         opts: SolveOptions | None = None) -> SteadyResult:
    """Steady state with the local-field correction iterated to a fixed point.

    The one-point case of :func:`solve_grid`, at the drive as given
    (a pinned ``epsilon`` included).  Newton's method on the packed state,
    from the solve at the bare couplings, runs until the max-abs change in
    rho of a full step drops below ``fp_tol``; each step factors one
    matrix, the Jacobian of the flow with the trace row in place, and a
    step that does not lower the residual is shortened by ``damping``
    until it does.  A converged rho is the last Newton iterate, whose
    couplings are its own, so it satisfies the self-consistent equations
    to round-off; an unconverged one is the last accepted iterate.
    ``rabi_final`` is :func:`effective_rabi` at that rho, taken from the
    packed state.  Raises :class:`SingularSystem` where the steady state
    is not unique.
    """
    opts = opts or SolveOptions()
    a_bare, bare, eps = _affine_split(params, drive,
                                      np.array([drive.delta_c]))
    x, converged, iterations, residual, failed, m = _solve_axis(
        a_bare, bare, eps, opts)
    if failed[0]:
        raise _singular(bare, m[0])
    x, converged = x[0], bool(converged[0])
    rabi = _state_couplings(bare, eps, x) if drive.ndd_enabled else bare
    return SteadyResult(
        rho=unpack(x), converged=converged, iterations=int(iterations[0]),
        residual=float(residual[0]), rabi_final=RabiSet(*rabi.tolist()),
        message="" if converged else
        f"fixed-point iteration did not converge in {opts.max_iters} steps")


def solve_grid(params: SystemParams, omega: float, delta_c,
               ndd_enabled: bool = False,
               opts: SolveOptions | None = None) -> GridSolution:
    """Steady states at drive ``omega`` over the detuning axis ``delta_c``.

    The generators of all points form one stack, solved by one batched LU
    and one refinement step; with the local-field correction on, Newton on
    the packed states runs in lockstep over the stack instead, one batched
    LU per iterate (see :func:`_solve_axis`).  Each point gets the bytes
    it gets alone, and a point the stack fails is marked singular, as
    :func:`solve_selfconsistent` raises :class:`SingularSystem` there.
    Raises ``ValueError`` before any solve where ``delta_c`` is not a 1-D
    array of finite detunings.
    """
    opts = opts or SolveOptions()
    delta_c = np.asarray(delta_c, dtype=float)
    if delta_c.ndim != 1 or not np.isfinite(delta_c).all():
        raise ValueError("delta_c must be a 1-D array of finite detunings")
    drive = Drive(omega=omega, ndd_enabled=ndd_enabled)
    x, converged, iterations, residual, singular, _ = _solve_axis(
        *_affine_split(params, drive, delta_c), opts)
    x[singular], residual[singular] = np.nan, np.nan
    converged[singular], iterations[singular] = False, 0
    return GridSolution(x=x, converged=converged, iterations=iterations,
                        residual=residual, singular=singular)
