"""Equations of motion for the four-level density matrix.

Two generators are provided.  ``rhs_verbatim`` is a literal transcription of
the ten coupled equations (populations, optical coherences, the two Raman
coherences).  ``rhs_oracle`` rederives the same dynamics from a commutator
with the Hamiltonian plus a standard spontaneous-emission dissipator; the two
must agree elementwise and any disagreement indicates a transcription error.

State convention: 4x4 complex Hermitian rho, levels |1>,|2> ground and
|3>,|4> excited.  The 16-dimensional real packing used by the linear steady
solver lives here as well (populations first, then Re/Im of the six lower-
triangle coherences in the order 21, 31, 32, 41, 42, 43); ``STATE_COLUMNS``
names the packed components in that order, and this module is the only one
that knows the mapping.

Stacks: ``pack`` and ``unpack`` also take a trailing batch axis,
``(4, 4, K) <-> (16, K)``, and entry ``[..., k]`` of the result is exactly the
single-state result for entry ``[..., k]`` of the input.  ``rhs_verbatim`` at
a given ``rabi`` evaluates a ``(4, 4, K)`` stack with the same arithmetic; it
matches per-state calls up to the rounding of numpy's vectorised complex
product, and exactly wherever every product is exact (as for the unit states
that build the steady solver's generator matrix).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import Drive, RabiSet, SystemParams, effective_rabi, gamma_set

#: lower-triangle coherences in packing order, 0-based (i, j) with i > j
COHERENCE_PAIRS = ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))

#: column labels matching the packing, used by CSV writers
COHERENCE_LABELS = ("21", "31", "32", "41", "42", "43")


#: names of the 16 packed components, in packing order
STATE_COLUMNS = (tuple(f"rho{i}{i}" for i in range(1, 5))
                 + tuple(f"{p}_rho{lbl}" for lbl in COHERENCE_LABELS
                         for p in ("re", "im")))

_DIAG = np.arange(4)
_LOWER = tuple(np.array(ix) for ix in zip(*COHERENCE_PAIRS))
_UPPER = _LOWER[::-1]


def pack(rho: np.ndarray) -> np.ndarray:
    """Hermitian 4x4 -> real 16-vector (populations, Re/Im coherences).

    A ``(4, 4, K)`` stack packs to ``(16, K)``.
    """
    rho = np.asarray(rho)
    x = np.empty((16,) + rho.shape[2:])
    x[0:4] = np.real(rho[_DIAG, _DIAG])
    c = rho[_LOWER]
    x[4::2] = c.real
    x[5::2] = c.imag
    return x


#: flat 4x4 index into the populations, the lower-triangle coherences and
#: their conjugates, concatenated: the inverse of their flat positions
_UNPACK_INDEX = np.argsort(np.concatenate(
    (_DIAG * 5, _LOWER[0] * 4 + _LOWER[1], _UPPER[0] * 4 + _UPPER[1])))


def unpack(x: np.ndarray) -> np.ndarray:
    """Real 16-vector -> Hermitian 4x4 (hermiticity holds by construction).

    A ``(16, K)`` stack unpacks to ``(4, 4, K)``.
    """
    x = np.asarray(x)
    c = x[4::2] + 1j * x[5::2]
    flat = np.concatenate((x[0:4], c, c.conjugate()))
    return flat.take(_UNPACK_INDEX, axis=0).reshape((4, 4) + x.shape[1:])


def ground_state() -> np.ndarray:
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def hamiltonian(params: SystemParams, drive: Drive,
                rabi: RabiSet) -> np.ndarray:
    """RWA Hamiltonian (units of hbar*gamma), real symmetric.

    The diagonal ``(0, dg, dg - delta, dg + de - delta)`` reproduces the
    coherence coefficients of :func:`hfs.params.gamma_set`.  The diagonal
    as printed in the paper, ``(0, dg, -delta, de - delta)``, is not used:
    it does not reproduce them.
    """
    delta = drive.delta(params)
    dg, de = params.delta_g, params.delta_e
    diag = (0.0, dg, dg - delta, dg + de - delta)
    h = np.diag(np.asarray(diag, dtype=float))
    h[0, 2] = h[2, 0] = rabi.o13
    h[0, 3] = h[3, 0] = rabi.o14
    h[1, 2] = h[2, 1] = rabi.o23
    h[1, 3] = h[3, 1] = rabi.o24
    return h


def rhs_verbatim(params: SystemParams, drive: Drive, rho: np.ndarray,
                 rabi: RabiSet | None = None) -> np.ndarray:
    """Literal equations of motion; returns drho/dt, Hermitian-completed.

    ``rabi`` freezes the couplings (used by the linear steady solver); by
    default they are evaluated self-consistently from ``rho``.  A
    ``(4, 4, K)`` stack of states needs ``rabi``: the couplings are shared by
    the whole stack.
    """
    if rabi is None:
        rabi = effective_rabi(params, drive, rho)
    o13, o14, o23, o24 = rabi.o13, rabi.o14, rabi.o23, rabi.o24
    g31, g32 = params.gamma31, params.gamma32
    g41, g42 = params.gamma41, params.gamma42
    gs = gamma_set(params, drive.delta(params))
    r = rho

    out = np.zeros(np.shape(r), dtype=complex)

    t1 = o13 * r[0, 2] + o14 * r[0, 3]
    out[0, 0] = g31 * r[2, 2] + g41 * r[3, 3] + 1j * (t1 - t1.conjugate())
    t2 = o23 * r[1, 2] + o24 * r[1, 3]
    out[1, 1] = g32 * r[2, 2] + g42 * r[3, 3] + 1j * (t2 - t2.conjugate())
    t3 = o13 * r[0, 2] + o23 * r[1, 2]
    out[2, 2] = -(g31 + g32) * r[2, 2] - 1j * (t3 - t3.conjugate())
    t4 = o14 * r[0, 3] + o24 * r[1, 3]
    out[3, 3] = -(g41 + g42) * r[3, 3] - 1j * (t4 - t4.conjugate())

    out[2, 0] = gs.g31 * r[2, 0] - 1j * (
        o13 * (r[0, 0] - r[2, 2]) - o14 * r[2, 3] + o23 * r[1, 0])
    out[2, 1] = gs.g32 * r[2, 1] - 1j * (
        o13 * r[0, 1] + o23 * (r[1, 1] - r[2, 2]) - o24 * r[2, 3])
    out[3, 0] = gs.g41 * r[3, 0] + 1j * (
        o13 * r[3, 2] - o14 * (r[0, 0] - r[3, 3]) - o24 * r[1, 0])
    out[3, 1] = gs.g42 * r[3, 1] - 1j * (
        o14 * r[0, 1] - o23 * r[3, 2] + o24 * (r[1, 1] - r[3, 3]))
    out[1, 0] = gs.g21 * r[1, 0] + 1j * (
        o13 * r[1, 2] + o14 * r[1, 3] - o23 * r[2, 0] - o24 * r[3, 0])
    out[3, 2] = gs.g43 * r[3, 2] + 1j * (
        o13 * r[3, 0] - o14 * r[0, 2] + o23 * r[3, 1] - o24 * r[1, 2])

    out[_UPPER] = out[_LOWER].conjugate()
    return out


#: (excited, ground) decay channels with their rate attribute names
_DECAY_CHANNELS = (((2, 0), "gamma31"), ((2, 1), "gamma32"),
                   ((3, 0), "gamma41"), ((3, 1), "gamma42"))


def rhs_oracle(params: SystemParams, drive: Drive, rho: np.ndarray,
               rabi: RabiSet | None = None) -> np.ndarray:
    """Independent generator: -i[H, rho] plus spontaneous-emission dissipator.

    Jump operators |g><e| for each decay channel; equivalent to the literal
    equations when the gamma-consistent Hamiltonian diagonal is used.
    """
    if rabi is None:
        rabi = effective_rabi(params, drive, rho)
    h = hamiltonian(params, drive, rabi)
    out = -1j * (h @ rho - rho @ h)
    for (e, g), name in _DECAY_CHANNELS:
        rate = getattr(params, name)
        if rate == 0.0:
            continue
        out[g, g] += rate * rho[e, e]
        out[e, :] -= 0.5 * rate * rho[e, :]
        out[:, e] -= 0.5 * rate * rho[:, e]
    return out


@dataclass(frozen=True)
class DensityMatrixReport:
    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    hermitian: bool
    unit_trace: bool
    positive: bool

    @property
    def ok(self) -> bool:
        return self.hermitian and self.unit_trace and self.positive


def validate_density_matrix(rho: np.ndarray, tol: float = 1e-9,
                            trace_tol: float = 1e-9) -> DensityMatrixReport:
    """Diagnostic report: hermiticity/trace defects and smallest eigenvalue.

    Negativity is reported, never clipped.
    """
    rho = np.asarray(rho, dtype=complex)
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    trace = float(abs(np.trace(rho).real - 1.0) + abs(np.trace(rho).imag))
    sym = 0.5 * (rho + rho.conj().T)
    lam_min = float(np.linalg.eigvalsh(sym)[0])
    return DensityMatrixReport(
        hermiticity_defect=herm,
        trace_defect=trace,
        min_eigenvalue=lam_min,
        hermitian=herm <= tol,
        unit_trace=trace <= trace_tol,
        positive=lam_min >= -tol,
    )
