"""Executable checks of the algebraic relations obeyed by the steady states:
mirror relations between the four optical coherences at opposite detunings,
the Raman-coherence steady-state relations and their symmetric form, evenness
of the Raman spectra, and the closed-form two-level limit.

Residuals are normalised by the largest coherence magnitude on the grid so
tolerances are scale-free.  The mirror relations are empirical observations;
a failure is reported as a finding, never suppressed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .model import unpack
from .params import Drive, SystemParams, gamma_set
from .steady import solve_grid
from .sweep import COLUMNS, SpectrumTable

_PAIR_MATCH_RTOL = 1e-9


class GridNotSymmetric(Exception):
    pass


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    tolerance: float
    max_residual: float
    n_points: int
    passed: bool

    def as_dict(self) -> dict:
        d = asdict(self)
        d["pass"] = d.pop("passed")
        return d


def _report(identity: str, residuals, tol: float, n: int) -> IdentityReport:
    """A report over no points fails: it would check nothing."""
    max_res = float(np.max(residuals)) if len(residuals) else 0.0
    return IdentityReport(identity=identity, tolerance=tol,
                          max_residual=max_res, n_points=n,
                          passed=n > 0 and max_res < tol)


def _mirror_pairs(delta_c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (k_plus, k_minus) pairing each +dc with its -dc partner.

    A table's grid ascends, so on a grid symmetric about zero the partner of
    index k is index N-1-k; any other grid raises GridNotSymmetric.
    """
    scale = max(float(np.max(np.abs(delta_c))), 1.0)
    off = ~(np.abs(delta_c + delta_c[::-1]) <= _PAIR_MATCH_RTOL * scale)
    if off.any():
        raise GridNotSymmetric(
            f"no mirror partner for delta_c = {delta_c[np.argmax(off)]}")
    k_plus = np.flatnonzero(delta_c >= 0)
    return k_plus, delta_c.size - 1 - k_plus


def _max_coherence(table: SpectrumTable, omega: float) -> float:
    mags = [np.max(np.abs(table.coherence(lbl, omega)))
            for lbl in ("21", "31", "32", "41", "42", "43")]
    return max(max(mags), 1e-300)


def check_mirror_relations(table: SpectrumTable, omega: float,
                           tol: float = 1e-8) -> IdentityReport:
    """rho42(+dc) = -conj(rho31(-dc)) and rho32(+dc) = -conj(rho41(-dc))."""
    kp, km = _mirror_pairs(table.column("delta_c_over_delta_u", omega))
    r31 = table.coherence("31", omega)
    r41 = table.coherence("41", omega)
    r32 = table.coherence("32", omega)
    r42 = table.coherence("42", omega)
    residuals = np.abs(np.concatenate([
        r42[kp] + np.conj(r31[km]), r42[km] + np.conj(r31[kp]),
        r32[kp] + np.conj(r41[km]), r32[km] + np.conj(r41[kp])]))
    return _report("mirror_relations",
                   residuals / _max_coherence(table, omega), tol,
                   residuals.size)


def check_raman_steady(params: SystemParams, drive: Drive, rho: np.ndarray,
                       tol: float = 1e-9) -> IdentityReport:
    """Steady-state relations for the two Raman coherences at one point.

    The two residuals are absolute, in units of gamma, as in
    :func:`check_raman_steady_table`.  With the local-field correction off
    these are two of the solved rows and the residual sits at round-off;
    with it on, the residual measures the size of the correction and is
    reported, not failed.
    """
    gs = gamma_set(params, drive.delta(params))
    om = drive.omega
    r21, r43 = rho[1, 0], rho[3, 2]
    r31, r41 = rho[2, 0], rho[3, 0]
    r23, r24 = rho[1, 2], rho[1, 3]
    r13, r42 = rho[0, 2], rho[3, 1]
    res1 = abs(gs.g21 * r21 + 1j * om * (r23 + r24 - r31 - r41))
    res2 = abs(gs.g43 * r43 + 1j * om * (r41 - r13 + r42 - r23))
    return _report("raman_steady", np.asarray([res1, res2]), tol, 2)


def check_raman_steady_table(params: SystemParams, table: SpectrumTable,
                             omega: float, ndd: bool = False,
                             tol: float = 1e-9) -> IdentityReport:
    """Raman steady-state relations across every converged grid point: per
    point the larger of the two residuals of :func:`check_raman_steady`.

    ``ndd`` does not enter the relations; it names the table's setting.
    """
    conv = table.column("converged", omega)
    r21, r31, r32, r41, r42, r43 = (table.coherence(lbl, omega)[conv]
                                    for lbl in ("21", "31", "32", "41",
                                                "42", "43"))
    r23, r24, r13 = np.conj(r32), np.conj(r42), np.conj(r31)
    gs = gamma_set(params, 0.0)   # g21, g43 are detuning-independent
    om = omega
    residuals = np.maximum(
        np.abs(gs.g21 * r21 + 1j * om * (r23 + r24 - r31 - r41)),
        np.abs(gs.g43 * r43 + 1j * om * (r41 - r13 + r42 - r23)))
    return _report("raman_steady_table", residuals, tol, residuals.size)


def _evenness_residuals(table: SpectrumTable, omega: float, kp, km):
    r21 = table.coherence("21", omega)
    r43 = table.coherence("43", omega)
    return [r21[kp] - r21[km], r43[kp] - r43[km]]


def check_raman_symmetric_form(params: SystemParams, table: SpectrumTable,
                               omega: float,
                               tol: float = 1e-8) -> IdentityReport:
    """Symmetric-combination form of the Raman relations plus evenness of
    the Raman coherence spectra about zero detuning."""
    kp, km = _mirror_pairs(table.column("delta_c_over_delta_u", omega))
    r21 = table.coherence("21", omega)
    r43 = table.coherence("43", omega)
    r31 = table.coherence("31", omega)
    r41 = table.coherence("41", omega)
    gs = gamma_set(params, 0.0)   # g21, g43 are detuning-independent
    om = omega
    r31s = r31[kp] + r31[km]
    r41s = r41[kp] + r41[km]
    r31cs = np.conj(r31[kp]) + np.conj(r31[km])
    residuals = np.abs(np.concatenate([
        gs.g21 * r21[kp] - 1j * om * (r31s + r41s),
        gs.g43 * r43[kp] - 1j * om * (r31cs - r41s),
        *_evenness_residuals(table, omega, kp, km)]))
    return _report("raman_symmetric_form",
                   residuals / _max_coherence(table, omega), tol,
                   residuals.size)


def check_evenness(table: SpectrumTable, omega: float,
                   tol: float = 1e-8) -> IdentityReport:
    """Raman coherence spectra are even functions of the detuning."""
    kp, km = _mirror_pairs(table.column("delta_c_over_delta_u", omega))
    residuals = np.abs(np.concatenate(
        _evenness_residuals(table, omega, kp, km)))
    return _report("raman_evenness",
                   residuals / _max_coherence(table, omega), tol,
                   residuals.size)


def two_level_steady(omega: float, delta: float,
                     gamma: float = 1.0) -> tuple[float, complex]:
    """Closed-form two-level steady state (excited population, coherence).

    Derived independently from the two optical Bloch equations with
    half-Rabi ``omega``, detuning ``delta`` from the line, decay ``gamma``.
    """
    denom = delta * delta + 0.25 * gamma * gamma + 2.0 * omega * omega
    rho_ee = omega * omega / denom
    u = delta * omega / denom
    v = -0.5 * gamma * omega / denom
    return rho_ee, u + 1j * v


def two_level_reduction() -> SystemParams:
    """Parameters that decouple everything except the |1>-|3> transition."""
    return SystemParams(gamma31=1.0, gamma32=0.0, gamma41=0.0, gamma42=0.0,
                        mu14=0.0, mu23=0.0, mu24=0.0)


def two_level_oracle_check(omegas, deltas, tol: float = 1e-9) -> IdentityReport:
    """Solver vs closed-form two-level steady state over an (omega, delta)
    grid; ``deltas`` are measured from the reduced |1>-|3> line.

    Each omega is one :func:`hfs.steady.solve_grid` stack, the solver that
    writes the sweep tables.  A point it flags singular has a NaN residual,
    which fails the report.
    """
    params = two_level_reduction()
    deltas = np.asarray(deltas, dtype=float)
    # delta is detuning from the 3-1 line: delta = Delta - delta_g
    delta_c = deltas + params.delta_g - params.delta_u
    residuals = []
    for om in omegas:
        rho = unpack(solve_grid(params, float(om), delta_c).x.T)
        r33_ref, r31_ref = two_level_steady(float(om), deltas)
        residuals += [np.abs(rho[2, 2].real - r33_ref),
                      np.abs(rho[2, 0] - r31_ref)]
    residuals = np.concatenate(residuals)
    return _report("two_level_oracle", residuals, tol, residuals.size)


def corrupt_coherence(table: SpectrumTable, label: str, index: int) -> SpectrumTable:
    """Detector-sanity helper: negate one coherence at one grid point."""
    cols = {c: table.column(c).copy() for c in COLUMNS}
    cols[f"re_rho{label}"][index] *= -1.0
    cols[f"im_rho{label}"][index] *= -1.0
    return SpectrumTable(cols)


def write_report_json(reports, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump([r.as_dict() for r in reports], fh, indent=1)
        fh.write("\n")
