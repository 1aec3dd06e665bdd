"""Optical observables: susceptibility, refractive and group index,
dispersion/line classification and population-transfer measures.

Sign convention: the dipole sign is absorbed into chi = -(3 eps / 2 Omega) *
rho_ij, which makes the imaginary part positive for a resonantly driven
two-level reduction; chi_im > 0 is therefore labelled absorption and
chi_im < 0 gain.  Normal dispersion means dn/domega > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import Drive, SystemParams

NORMAL = "normal"
ANOMALOUS = "anomalous"
GAIN = "gain"
ABSORPTION = "absorption"

#: optical transition id -> (0-based coherence index, epsilon pair key)
TRANSITIONS = {
    "31": ((2, 0), "13"),
    "41": ((3, 0), "14"),
    "32": ((2, 1), "23"),
    "42": ((3, 1), "24"),
}


class ZeroField(Exception):
    pass


class InsufficientPoints(Exception):
    pass


@dataclass(frozen=True)
class Susceptibility:
    transition: str
    chi_re: float | np.ndarray
    chi_im: float | np.ndarray

    @property
    def chi(self) -> complex | np.ndarray:
        return self.chi_re + 1j * self.chi_im


def susceptibility(params: SystemParams, drive: Drive, rho: np.ndarray,
                   transition: str) -> Susceptibility:
    """Dimensionless chi for one optical coherence at the given drive, of
    one (4, 4) state or of each state of a (4, 4, K) stack."""
    if transition not in TRANSITIONS:
        raise ValueError(f"unknown transition {transition!r}")
    if drive.omega == 0.0:
        raise ZeroField("susceptibility undefined at zero field")
    (i, j), pair = TRANSITIONS[transition]
    eps = drive.epsilon_for(params)[pair]
    chi = -(3.0 * eps / (2.0 * drive.omega)) * rho[i, j]
    return Susceptibility(transition=transition,
                          chi_re=chi.real, chi_im=chi.imag)


def refractive_index(chi: complex | np.ndarray) -> float | np.ndarray:
    """Principal-branch n = Re sqrt(1 + chi), elementwise."""
    return np.sqrt(1.0 + np.asarray(chi, dtype=complex)).real


def _slope(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """dy/dx by ``np.gradient`` over the points where y is finite, so the
    neighbours of a non-finite point (a flagged sweep row) are differenced
    across the gap.  NaN at that point, and everywhere if < 2 are finite."""
    ok = np.isfinite(y)
    out = np.full(y.shape, np.nan)
    if np.count_nonzero(ok) >= 2:
        out[ok] = np.gradient(y[ok], x[ok])
    return out


def group_index_profile(delta_c: np.ndarray, n: np.ndarray,
                        params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Group index n_g = n + omega0 * dn/domega along a detuning grid.

    ``delta_c`` is in gamma units; the derivative is taken against absolute
    angular frequency via ``gamma_ref``.  Central differences at interior
    points, one-sided at the ends; points with non-finite n are skipped
    (see ``_slope``) and get NaN.  Returns (n_g, nonuniform_mask) where the
    mask flags interior points whose two differenced neighbours are not
    equally spaced.
    """
    delta_c = np.asarray(delta_c, dtype=float)
    n = np.asarray(n, dtype=float)
    if delta_c.ndim != 1 or delta_c.size < 3:
        raise InsufficientPoints("need at least 3 grid points")
    if np.any(np.diff(delta_c) <= 0):
        raise ValueError("grid must be strictly increasing")
    omega_abs = delta_c * params.gamma_ref     # offset from carrier, rad/s
    ng = n + params.omega0 * _slope(n, omega_abs)
    used = np.flatnonzero(np.isfinite(n))
    h = np.diff(delta_c[used])
    nonuniform = np.zeros(delta_c.size, dtype=bool)
    nonuniform[used[1:-1]] = ~np.isclose(h[:-1], h[1:], rtol=1e-9, atol=0.0)
    return ng, nonuniform


def classify(delta_c: np.ndarray, n: np.ndarray,
             chi_im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-point (dispersion, line) labels, object arrays of str: normal
    where the slope dn/d(delta_c) (see ``_slope``) is positive, absorption
    where chi_im >= 0.  A label is blank where its input is not finite."""
    slope = _slope(np.asarray(n, dtype=float),
                   np.asarray(delta_c, dtype=float))
    chi_im = np.asarray(chi_im, dtype=float)
    disp = np.where(slope > 0, NORMAL, ANOMALOUS).astype(object)
    disp[np.isnan(slope)] = ""
    line = np.where(chi_im >= 0, ABSORPTION, GAIN).astype(object)
    line[~np.isfinite(chi_im)] = ""
    return disp, line


def population_transfer(rho: np.ndarray):
    """Ground and excited hyperfine imbalances (rho22-rho11, rho44-rho33)
    of one (4, 4) state or of each state of a (4, 4, K) stack."""
    return (rho[1, 1].real - rho[0, 0].real,
            rho[3, 3].real - rho[2, 2].real)
