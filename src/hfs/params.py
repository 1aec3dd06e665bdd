"""Atomic constants, drive parameters and unit conventions.

Internal unit system: all angular frequencies are measured in units of the
spontaneous decay rate gamma (gamma = 1).  ``gamma_ref`` carries the SI value
of gamma (rad/s) and is only used when converting to/from laboratory units
(epsilon derivation, group-index scaling, config files in MHz).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace

import numpy as np

TWO_PI = 2.0 * np.pi

# CODATA values
EPSILON_0 = 8.8541878128e-12   # F/m
HBAR = 1.054571817e-34         # J s

# Sodium D1 reference numbers
SODIUM_GAMMA_REF = TWO_PI * 9.76e6          # rad/s
SODIUM_DELTA_G_MHZ = 1771.62                # ground hyperfine splitting / 2pi
SODIUM_DELTA_E_MHZ = 188.88                 # excited hyperfine splitting / 2pi
SODIUM_DENSITY = 1.5e20                     # m^-3
SODIUM_DIPOLE = 21.1165e-30                 # C m
SODIUM_OMEGA0 = TWO_PI * 5.08333e14         # D1 carrier, rad/s

#: coupled ground-excited pairs, keyed as (ground, excited), 1-based labels
PAIRS = ("13", "14", "23", "24")


def _is_real(value) -> bool:
    """A real number that is not a bool: int, float or a numpy real."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


@dataclass(frozen=True)
class SystemParams:
    """Atomic constants in internal gamma units.

    ``mu_13`` .. ``mu_24`` are dimensionless multipliers of the common dipole
    magnitude; setting one to zero decouples that transition.
    """

    gamma31: float = 1.0
    gamma32: float = 1.0
    gamma41: float = 1.0
    gamma42: float = 1.0
    mu13: float = 1.0
    mu14: float = 1.0
    mu23: float = 1.0
    mu24: float = 1.0
    delta_g: float = SODIUM_DELTA_G_MHZ / 9.76
    delta_e: float = SODIUM_DELTA_E_MHZ / 9.76
    number_density: float = SODIUM_DENSITY
    dipole_moment: float = SODIUM_DIPOLE
    omega0: float = SODIUM_OMEGA0
    gamma_ref: float = SODIUM_GAMMA_REF

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        for name in ("gamma31", "gamma32", "gamma41", "gamma42"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.delta_g <= 0 or self.delta_e <= 0:
            raise ValueError("hyperfine splittings must be positive")
        if self.number_density < 0:
            raise ValueError("number_density must be >= 0")
        if self.omega0 <= 0 or self.gamma_ref <= 0:
            raise ValueError("omega0 and gamma_ref must be positive")

    @property
    def delta_u(self) -> float:
        """Mean hyperfine splitting, the detuning unit scale."""
        return 0.5 * (self.delta_g + self.delta_e)

    @property
    def mu_abs(self) -> dict[str, float]:
        return {"13": self.mu13, "14": self.mu14,
                "23": self.mu23, "24": self.mu24}

    def replace(self, **kw) -> "SystemParams":
        return replace(self, **kw)


def sodium_d1() -> SystemParams:
    """Default parameter set: ultracold sodium D1 hyperfine manifold."""
    return SystemParams()


def sodium_d1_cyclic_splittings() -> SystemParams:
    """Sodium D1 with the splittings scaled as cyclic frequencies.

    Here the MHz splittings are divided by the angular decay rate
    (delta_g = 1771.62e6 / (2 pi 9.76e6) ~ 28.9 gamma), a factor 2 pi below
    the strictly angular conversion of :func:`sodium_d1`.  This is the
    scaling that places the benchmark spectral phenomenology (complete
    ground-state transfer at weak drive, partial excited-state transfer and
    the absorption-to-gain flip of the 3-1 line at intermediate drive,
    flattening at strong drive) at drive strengths 0.5, 5, 20 and 100 gamma;
    under the angular conversion the same features appear at drives roughly
    two to five times larger.
    """
    return SystemParams(delta_g=SODIUM_DELTA_G_MHZ / (TWO_PI * 9.76),
                        delta_e=SODIUM_DELTA_E_MHZ / (TWO_PI * 9.76))


def derive_epsilon(params: SystemParams) -> dict[str, float]:
    """Local-field strengths eps_ij = N mu_ij^2 / (3 eps0 hbar), gamma units."""
    out = {}
    for pair, mult in params.mu_abs.items():
        mu = mult * params.dipole_moment
        eps_si = params.number_density * mu * mu / (3.0 * EPSILON_0 * HBAR)
        out[pair] = eps_si / params.gamma_ref
    return out


@dataclass(frozen=True)
class Drive:
    """Single-field drive: bare half-Rabi magnitude and recentred detuning.

    ``delta_c`` is measured from the mean hyperfine splitting delta_u; the
    bare detuning is ``delta = delta_c + delta_u``.  ``epsilon`` may pin the
    local-field strengths explicitly; by default they are derived from the
    system parameters on demand.
    """

    omega: float
    delta_c: float = 0.0
    ndd_enabled: bool = False
    epsilon: dict[str, float] | None = None

    def __post_init__(self):
        if not (_is_real(self.omega) and _is_real(self.delta_c)):
            raise ValueError("omega and delta_c must be real numbers")
        if not (math.isfinite(self.omega) and math.isfinite(self.delta_c)):
            raise ValueError("omega and delta_c must be finite")
        if self.omega < 0:
            raise ValueError("omega must be >= 0")
        if self.epsilon is not None:
            if (not isinstance(self.epsilon, Mapping)
                    or set(self.epsilon) != set(PAIRS)):
                raise ValueError(
                    f"epsilon must be a mapping with keys {PAIRS}")
            if not all(_is_real(v) and 0 <= v < math.inf
                       for v in self.epsilon.values()):
                raise ValueError("epsilon values must be real numbers, "
                                 "finite and >= 0")

    def delta(self, params: SystemParams) -> float:
        """Bare field detuning from the |3>-|2> line."""
        return self.delta_c + params.delta_u

    def epsilon_for(self, params: SystemParams) -> dict[str, float]:
        if self.epsilon is not None:
            return self.epsilon
        return derive_epsilon(params)

    def replace(self, **kw) -> "Drive":
        return replace(self, **kw)


@dataclass(frozen=True)
class RabiSet:
    """Effective per-pair half-Rabi couplings after the local-field shift."""

    o13: float
    o14: float
    o23: float
    o24: float

    def as_dict(self) -> dict[str, float]:
        return {"13": self.o13, "14": self.o14, "23": self.o23, "24": self.o24}

    def max_abs(self) -> float:
        return max(abs(self.o13), abs(self.o14), abs(self.o23), abs(self.o24))


def bare_rabi(params: SystemParams, drive: Drive) -> RabiSet:
    """Effective couplings with the local-field correction switched off."""
    return RabiSet(
        o13=params.mu13 * drive.omega,
        o14=params.mu14 * drive.omega,
        o23=params.mu23 * drive.omega,
        o24=params.mu24 * drive.omega,
    )


def effective_rabi(params: SystemParams, drive: Drive,
                   rho: np.ndarray) -> RabiSet:
    """Per-pair couplings Omega_ij = mu_ij*Omega - eps_ij*Re(rho_ij).

    With ``ndd_enabled`` false this reduces to the bare couplings.  The real
    part of rho_ij equals that of rho_ji, so index orientation is immaterial.
    """
    if not drive.ndd_enabled:
        return bare_rabi(params, drive)
    eps = drive.epsilon_for(params)
    # rho indices are 0-based; pair "13" is the (0, 2) coherence
    idx = {"13": (0, 2), "14": (0, 3), "23": (1, 2), "24": (1, 3)}
    vals = {}
    for pair, mult in params.mu_abs.items():
        i, j = idx[pair]
        vals[pair] = mult * drive.omega - eps[pair] * float(np.real(rho[i, j]))
    return RabiSet(o13=vals["13"], o14=vals["14"],
                   o23=vals["23"], o24=vals["24"])


@dataclass(frozen=True)
class GammaSet:
    """Complex coherence-decay coefficients of the equations of motion."""

    g21: complex
    g31: complex
    g32: complex
    g41: complex
    g42: complex
    g43: complex


def gamma_set(params: SystemParams, delta: float) -> GammaSet:
    """Coherence coefficients at bare detuning ``delta`` (gamma units)."""
    ge3 = 0.5 * (params.gamma31 + params.gamma32)
    ge4 = 0.5 * (params.gamma41 + params.gamma42)
    dg, de = params.delta_g, params.delta_e
    return GammaSet(
        g21=-1j * dg,
        g31=1j * (delta - dg) - ge3,
        g32=1j * delta - ge3,
        g41=1j * (delta - dg - de) - ge4,
        g42=1j * (delta - de) - ge4,
        g43=-1j * de - (ge3 + ge4),
    )
