"""Detuning/intensity sweeps and their serialization.

Each intensity is solved as one stack over the whole detuning axis by
:func:`hfs.steady.solve_grid`; every point starts cold, so the points (and
the intensities) are independent of each other.  Points without a unique
steady state are kept in the table, flagged, never interpolated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import optics
from .model import STATE_COLUMNS, unpack
from .params import Drive, SystemParams
from .steady import SolveOptions, solve_grid

COLUMNS = (
    ["delta_c_over_delta_u", "omega_over_gamma", "ndd", *STATE_COLUMNS,
     "w_g", "w_e",
       "chi31_re", "chi31_im", "chi41_re", "chi41_im",
       "n31", "ng31", "n41", "ng41",
       "dispersion_class_31", "line_class_31",
       "dispersion_class_41", "line_class_41",
       "converged", "iterations", "residual"]
)

_STR_COLUMNS = {"dispersion_class_31", "line_class_31",
                "dispersion_class_41", "line_class_41"}
_BOOL_COLUMNS = {"ndd", "converged"}
_INT_COLUMNS = {"iterations"}


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition: detuning values (gamma units) x intensity list."""

    delta_c: tuple[float, ...]
    omegas: tuple[float, ...]
    ndd: bool = False
    options: SolveOptions = field(default_factory=SolveOptions)
    symmetric_grid: bool = False

    def __post_init__(self):
        grid = np.asarray(self.delta_c, dtype=float)
        if grid.size < 3:
            raise ValueError("detuning grid needs at least 3 points")
        if not np.all(np.isfinite(grid)):
            raise ValueError("detuning grid must be finite")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("detuning grid must be strictly increasing")
        if len(self.omegas) < 1 or not all(0 < w < np.inf
                                           for w in self.omegas):
            raise ValueError("omega list must contain positive finite values")
        if self.symmetric_grid and np.max(np.abs(grid + grid[::-1])) != 0.0:
            raise ValueError("symmetric_grid set but grid is not mirror-"
                             "symmetric about 0")

    @classmethod
    def linear(cls, lo: float, hi: float, count: int, omegas, ndd=False,
               options: SolveOptions | None = None) -> "SweepSpec":
        if not np.isfinite(float(hi) - float(lo)):
            raise ValueError("detuning range must be finite")
        grid = np.linspace(lo, hi, count)
        sym = bool(np.max(np.abs(grid + grid[::-1])) == 0.0)
        return cls(delta_c=tuple(grid), omegas=tuple(omegas), ndd=ndd,
                   options=options or SolveOptions(), symmetric_grid=sym)

    @classmethod
    def paper_grid(cls, params: SystemParams, count: int = 2001,
                   span_delta_u: float = 5.0,
                   omegas=(0.5, 5.0, 20.0, 100.0), ndd: bool = False,
                   options: SolveOptions | None = None) -> "SweepSpec":
        """Symmetric grid over +-span*delta_u, built exactly mirror-symmetric."""
        if count % 2 == 0:
            raise ValueError("symmetric grid needs an odd point count")
        if not np.isfinite(float(span_delta_u) * params.delta_u):
            raise ValueError("detuning span must be finite")
        half = np.linspace(0.0, span_delta_u * params.delta_u,
                           (count + 1) // 2)
        grid = np.concatenate([-half[:0:-1], half])
        return cls(delta_c=tuple(grid), omegas=tuple(omegas), ndd=ndd,
                   options=options or SolveOptions(), symmetric_grid=True)


@dataclass
class SpectrumTable:
    """Ordered sweep records; one dict per grid point, keys = COLUMNS."""

    records: list[dict]

    def __len__(self) -> int:
        return len(self.records)

    def column(self, name: str, omega: float | None = None) -> np.ndarray:
        recs = self.records if omega is None else \
            [r for r in self.records if r["omega_over_gamma"] == omega]
        vals = [r[name] for r in recs]
        if name in _STR_COLUMNS:
            return np.asarray(vals, dtype=object)
        return np.asarray(vals)

    def omegas(self) -> list[float]:
        seen = []
        for r in self.records:
            if r["omega_over_gamma"] not in seen:
                seen.append(r["omega_over_gamma"])
        return seen

    def coherence(self, label: str, omega: float | None = None) -> np.ndarray:
        return (self.column(f"re_rho{label}", omega)
                + 1j * self.column(f"im_rho{label}", omega))


def _solve_one_intensity(params: SystemParams, spec: SweepSpec,
                         omega: float) -> list[dict]:
    delta_u = params.delta_u
    sol = solve_grid(params, omega, spec.delta_c, spec.ndd, spec.options)
    rhos = unpack(sol.x.T)
    # the susceptibility depends on the drive's strength, not its detuning
    drive = Drive(omega=omega, ndd_enabled=spec.ndd)
    records = []
    chis = {"31": [], "41": []}
    for k, dc in enumerate(spec.delta_c):
        rec = {"delta_c_over_delta_u": dc / delta_u,
               "omega_over_gamma": omega, "ndd": spec.ndd}
        if sol.singular[k]:
            for c in COLUMNS[3:]:
                if c in _STR_COLUMNS:
                    rec[c] = ""
                elif c in _BOOL_COLUMNS:
                    rec[c] = False
                elif c in _INT_COLUMNS:
                    rec[c] = 0
                else:
                    rec[c] = float("nan")
            for tr in ("31", "41"):
                chis[tr].append(complex("nan"))
        else:
            rho = rhos[..., k]
            rec.update(zip(STATE_COLUMNS, sol.x[k].tolist()))
            wg, we = optics.population_transfer(rho)
            rec["w_g"], rec["w_e"] = wg, we
            for tr in ("31", "41"):
                s = optics.susceptibility(params, drive, rho, tr)
                rec[f"chi{tr}_re"], rec[f"chi{tr}_im"] = s.chi_re, s.chi_im
                chis[tr].append(s.chi)
            rec["converged"] = bool(sol.converged[k])
            rec["iterations"] = int(sol.iterations[k])
            rec["residual"] = float(sol.residual[k])
        records.append(rec)

    grid = np.asarray(spec.delta_c, dtype=float)
    for tr in ("31", "41"):
        chi = np.asarray(chis[tr])
        n = np.array([optics.refractive_index(c) for c in chi])
        ng, _ = optics.group_index_profile(grid, n, params)
        points = optics.classify(grid, n, ng, chi.imag)
        for rec, nv, p in zip(records, n, points):
            rec[f"n{tr}"] = float(nv)
            rec[f"ng{tr}"] = float(p.ng)
            rec[f"dispersion_class_{tr}"] = p.dispersion_class
            rec[f"line_class_{tr}"] = p.line_class
    return records


def run_sweep(params: SystemParams, spec: SweepSpec) -> SpectrumTable:
    """Solve the full grid in (omega, delta_c) order."""
    records = []
    for omega in spec.omegas:
        records.extend(_solve_one_intensity(params, spec, omega))
    return SpectrumTable(records=records)


def _format(value, col: str) -> str:
    if col in _STR_COLUMNS:
        return str(value)
    if col in _BOOL_COLUMNS:
        return "true" if value else "false"
    if col in _INT_COLUMNS:
        return str(int(value))
    return f"{float(value):.17g}"


def write_csv(table: SpectrumTable, path) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(COLUMNS) + "\n")
            for rec in table.records:
                fh.write(",".join(_format(rec[c], c) for c in COLUMNS) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing sweep CSV to {path}: {exc}") from exc


def write_json(table: SpectrumTable, path) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump([{c: rec[c] for c in COLUMNS}
                       for rec in table.records], fh, indent=1)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"failed writing sweep JSON to {path}: {exc}") from exc


def _parse(text: str, col: str):
    if col in _STR_COLUMNS:
        return text
    if col in _BOOL_COLUMNS:
        return text == "true"
    if col in _INT_COLUMNS:
        return int(text)
    return float(text)


def read_csv(path) -> SpectrumTable:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header != list(COLUMNS):
            raise ValueError(f"unexpected CSV header in {path}")
        records = []
        for line in fh:
            cells = line.rstrip("\n").split(",")
            records.append({c: _parse(v, c) for c, v in zip(COLUMNS, cells)})
    return SpectrumTable(records=records)


def read_json(path) -> SpectrumTable:
    with open(path, "r", encoding="utf-8") as fh:
        return SpectrumTable(records=json.load(fh))


def _gain_intervals(delta_c_du: np.ndarray, line: np.ndarray) -> list:
    intervals = []
    start = None
    for k, cls in enumerate(line):
        if cls == optics.GAIN and start is None:
            start = delta_c_du[k]
        elif cls != optics.GAIN and start is not None:
            intervals.append((float(start), float(delta_c_du[k - 1])))
            start = None
    if start is not None:
        intervals.append((float(start), float(delta_c_du[-1])))
    return intervals


def summarize(table: SpectrumTable) -> dict:
    """Extrema report per intensity: population-transfer peaks, gain
    intervals and steepest-dispersion locations for transitions 31 and 41."""
    out = {}
    for omega in table.omegas():
        dc = table.column("delta_c_over_delta_u", omega)
        entry = {}
        for name in ("w_g", "w_e"):
            vals = table.column(name, omega)
            imax, imin = int(np.nanargmax(vals)), int(np.nanargmin(vals))
            entry[f"{name}_max"] = {"value": float(vals[imax]),
                                    "delta_c_over_delta_u": float(dc[imax])}
            entry[f"{name}_min"] = {"value": float(vals[imin]),
                                    "delta_c_over_delta_u": float(dc[imin])}
        for tr in ("31", "41"):
            line = table.column(f"line_class_{tr}", omega)
            chi_im = table.column(f"chi{tr}_im", omega)
            chi_re = table.column(f"chi{tr}_re", omega)
            slope = np.gradient(chi_re, dc)
            k_steep = int(np.nanargmax(np.abs(slope)))
            k_absmax = int(np.nanargmax(chi_im))
            k_gainmax = int(np.nanargmin(chi_im))
            entry[f"transition_{tr}"] = {
                "gain_intervals": _gain_intervals(dc, line),
                "absorption_peak": {"chi_im": float(chi_im[k_absmax]),
                                    "delta_c_over_delta_u": float(dc[k_absmax])},
                "gain_peak": {"chi_im": float(chi_im[k_gainmax]),
                              "delta_c_over_delta_u": float(dc[k_gainmax])},
                "steepest_dispersion_delta_c_over_delta_u": float(dc[k_steep]),
            }
        out[omega] = entry
    return out
