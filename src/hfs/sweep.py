"""Detuning/intensity sweeps and their serialization.

Each intensity is solved as one stack over the whole detuning axis by
:func:`hfs.steady.solve_grid`; every point starts cold, so the points (and
the intensities) are independent of each other.  Points without a unique
steady state are kept in the table, flagged (NaN values, blank labels),
never interpolated, and left out of their neighbours' differences.  Tables
are columnar, and the optics, writers and readers work on whole columns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import optics
from .model import STATE_COLUMNS, unpack
from .params import Drive, SystemParams, _is_real
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

# each label column's vocabulary: the labels optics.classify gives
_LABELS = {f"{kind}_class_{tr}": words for tr in ("31", "41")
           for kind, words in (("dispersion", optics.DISPERSION_LABELS),
                               ("line", optics.LINE_LABELS))}

_DTYPES = {**dict.fromkeys(COLUMNS, float), "ndd": bool, "converged": bool,
           "iterations": np.int64, **dict.fromkeys(_LABELS, object)}


# one CSV row's format: its cells in COLUMNS order
_CSV_ROW = ",".join("%.17g" if _DTYPES[c] is float else "%s"
                    for c in COLUMNS) + "\n"


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition: detuning values (gamma units) x intensity list."""

    delta_c: tuple[float, ...]
    omegas: tuple[float, ...]
    ndd: bool = False
    options: SolveOptions = field(default_factory=SolveOptions)

    def __post_init__(self):
        grid = np.asarray(self.delta_c, dtype=float)
        if grid.size < 3:
            raise ValueError("detuning grid needs at least 3 points")
        if not np.all(np.isfinite(grid)):
            raise ValueError("detuning grid must be finite")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("detuning grid must be strictly increasing")
        if not np.iterable(self.omegas):
            raise ValueError("omega list must contain positive finite values")
        object.__setattr__(self, "omegas", tuple(self.omegas))
        if len(self.omegas) < 1 or not all(_is_real(w) and 0 < w < np.inf
                                           for w in self.omegas):
            raise ValueError("omega list must contain positive finite values")
        if len(set(self.omegas)) != len(self.omegas):
            raise ValueError("omega list must not repeat a value")

    @classmethod
    def linear(cls, lo: float, hi: float, count: int, omegas, ndd=False,
               options: SolveOptions | None = None) -> "SweepSpec":
        if not (_is_real(lo) and _is_real(hi)
                and np.isfinite(float(hi) - float(lo))):
            raise ValueError("detuning range must be finite real numbers")
        if not isinstance(count, (int, np.integer)) or count < 3:
            raise ValueError("detuning grid needs at least 3 points, counted "
                             "by an integer")
        return cls(delta_c=tuple(np.linspace(lo, hi, count)), omegas=omegas,
                   ndd=ndd, options=options or SolveOptions())

    @classmethod
    def paper_grid(cls, params: SystemParams, count: int = 2001,
                   span_delta_u: float = 5.0,
                   omegas=(0.5, 5.0, 20.0, 100.0), ndd: bool = False,
                   options: SolveOptions | None = None) -> "SweepSpec":
        """Symmetric grid over +-span*delta_u, built exactly mirror-symmetric."""
        if not isinstance(count, (int, np.integer)) or count < 3:
            raise ValueError("detuning grid needs at least 3 points, counted "
                             f"by an integer: count = {count!r}")
        if count % 2 == 0:
            raise ValueError("symmetric grid needs an odd point count")
        if not _is_real(span_delta_u):
            raise ValueError("span_delta_u must be a real number, not "
                             f"{span_delta_u!r}")
        if not np.isfinite(float(span_delta_u) * params.delta_u):
            raise ValueError("detuning span must be finite")
        half = np.linspace(0.0, span_delta_u * params.delta_u,
                           (count + 1) // 2)
        grid = np.concatenate([-half[:0:-1], half])
        return cls(delta_c=tuple(grid), omegas=omegas, ndd=ndd,
                   options=options or SolveOptions())


class SpectrumTable:
    """Sweep results in (omega, delta_c) row order, one array per column.

    ``columns`` maps each name in COLUMNS to one value per grid point, of
    the column's type in ``_DTYPES`` (labels are str in object arrays).  A
    label column holds only the labels :func:`hfs.optics.classify` gives;
    any other value raises ValueError naming the column.  Each omega's rows
    are one block, so ``column(name, omega)`` is a slice.  The table keeps
    read-only copies of the arrays; copy a column to change it.  Since
    nothing can change them, the text of the CSV rows is built on first
    use and kept (``_csv_body``), and both writers share it.
    """

    def __init__(self, columns: dict):
        self._columns = {}
        for c in COLUMNS:
            # a copy: nothing outside the table can change a column under
            # its kept CSV text
            self._columns[c] = np.array(columns[c], dtype=_DTYPES[c])
            self._columns[c].flags.writeable = False
        for c, words in _LABELS.items():
            bad = set(self._columns[c].tolist()) - words
            if bad:
                raise ValueError(f"column {c} holds labels outside "
                                 f"{sorted(words)}: {sorted(map(repr, bad))}")
        om = self._columns["omega_over_gamma"]
        starts = np.flatnonzero(np.r_[True, om[1:] != om[:-1]][:om.size])
        self._blocks = {float(om[a]): slice(a, b) for a, b in
                        zip(starts.tolist(), [*starts[1:].tolist(), om.size])}
        if len(self._blocks) != len(starts):
            raise ValueError("the rows of each omega must be contiguous")

    def __len__(self) -> int:
        return self._columns["omega_over_gamma"].size

    def column(self, name: str, omega: float | None = None) -> np.ndarray:
        col = self._columns[name]
        if omega is None:
            return col
        block = self._blocks.get(omega)
        if block is None:
            raise ValueError(f"no rows for omega = {omega}; the table holds "
                             f"omegas {self.omegas()}")
        return col[block]

    def omegas(self) -> list[float]:
        return list(self._blocks)

    def coherence(self, label: str, omega: float | None = None) -> np.ndarray:
        return (self.column(f"re_rho{label}", omega)
                + 1j * self.column(f"im_rho{label}", omega))

    @cached_property
    def _csv_body(self) -> str:
        """One line per grid point: floats as ``%.17g``, bools as
        true/false, integers and labels as ``str`` gives them."""
        return _CSV_ROW * len(self) % _cells(self)


def _solve_one_intensity(params: SystemParams, spec: SweepSpec,
                         omega: float) -> dict:
    """The columns of one intensity's rows, in delta_c order."""
    grid = np.asarray(spec.delta_c, dtype=float)
    sol = solve_grid(params, omega, spec.delta_c, spec.ndd, spec.options)
    rhos = unpack(sol.x.T)
    # the susceptibility depends on the drive's strength, not its detuning
    drive = Drive(omega=omega, ndd_enabled=spec.ndd)
    cols = {"delta_c_over_delta_u": grid / params.delta_u,
            "omega_over_gamma": np.full(grid.size, float(omega)),
            "ndd": np.full(grid.size, spec.ndd),
            **dict(zip(STATE_COLUMNS, np.ascontiguousarray(sol.x.T))),
            "converged": sol.converged, "iterations": sol.iterations,
            "residual": sol.residual}
    cols["w_g"], cols["w_e"] = optics.population_transfer(rhos)
    for tr in ("31", "41"):
        s = optics.susceptibility(params, drive, rhos, tr)
        n = optics.refractive_index(s.chi)
        cols[f"chi{tr}_re"], cols[f"chi{tr}_im"] = s.chi_re, s.chi_im
        cols[f"n{tr}"] = n
        cols[f"ng{tr}"], _ = optics.group_index_profile(grid, n, params)
        cols[f"dispersion_class_{tr}"], cols[f"line_class_{tr}"] = \
            optics.classify(grid, n, s.chi_im)
    return cols


def run_sweep(params: SystemParams, spec: SweepSpec) -> SpectrumTable:
    """Solve the full grid in (omega, delta_c) order."""
    blocks = [_solve_one_intensity(params, spec, omega)
              for omega in spec.omegas]
    return SpectrumTable({c: np.concatenate([b[c] for b in blocks])
                          for c in COLUMNS})


def _cells(table: SpectrumTable) -> tuple:
    """Every cell in row-major order: bools as true/false, the rest as
    Python numbers and str."""
    ncol = len(COLUMNS)
    flat = [None] * (len(table) * ncol)
    for j, c in enumerate(COLUMNS):
        col = table.column(c)
        if _DTYPES[c] is bool:
            col = np.where(col, "true", "false")
        flat[j::ncol] = col.tolist()
    return tuple(flat)


def write_csv(table: SpectrumTable, path) -> None:
    """One header line, then one row per grid point: floats as ``%.17g``
    (round-trips exactly), bools as true/false, labels verbatim.  The rows
    are the table's kept text, formatted on the first write of either
    format."""
    text = table._csv_body
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(COLUMNS) + "\n")
            fh.write(text)
    except OSError as exc:
        raise OSError(f"failed writing sweep CSV to {path}: {exc}") from exc


_JSON_ROW = " {\n" + ",\n".join(f"  {json.dumps(c)}: %s"
                                 for c in COLUMNS) + "\n }"
_JSON_LABELS = {v: json.dumps(v) for v in set().union(*_LABELS.values())}
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# rows formatted and written at a time, which bounds write_json's memory
_JSON_BLOCK = 512


def _json_rows(table: SpectrumTable, lines: list, a: int, b: int) -> str:
    """Rows ``a`` to ``b - 1`` as JSON objects, from their CSV lines."""
    ncol = len(COLUMNS)
    cells = ",".join(lines[a:b]).split(",")
    for j, c in enumerate(COLUMNS):
        if _DTYPES[c] is object:
            cells[j::ncol] = [_JSON_LABELS[v] for v in cells[j::ncol]]
        elif _DTYPES[c] is float:
            col = table.column(c)[a:b]
            redo = np.flatnonzero(~np.isfinite(col) | (np.trunc(col) == col))
            for k, v in zip(redo.tolist(), col[redo].tolist()):
                text = repr(v)
                cells[k * ncol + j] = _JSON_NONFINITE.get(text, text)
    return ",\n".join([_JSON_ROW] * (b - a)) % tuple(cells)


def write_json(table: SpectrumTable, path) -> None:
    """A list of one object per grid point, keys in COLUMNS order, laid out
    as ``json.dump(rows, fh, indent=1)`` lays it out, plus a newline.

    The cells are those of the CSV rows (see :func:`write_csv`), split
    from the table's kept text, not formatted again: bools and integers as
    they are, labels as JSON strings.  A float keeps its ``%.17g`` text
    (e.g. 0.10000000000000001), which loads back to the same float; an
    integral one (-0.0 included), which that text would make a JSON
    integer, is written as ``repr`` gives it, and NaN and the infinities as
    ``json.dump`` writes them.
    """
    lines = table._csv_body.split("\n")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            if not len(table):
                fh.write("[]\n")
                return
            for a in range(0, len(table), _JSON_BLOCK):
                fh.write(",\n" if a else "[\n")
                fh.write(_json_rows(table, lines, a,
                                    min(a + _JSON_BLOCK, len(table))))
            fh.write("\n]\n")
    except OSError as exc:
        raise OSError(f"failed writing sweep JSON to {path}: {exc}") from exc


def read_csv(path) -> SpectrumTable:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header != list(COLUMNS):
            raise ValueError(f"unexpected CSV header in {path}")
        rows = [line.split(",") for line in fh.read().splitlines()]
    if any(len(r) != len(COLUMNS) for r in rows):
        raise ValueError(f"CSV row with a wrong number of cells in {path}")
    cols = dict(zip(COLUMNS, zip(*rows) if rows else [()] * len(COLUMNS)))
    for c in ("ndd", "converged"):
        if not set(cols[c]) <= {"true", "false"}:
            raise ValueError(f"CSV column {c} is not true/false in {path}")
        cols[c] = [v == "true" for v in cols[c]]
    try:
        return SpectrumTable(cols)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{exc} in {path}") from exc


# per column dtype, the Python types json.load may give its values (a bool
# is neither a number nor an integer here) and their name in errors
_JSON_TYPES = {float: ({int, float}, "a number"),
               bool: ({bool}, "true/false"),
               np.int64: ({int}, "an integer"),
               object: ({str}, "a string")}


def read_json(path) -> SpectrumTable:
    """A table written by :func:`write_json`: a list of objects with exactly
    the COLUMNS keys, values of each column's JSON type (numbers, true/false,
    integers, strings).  Anything else raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            rows = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path} is not JSON text: {exc}") from exc
    keys = set(COLUMNS)
    if not (type(rows) is list
            and all(type(r) is dict and r.keys() == keys for r in rows)):
        raise ValueError(f"JSON table in {path} is not a list of objects "
                         "with the sweep columns as keys")
    cols = {c: [r[c] for r in rows] for c in COLUMNS}
    for c in COLUMNS:
        types, name = _JSON_TYPES[_DTYPES[c]]
        if not {type(v) for v in cols[c]} <= types:
            raise ValueError(f"JSON column {c} is not {name} in {path}")
    try:
        return SpectrumTable(cols)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{exc} in {path}") from exc


def _gain_intervals(delta_c_du: np.ndarray, line: np.ndarray) -> list:
    """(first, last) detuning of each run of gain labels."""
    edges = np.flatnonzero(np.diff(np.r_[False, line == optics.GAIN, False]))
    return [(float(delta_c_du[a]), float(delta_c_du[b - 1]))
            for a, b in zip(edges[::2].tolist(), edges[1::2].tolist())]


def _extremum(pick, vals: np.ndarray, dc: np.ndarray, key: str = "value"):
    """{key: vals[k], "delta_c_over_delta_u": dc[k]} at k = pick(vals),
    or None when every value is NaN (an intensity of flagged rows)."""
    if np.isnan(vals).all():
        return None
    k = int(pick(vals))
    return {key: float(vals[k]), "delta_c_over_delta_u": float(dc[k])}


def summarize(table: SpectrumTable) -> dict:
    """Extrema report per intensity: population-transfer peaks, gain
    intervals and steepest-dispersion locations for transitions 31 and 41,
    in builtin Python types.  Flagged rows are skipped: an extremum that
    has no row left is None."""
    out = {}
    for omega in table.omegas():
        dc = table.column("delta_c_over_delta_u", omega)
        entry = {}
        for name in ("w_g", "w_e"):
            vals = table.column(name, omega)
            entry[f"{name}_max"] = _extremum(np.nanargmax, vals, dc)
            entry[f"{name}_min"] = _extremum(np.nanargmin, vals, dc)
        for tr in ("31", "41"):
            chi_im = table.column(f"chi{tr}_im", omega)
            slope = optics._slope(table.column(f"chi{tr}_re", omega), dc)
            steep = _extremum(np.nanargmax, np.abs(slope), dc)
            entry[f"transition_{tr}"] = {
                "gain_intervals": _gain_intervals(
                    dc, table.column(f"line_class_{tr}", omega)),
                "absorption_peak": _extremum(np.nanargmax, chi_im, dc,
                                             "chi_im"),
                "gain_peak": _extremum(np.nanargmin, chi_im, dc, "chi_im"),
                "steepest_dispersion_delta_c_over_delta_u":
                    None if steep is None else steep["delta_c_over_delta_u"],
            }
        out[omega] = entry
    return out
