"""Plain-text configuration files with physical unit suffixes.

Grammar (strict):

    [section]                 sections: system, drive, sweep, solver
    key = value               keys: lowercase ASCII + underscores
    # comment                 '#' starts a comment anywhere on a line

Values are a float (decimal or scientific), an integer, a boolean
(``true``/``false``), a unit-suffixed float (``MHz``, ``gamma``,
``delta_u``) or a comma list of floats.  Unknown keys, duplicate keys within
a section, and unit suffixes a key does not accept are all errors, reported
with the offending line.

Frequencies resolve to internal gamma units: ``MHz`` values are multiplied
by 2*pi*1e6 and divided by ``gamma_ref``; ``delta_u`` multiplies by the mean
hyperfine splitting derived from the [system] section (so [system] is always
resolved first).  Unsuffixed frequency values are taken in gamma units,
except ``gamma`` itself which is in MHz.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .params import TWO_PI, Drive, SystemParams
from .steady import SolveOptions
from .sweep import SweepSpec


class ConfigError(Exception):
    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" at line {line}"
            if column is not None:
                loc += f", column {column}"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class ConfigSyntaxError(ConfigError):
    pass


class UnknownKeyError(ConfigError):
    pass


class DuplicateKeyError(ConfigError):
    pass


class UnitMismatchError(ConfigError):
    pass


_FLOAT_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_INT_RE = re.compile(r"^[+-]?\d+$")
_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_SECTION_RE = re.compile(r"^\[([a-z][a-z0-9_]*)\]$")

UNITS = ("MHz", "gamma", "delta_u")

# value kinds: "freq" (float with optional unit), "float", "int", "bool",
# "float_list"; the units tuple lists the suffixes a freq key accepts and its
# first entry is the unit of an unsuffixed value.
SCHEMA: dict[str, dict[str, tuple]] = {
    "system": {
        "gamma": ("freq", ("MHz",)),
        "delta_g": ("freq", ("MHz", "gamma")),
        "delta_e": ("freq", ("MHz", "gamma")),
        "gamma_31": ("freq", ("gamma", "MHz")),
        "gamma_32": ("freq", ("gamma", "MHz")),
        "gamma_41": ("freq", ("gamma", "MHz")),
        "gamma_42": ("freq", ("gamma", "MHz")),
        "mu_13": ("float", ()),
        "mu_14": ("float", ()),
        "mu_23": ("float", ()),
        "mu_24": ("float", ()),
        "number_density": ("float", ()),
        "dipole_moment": ("float", ()),
        "omega0": ("float", ()),
    },
    "drive": {
        "omega": ("freq", ("gamma", "MHz")),
        "delta_c": ("freq", ("gamma", "MHz", "delta_u")),
        "ndd": ("bool", ()),
    },
    "sweep": {
        "delta_c_min": ("freq", ("gamma", "MHz", "delta_u")),
        "delta_c_max": ("freq", ("gamma", "MHz", "delta_u")),
        "delta_c_count": ("int", ()),
        "omega_list": ("float_list", ()),
        "ndd": ("bool", ()),
    },
    "solver": {
        "fp_tol": ("float", ()),
        "max_iters": ("int", ()),
        "damping": ("float", ()),
    },
}


@dataclass(frozen=True)
class Entry:
    raw: str                      # value text as written (normalised spacing)
    kind: str                     # float | int | bool | float_list | freq
    value: object                 # parsed, unit-unresolved value
    unit: str | None = None       # freq keys: suffix, else the default unit
    line: int | None = field(default=None, compare=False)  # None: an override


@dataclass
class ConfigDocument:
    """Parsed configuration: raw entries per section plus resolvers."""

    entries: dict[str, dict[str, Entry]] = field(default_factory=dict)

    def get(self, section: str, key: str) -> Entry | None:
        return self.entries.get(section, {}).get(key)

    def set_override(self, section: str, key: str, value_text: str) -> None:
        """Apply a ``section.key=value`` override (CLI beats file)."""
        if section not in SCHEMA:
            raise UnknownKeyError(f"unknown section {section!r}")
        entry = _parse_value(section, key, value_text.strip(), line=None)
        self.entries.setdefault(section, {})[key] = entry

    # -- resolution to domain objects ------------------------------------

    def system_params(self) -> SystemParams:
        sec = self.entries.get("system", {})
        base = SystemParams()
        gamma_ref = base.gamma_ref
        if "gamma" in sec:
            gamma_ref = _freq_si(sec["gamma"])
        delta_u = None   # system keys must not use the delta_u suffix

        def freq(key, default):
            if key not in sec:
                return default
            return _freq_gamma(sec[key], gamma_ref, delta_u)

        kw = dict(
            gamma31=freq("gamma_31", base.gamma31),
            gamma32=freq("gamma_32", base.gamma32),
            gamma41=freq("gamma_41", base.gamma41),
            gamma42=freq("gamma_42", base.gamma42),
            delta_g=freq("delta_g", base.delta_g * base.gamma_ref / gamma_ref),
            delta_e=freq("delta_e", base.delta_e * base.gamma_ref / gamma_ref),
            gamma_ref=gamma_ref,
        )
        for cfg_key, attr in (("mu_13", "mu13"), ("mu_14", "mu14"),
                              ("mu_23", "mu23"), ("mu_24", "mu24"),
                              ("number_density", "number_density"),
                              ("dipole_moment", "dipole_moment"),
                              ("omega0", "omega0")):
            if cfg_key in sec:
                kw[attr] = float(sec[cfg_key].value)
        return _build("system", SystemParams, **kw)

    def drive_kwargs(self, params: SystemParams) -> dict:
        sec = self.entries.get("drive", {})
        kw = {}
        if "omega" in sec:
            kw["omega"] = _freq_gamma(sec["omega"], params.gamma_ref,
                                      params.delta_u)
        if "delta_c" in sec:
            kw["delta_c"] = _freq_gamma(sec["delta_c"], params.gamma_ref,
                                        params.delta_u)
        if "ndd" in sec:
            kw["ndd_enabled"] = bool(sec["ndd"].value)
        return kw

    def drive(self, params: SystemParams) -> Drive:
        """The [drive] section as a :class:`Drive` (omega defaults to 1)."""
        return _build("drive", Drive, **{"omega": 1.0,
                                          **self.drive_kwargs(params)})

    def solve_options(self) -> SolveOptions:
        sec = self.entries.get("solver", {})
        kw = {}
        if "fp_tol" in sec:
            kw["fp_tol"] = float(sec["fp_tol"].value)
        if "max_iters" in sec:
            kw["max_iters"] = int(sec["max_iters"].value)
        if "damping" in sec:
            kw["damping"] = float(sec["damping"].value)
        return _build("solver", SolveOptions, **kw)

    def sweep_spec(self, params: SystemParams) -> SweepSpec:
        sec = self.entries.get("sweep", {})
        lo = _freq_gamma(sec["delta_c_min"], params.gamma_ref,
                         params.delta_u) if "delta_c_min" in sec \
            else -5.0 * params.delta_u
        hi = _freq_gamma(sec["delta_c_max"], params.gamma_ref,
                         params.delta_u) if "delta_c_max" in sec \
            else 5.0 * params.delta_u
        count = int(sec["delta_c_count"].value) if "delta_c_count" in sec \
            else 2001
        omegas = tuple(sec["omega_list"].value) if "omega_list" in sec \
            else (0.5, 5.0, 20.0, 100.0)
        ndd = bool(sec["ndd"].value) if "ndd" in sec else False
        if lo == -hi and count % 2 == 1:
            return _build("sweep", SweepSpec.paper_grid, params, count=count,
                          span_delta_u=hi / params.delta_u, omegas=omegas,
                          ndd=ndd, options=self.solve_options())
        return _build("sweep", SweepSpec.linear, lo, hi, count, omegas,
                      ndd=ndd, options=self.solve_options())

    def serialize(self) -> str:
        lines = []
        for section in SCHEMA:
            if section not in self.entries:
                continue
            lines.append(f"[{section}]")
            for key, entry in self.entries[section].items():
                lines.append(f"{key} = {entry.raw}")
            lines.append("")
        return "\n".join(lines)


def _build(section: str, make, *args, **kw):
    """Turn config values into a domain object; its rejections are config
    errors."""
    try:
        return make(*args, **kw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def _freq_si(entry: Entry) -> float:
    """MHz value -> rad/s."""
    return float(entry.value) * TWO_PI * 1e6


def _freq_gamma(entry: Entry, gamma_ref: float, delta_u: float | None) -> float:
    if entry.unit == "MHz":
        return float(entry.value) * TWO_PI * 1e6 / gamma_ref
    if entry.unit == "delta_u":
        if delta_u is None:
            raise UnitMismatchError(
                "delta_u suffix is not valid here", line=entry.line)
        return float(entry.value) * delta_u
    return float(entry.value)


def _parse_value(section: str, key: str, text: str,
                 line: int | None) -> Entry:
    schema = SCHEMA.get(section)
    if schema is None:
        raise UnknownKeyError(f"unknown section {section!r}", line=line)
    if key not in schema:
        raise UnknownKeyError(f"unknown key {key!r} in [{section}]", line=line)
    kind, units = schema[key]

    if kind == "bool":
        if text not in ("true", "false"):
            raise ConfigSyntaxError(
                f"expected true/false for {key!r}, got {text!r}", line=line)
        return Entry(raw=text, kind="bool", value=(text == "true"), line=line)

    if kind == "int":
        if not _INT_RE.match(text):
            raise ConfigSyntaxError(
                f"expected an integer for {key!r}, got {text!r}", line=line)
        return Entry(raw=text, kind="int", value=int(text), line=line)

    if kind == "float_list":
        parts = [p.strip() for p in text.split(",")]
        if not parts or any(not _FLOAT_RE.match(p) for p in parts):
            raise ConfigSyntaxError(
                f"expected a comma list of floats for {key!r}, got {text!r}",
                line=line)
        vals = tuple(float(p) for p in parts)
        return Entry(raw=", ".join(parts), kind="float_list", value=vals,
                     line=line)

    # float / freq: optional unit suffix separated by whitespace
    parts = text.split()
    if len(parts) == 1:
        num, unit = parts[0], None
    elif len(parts) == 2:
        num, unit = parts
    else:
        raise ConfigSyntaxError(f"cannot parse value {text!r}", line=line)
    if not _FLOAT_RE.match(num):
        raise ConfigSyntaxError(
            f"expected a number for {key!r}, got {num!r}", line=line)
    if unit is not None:
        if unit not in UNITS:
            raise ConfigSyntaxError(f"unknown unit {unit!r}", line=line)
        if kind != "freq" or unit not in units:
            raise UnitMismatchError(
                f"key {key!r} does not accept unit {unit!r}", line=line)
    raw = num if unit is None else f"{num} {unit}"
    if kind == "freq" and unit is None:
        unit = units[0]
    return Entry(raw=raw, kind=kind, value=float(num), unit=unit, line=line)


def parse_config(text: str) -> ConfigDocument:
    doc = ConfigDocument()
    section = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        hash_pos = raw_line.find("#")
        line = (raw_line if hash_pos < 0 else raw_line[:hash_pos]).strip()
        if not line:
            continue
        m = _SECTION_RE.match(line)
        if m:
            section = m.group(1)
            if section not in SCHEMA:
                raise UnknownKeyError(f"unknown section {section!r}",
                                      line=lineno)
            doc.entries.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigSyntaxError(f"expected 'key = value', got {line!r}",
                                    line=lineno, column=1)
        if section is None:
            raise ConfigSyntaxError("entry before any [section] header",
                                    line=lineno)
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if not _KEY_RE.match(key):
            raise ConfigSyntaxError(f"invalid key {key!r}", line=lineno)
        if key in doc.entries[section]:
            raise DuplicateKeyError(
                f"duplicate key {key!r} in [{section}]", line=lineno)
        doc.entries[section][key] = _parse_value(section, key, value_text,
                                                 line=lineno)
    return doc
