"""The three benchmark workloads: set-up, one timed pass, and the gates.

A pass is a fixed list of timed units (one omega of the grid pipeline, one
cold call, the trajectory, the oracle); ``PassResult.units`` maps each
unit's key to its host-speed corrected seconds (see hostspeed.py).  run.py
repeats passes and takes each unit's median.

Every traced package function is called through a module attribute looked
up at call time (``sweep.run_sweep``, ``hfs.solve_selfconsistent``...), so
the wrappers that ``tracing.Tracer`` installs see the calls.  Tables are read
only through ``len``, ``column()`` and ``coherence()``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import hfs
from hfs import config, identities, sweep
from hfs.model import COHERENCE_LABELS, COHERENCE_PAIRS
from hostspeed import UnitTimer

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_PATH = os.path.join(HERE, "paper_grid.cfg")
REFERENCE_PATH = os.path.join(HERE, "reference.json")

WORKLOADS = ("grid_ndd_off", "grid_ndd_on", "point_checks")
# detunings per ω: small enough that a pass takes a few seconds, so a run
# repeats every unit several times (see README, "How a run is organised")
GRID_COUNTS = {"grid_ndd_off": 401, "grid_ndd_on": 21}
GRID_COLD_PER_OMEGA = 10            # grid points per ω with the cold check
POINT_DRIVES = 100                  # p90 of 100 has 10 samples beyond it
OMEGA_RANGE = (0.5, 100.0)          # gamma, log-uniform
DELTA_C_SPAN = 5.0                  # delta_u, uniform in +-span
EVOLVE_T_END = 5.0                  # gamma^-1
AGREE_TOL = 1e-6                    # direct vs relaxed, as criterion 06
# back-to-back repeats of a cold solve, by NDD setting: an NDD-off solve
# takes ~1 ms, near the host's own stalls, so its unit times several calls
SOLVE_CALLS = {False: 8, True: 1}
RELAX_KW = dict(residual_tol=1e-9, t_max=1e8)
TWO_LEVEL_GRID = dict(
    omegas=(0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0),
    deltas=(-8.0, -4.0, -2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 4.0, 8.0))
# reference comparison of summarize() and per-column norms: relative
# tolerance, plus an absolute floor scaled by the column's largest value
REF_RTOL = 1e-6
REF_ATOL_SCALE = 1e-6
NORM_SKIP = {"ndd", "converged", "iterations", "residual",
             "dispersion_class_31", "line_class_31",
             "dispersion_class_41", "line_class_41"}


@dataclass
class Inputs:
    workload: str
    params: object
    opts: object
    spec: object = None
    cold_drives: list = field(default_factory=list)   # (omega, delta_c, k)
    evolve_drive: object = None

    @property
    def seed_alters_inputs(self) -> bool:
        return self.spec is None

    @property
    def points(self) -> int:
        if self.spec is None:
            return len(self.cold_drives)
        return len(self.spec.delta_c) * len(self.spec.omegas)

    @property
    def point_units(self) -> tuple:
        """Kinds of the units that process the points: the grid pipeline,
        or the cold calls of point_checks."""
        return ("solve", "relax") if self.spec is None else ("grid",)

    def omega_specs(self):
        """(omega, the grid spec restricted to that omega)."""
        return [(om, dataclasses.replace(self.spec, omegas=(om,)))
                for om in self.spec.omegas]


@dataclass
class Gates:
    """Correctness checks: each attempted item either passes or fails."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")

    def count(self, name: str, n: int, n_bad: int, detail: str = "") -> None:
        self.attempted += n
        if n_bad:
            self.failed += n_bad
            self.failures.append(f"{name}: {n_bad} of {n} {detail}")


@dataclass
class PassResult:
    wall_s: float = 0.0                           # elapsed, kernel included
    raw_s: float = 0.0                            # sum of raw unit seconds
    units: dict = field(default_factory=dict)     # unit key -> corrected s
    tables: dict = field(default_factory=dict)    # omega -> table
    summary: dict = field(default_factory=dict)
    reports: list = field(default_factory=list)   # (report, gating)
    relaxed_at: dict = field(default_factory=dict)  # (omega, k) -> rho
    csv_paths: list = field(default_factory=list)
    json_paths: list = field(default_factory=list)
    csv_sha256: str = ""


def setup(workload: str, seed: int) -> Inputs:
    """Parse the config and build params, grid spec and drives."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    with open(CONFIG_PATH, "r", encoding="utf-8") as fh:
        doc = config.parse_config(fh.read())
    if workload == "grid_ndd_on":
        doc.set_override("sweep", "ndd", "true")
    if workload in GRID_COUNTS:
        doc.set_override("sweep", "delta_c_count",
                         str(GRID_COUNTS[workload]))
    params = doc.system_params()
    opts = doc.solve_options()
    rng = np.random.default_rng(seed)
    if workload == "point_checks":
        # Latin-hypercube draw: one drive per stratum of each axis, so the
        # spread of per-call cost depends little on which seed is used
        n = POINT_DRIVES
        u_om = (rng.permutation(n) + rng.random(n)) / n
        u_dc = (rng.permutation(n) + rng.random(n)) / n
        lo, hi = np.log(OMEGA_RANGE[0]), np.log(OMEGA_RANGE[1])
        omegas = np.exp(lo + (hi - lo) * u_om)
        dcs = (2.0 * u_dc - 1.0) * DELTA_C_SPAN * params.delta_u
        cold = [(float(w), float(d), -1) for w, d in zip(omegas, dcs)]
        # evolve's cost varies ~3x with the drive, so the trajectory uses
        # the configured drive (as `hfs evolve --config` does), not the seed
        return Inputs(workload, params, opts, cold_drives=cold,
                      evolve_drive=hfs.Drive(**doc.drive_kwargs(params)))
    spec = doc.sweep_spec(params)
    # the seed picks which grid points get the cold dual-solver check: one
    # per stratum of the detuning axis, so the sample's cost varies little
    grid = np.asarray(spec.delta_c)
    strata = np.array_split(np.arange(grid.size), GRID_COLD_PER_OMEGA)
    cold = []
    for om in spec.omegas:
        for k in (int(rng.choice(stratum)) for stratum in strata):
            cold.append((float(om), float(grid[k]), k))
    return Inputs(workload, params, opts, spec=spec, cold_drives=cold)


# -- passes -----------------------------------------------------------------

def omega_identities(params, table, spec, omega):
    """The table reports `hfs validate` computes for one omega, with its
    gating rule: with NDD on they are diagnostic only, as in the CLI."""
    reports = [identities.check_mirror_relations(table, omega),
               identities.check_evenness(table, omega),
               identities.check_raman_symmetric_form(params, table, omega),
               identities.check_raman_steady_table(params, table, omega,
                                                   ndd=spec.ndd)]
    return [(rep, not spec.ndd) for rep in reports]


def grid_units(inp: Inputs, workdir: str, gates: Gates, tag: str,
               timer: UnitTimer, res: PassResult) -> None:
    """Per omega, one unit: run_sweep -> write_csv -> write_json ->
    read_csv -> summarize -> that omega's identity reports."""
    digest = hashlib.sha256()
    for om, spec in inp.omega_specs():
        csv_path = os.path.join(workdir, f"{tag}-{om:g}.csv")
        json_path = os.path.join(workdir, f"{tag}-{om:g}.json")
        with timer.unit(("grid", om)):
            table = sweep.run_sweep(inp.params, spec)
            sweep.write_csv(table, csv_path)
            sweep.write_json(table, json_path)
            back = sweep.read_csv(csv_path)
            summary = sweep.summarize(back)
            reports = omega_identities(inp.params, back, spec, om)

        conv = table.column("converged")
        gates.count("converged", len(table), int(np.sum(~conv.astype(bool))),
                    f"grid points did not converge at omega={om:g}")
        res.tables[om] = table
        res.summary.update(summary)
        res.reports += reports
        res.csv_paths.append(csv_path)
        res.json_paths.append(json_path)
        with open(csv_path, "rb") as fh:
            digest.update(fh.read())
    res.csv_sha256 = digest.hexdigest()


def cold_units(inp: Inputs, gates: Gates, timer: UnitTimer,
               res: PassResult) -> None:
    """Cold single-point solves with NDD off and on, each cross-checked
    against relax_to_steady; every call is a unit.  Keeps the relaxed states
    at the grid's own NDD setting, keyed by (omega, grid index)."""
    grid_ndd = inp.spec.ndd if inp.spec is not None else None
    for i, (omega, dc, k) in enumerate(inp.cold_drives):
        for ndd in (False, True):
            drive = hfs.Drive(omega=omega, delta_c=dc, ndd_enabled=ndd)
            where = f"omega={omega:.6g} delta_c={dc:.6g} ndd={ndd}"
            try:
                with timer.unit(("solve", ndd, i), SOLVE_CALLS[ndd]):
                    for _ in range(SOLVE_CALLS[ndd]):
                        direct = hfs.solve_selfconsistent(inp.params, drive,
                                                          inp.opts)
            except hfs.SingularSystem as exc:
                gates.check("direct solve", False, f"{where}: {exc}")
                continue
            with timer.unit(("relax", ndd, i)):
                relaxed = hfs.relax_to_steady(inp.params, drive, **RELAX_KW)
            diff = float(np.max(np.abs(relaxed.rho - direct.rho)))
            gates.check("direct vs relaxed",
                        direct.converged and relaxed.converged
                        and diff < AGREE_TOL,
                        f"{where}: diff {diff:.3e}, converged "
                        f"{direct.converged}/{relaxed.converged}")
            if ndd == grid_ndd:
                res.relaxed_at[(omega, k)] = relaxed.rho


def evolve_unit(inp: Inputs, gates: Gates, timer: UnitTimer) -> None:
    with timer.unit(("evolve",)):
        traj = hfs.evolve(inp.params, inp.evolve_drive, hfs.ground_state(),
                          t_end=EVOLVE_T_END)
    rep = hfs.validate_density_matrix(traj.final)
    gates.check("evolve final state", rep.ok,
                f"ndd={inp.evolve_drive.ndd_enabled}: {rep}")


def oracle_unit(timer: UnitTimer, res: PassResult) -> None:
    with timer.unit(("oracle",)):
        oracle = identities.two_level_oracle_check(**TWO_LEVEL_GRID)
    res.reports.append((oracle, True))


def run_pass(inp: Inputs, workdir: str, gates: Gates, tag: str) -> PassResult:
    """Grids: the pipeline per omega, the oracle, the cold sample.
    point_checks: the cold drives, the trajectory, the oracle."""
    res = PassResult()
    t0 = time.perf_counter()
    timer = UnitTimer()
    if inp.spec is not None:
        grid_units(inp, workdir, gates, tag, timer, res)
        oracle_unit(timer, res)
        cold_units(inp, gates, timer, res)
    else:
        cold_units(inp, gates, timer, res)
        evolve_unit(inp, gates, timer)
        oracle_unit(timer, res)
    res.units = timer.close()
    res.raw_s = sum(dt for dt, _ in timer.raw.values())
    res.wall_s = time.perf_counter() - t0
    for rep, gating in res.reports:
        if gating:
            gates.check(f"identity {rep.identity}", rep.passed,
                        f"max residual {rep.max_residual:.3e} "
                        f">= tol {rep.tolerance:g}")
    return res


# -- checks outside the timed pass -------------------------------------------

def _table_rhos(table, omega):
    """(n, 4, 4) density matrices rebuilt from the table columns."""
    pops = [table.column(f"rho{i}{i}", omega) for i in range(1, 5)]
    rhos = np.zeros((len(pops[0]), 4, 4), dtype=complex)
    for i in range(4):
        rhos[:, i, i] = pops[i]
    for (i, j), lbl in zip(COHERENCE_PAIRS, COHERENCE_LABELS):
        c = table.coherence(lbl, omega)
        rhos[:, i, j] = c
        rhos[:, j, i] = np.conj(c)
    return rhos


def check_rows(res: PassResult, gates: Gates) -> None:
    """Grid rows agree with the relaxed states of the cold checks."""
    rows = {om: _table_rhos(table, om) for om, table in res.tables.items()}
    for (omega, k), rho in res.relaxed_at.items():
        diff = float(np.max(np.abs(rows[omega][k] - rho)))
        gates.check("grid row vs relaxed", diff < AGREE_TOL,
                    f"omega={omega:.6g} index={k}: diff {diff:.3e}")


def csv_round_trip(res: PassResult, gates: Gates) -> None:
    """read_csv -> write_csv must reproduce the CSV bytes."""
    for path in res.csv_paths:
        again = path + ".again"
        sweep.write_csv(sweep.read_csv(path), again)
        with open(path, "rb") as a, open(again, "rb") as b:
            gates.check("csv round trip", a.read() == b.read(),
                        f"read_csv -> write_csv changed {path}")


def fingerprint(tables: dict, summary: dict) -> dict:
    """summarize() output plus per-omega L2 norm and max-abs per column."""
    cols = {}
    for om in summary:
        per = {}
        for name in sweep.COLUMNS:
            if name in NORM_SKIP or name == "omega_over_gamma":
                continue
            v = tables[om].column(name, om).astype(float)
            per[name] = [float(np.linalg.norm(v)), float(np.max(np.abs(v)))]
        cols[repr(om)] = per
    return {"summary": json.loads(json.dumps(
        {repr(k): v for k, v in summary.items()})), "columns": cols}


def compare_reference(workload: str, res: PassResult, gates: Gates) -> None:
    """Compare against the checked-in reference within REF_RTOL."""
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        ref = json.load(fh)["workloads"][workload]
    got = fingerprint(res.tables, res.summary)
    bad = []
    for om, per in ref["columns"].items():
        for name, (norm, peak) in per.items():
            g_norm = got["columns"].get(om, {}).get(name, [math.nan])[0]
            if not _close(g_norm, norm, peak):
                bad.append(f"norm {name} at omega {om}: {g_norm!r} vs {norm!r}")
    _compare_tree(got["summary"], ref["summary"], ref["columns"], "", bad)
    gates.check(f"reference ({len(bad)} mismatches)", not bad,
                "; ".join(bad[:5]))


def _close(a, b, scale) -> bool:
    return abs(a - b) <= REF_RTOL * max(abs(a), abs(b)) \
        + REF_ATOL_SCALE * abs(scale)


def _compare_tree(got, ref, columns, path, bad) -> None:
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            bad.append(f"summary keys differ at {path or '/'}")
            return
        for key in ref:
            _compare_tree(got[key], ref[key], columns, f"{path}/{key}", bad)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            bad.append(f"summary length differs at {path}")
            return
        for i, (g, r) in enumerate(zip(got, ref)):
            _compare_tree(g, r, columns, f"{path}/{i}", bad)
    else:
        om, *keys = path.split("/")[1:]
        scale = columns[om][_leaf_column(keys)][1]
        if not _close(float(got), float(ref), scale):
            bad.append(f"summary {path}: {got!r} vs {ref!r}")


def _leaf_column(keys) -> str:
    """The table column a summarize() leaf was taken from."""
    if keys[-1] == "chi_im":
        return f"chi{keys[0][-2:]}_im"
    if keys[-1] == "value":
        return keys[0][:3]
    return "delta_c_over_delta_u"
