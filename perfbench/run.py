"""hfs benchmark: one workload per invocation, metrics as a JSON last line.

    python3 perfbench/run.py --workload grid_ndd_off --seed 1 --seconds 36 \\
        --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  ``--trace 0`` repeats untraced passes and prints the
end-to-end metrics of one pass with every timed unit at its median repeat;
pass times are host-speed corrected (hostspeed.py).  ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics plus the
tracing overhead.  Every run checks correctness; a failed check makes
``correct`` false and the exit code 1.  See README.md for the metrics and
workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 5
MIN_PASSES = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_TIMEOUT_S = 60


def load_package():
    """Import hfs from this checkout, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "hfs", "__init__.py")):
        sys.exit(f"error: no hfs package under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    import hfs
    if not os.path.abspath(hfs.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported hfs from {hfs.__file__}, not {SRC}")


def probe_setup(workload: str, seed: int, env: dict) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe_setup.py"), workload,
         str(seed)],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True,
        timeout=PROBE_TIMEOUT_S)
    return float(out.stdout.strip().splitlines()[-1])


def measure_setup(workload: str, seed: int) -> tuple[float, list]:
    """Median of SETUP_PROBES fresh-process set-ups, host-speed corrected
    by the median of kernel runs between them, and the raw samples.  Three
    kernel runs precede each probe, because the first run after a probe is
    slowed by it."""
    import hostspeed
    raw, kernels = [], []
    for _ in range(SETUP_PROBES):
        kernels += [hostspeed.kernel() for _ in range(3)]
        raw.append(probe_setup(workload, seed, dict(os.environ)))
    scale = hostspeed.REF_KERNEL_S / statistics.median(kernels)
    return statistics.median(raw) * scale, raw


def blas_info() -> dict:
    import numpy as np
    info = {"threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    info["threads"] = openblas_threads()
    return info


def openblas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import ctypes
    import glob
    import numpy as np
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args, workload_inputs) -> dict:
    import numpy as np
    import scipy
    return {
        "workload": args.workload, "seed": args.seed,
        "seed_alters_inputs": workload_inputs.seed_alters_inputs,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas_info(),
        "hfs_threads": os.environ.get("HFS_THREADS"),
        "machine": platform.machine(),
    }


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def measure(wl, inp, seconds: float, workdir: str, gates) -> list:
    """Whole passes until ``seconds`` is used up: another pass starts only
    if it is expected to end within the budget, after MIN_PASSES."""
    passes = []
    start = time.perf_counter()
    while True:
        if passes:
            passes[-1].tables = {}      # keep one pass's tables alive
        passes.append(wl.run_pass(inp, workdir, gates, f"p{len(passes)}"))
        typical = statistics.median(p.wall_s for p in passes)
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - start + typical > seconds):
            return passes


def median_units(passes) -> dict:
    """Each unit's median over the passes."""
    return {key: statistics.median(p.units[key] for p in passes
                                   if key in p.units)
            for key in passes[0].units}


def grid_checks(wl, inp, passes, gates) -> None:
    """Grid checks outside the timed passes."""
    last = passes[-1]
    wl.check_rows(last, gates)
    wl.csv_round_trip(last, gates)
    shas = {p.csv_sha256 for p in passes}
    gates.check("csv sha256 repeats", len(shas) == 1,
                f"{len(shas)} distinct digests over {len(passes)} passes")
    wl.compare_reference(inp.workload, last, gates)


def end_to_end(setup_s, inp, units) -> dict:
    """Metrics of one pass with every unit at its median repeat."""
    wall = sum(units.values())
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def ms(kind, ndd=None):
        return [1e3 * s for key, s in units.items()
                if key[0] == kind and ndd in (None, key[1])]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "points_per_s": (inp.points / sum(s for key, s in units.items()
                                          if key[0] in inp.point_units),
                         "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "steady_off_mean_ms": (statistics.fmean(ms("solve", False)), "ms"),
        "steady_off_p90_ms": (p90(ms("solve", False)), "ms"),
        "steady_on_mean_ms": (statistics.fmean(ms("solve", True)), "ms"),
        "steady_on_p90_ms": (p90(ms("solve", True)), "ms"),
        "relax_mean_ms": (statistics.fmean(ms("relax")), "ms"),
    }


class LayerData:
    """What the per-layer metrics are computed from: the spans, counts and
    kept results of one traced pass (set-up parse included)."""

    def __init__(self, tracer, traced, untraced):
        self.tot = tracer.totals()
        self.counts = tracer.counts
        self.results = tracer.results
        self.traced, self.untraced = traced, untraced

    def calls(self, *names):
        return sum(self.tot.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(self, *names):
        return sum(self.tot.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(self, name):
        return self.tot.get(name, (0, 0.0, 0.0))[2]

    def picard(self) -> list:
        """Iterations of the NDD-on self-consistent solves."""
        return [out.iterations for args, kw, out
                in self.results.get("steady.solve_selfconsistent", [])
                if (args[1] if len(args) > 1 else kw["drive"]).ndd_enabled]

    def overhead(self) -> float:
        return pass_s(self.traced) - pass_s(self.untraced)


def pass_s(res) -> float:
    """A pass's corrected time."""
    return sum(res.units.values())


def _size(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


IDENTITY_SPANS = ["identities.mirror", "identities.evenness",
                  "identities.raman_symmetric", "identities.raman_table",
                  "identities.two_level"]

# per-layer metric -> (traced functions it is built from, unit, value).  The
# value is a LayerData method applied to those functions, or a function of
# the LayerData.  A metric whose function is gone is reported as absent.
LAYER_METRICS = {
    "config.parse_s": (["config.parse_config"], "s", "total"),
    "model.rhs_calls.steady": (
        ["model.rhs_calls"], "count",
        lambda d: d.counts["model.rhs_calls.steady"]),
    "model.rhs_calls.dynamics": (
        ["model.rhs_calls"], "count",
        lambda d: d.counts["model.rhs_calls.dynamics"]),
    "steady.generator_calls": (["steady.generator_matrix"], "count", "calls"),
    "steady.generator_s": (["steady.generator_matrix"], "s", "total"),
    "steady.linear_solves": (["steady.solve_linear_steady"], "count", "calls"),
    "steady.linear_solve_self_s": (["steady.solve_linear_steady"], "s", "own"),
    "steady.residual_s": (["steady.residual_norm"], "s", "total"),
    "steady.picard_iters_mean": (
        ["steady.solve_selfconsistent"], "iter",
        lambda d: statistics.fmean(d.picard() or [0.0])),
    "steady.picard_iters_max": (
        ["steady.solve_selfconsistent"], "iter",
        lambda d: max(d.picard(), default=0)),
    "params.effective_rabi_calls": (
        ["params.effective_rabi_calls"], "count",
        lambda d: sum(v for k, v in d.counts.items()
                      if k.startswith("params.effective_rabi_calls."))),
    "optics.susceptibility_calls": (["optics.susceptibility"], "count",
                                    "calls"),
    "optics.susceptibility_s": (["optics.susceptibility"], "s", "total"),
    "optics.index_s": (["optics.refractive_index",
                        "optics.group_index_profile", "optics.classify"],
                       "s", "total"),
    "sweep.run_self_s": (["sweep.run_sweep"], "s", "own"),
    "sweep.write_csv_s": (["sweep.write_csv"], "s", "total"),
    "sweep.write_json_s": (["sweep.write_json"], "s", "total"),
    "sweep.read_csv_s": (["sweep.read_csv"], "s", "total"),
    "sweep.summarize_s": (["sweep.summarize"], "s", "total"),
    "sweep.csv_bytes": ([], "bytes", lambda d: _size(d.traced.csv_paths)),
    "sweep.json_bytes": ([], "bytes", lambda d: _size(d.traced.json_paths)),
    "identities.mirror_s": (["identities.mirror"], "s", "total"),
    "identities.evenness_s": (["identities.evenness"], "s", "total"),
    "identities.raman_symmetric_s": (["identities.raman_symmetric"], "s",
                                     "total"),
    "identities.raman_table_s": (["identities.raman_table"], "s", "total"),
    "identities.two_level_s": (["identities.two_level"], "s", "total"),
    "identities.checks": (IDENTITY_SPANS, "count", "calls"),
    "dynamics.relax_calls": (["dynamics.relax_to_steady"], "count", "calls"),
    "dynamics.relax_chunks": (
        ["dynamics.relax_to_steady"], "count",
        lambda d: sum(out.iterations for _, _, out
                      in d.results.get("dynamics.relax_to_steady", []))),
    "dynamics.relax_s": (["dynamics.relax_to_steady"], "s", "total"),
    "dynamics.evolve_s": (["dynamics.evolve"], "s", "total"),
    "trace.overhead_s": ([], "s", lambda d: d.overhead()),
    "trace.overhead_frac": (
        [], "ratio", lambda d: d.overhead() / pass_s(d.untraced)),
}


def per_layer(tracer, traced, untraced) -> tuple[dict, list]:
    """Per-layer metrics of one traced pass, and the names of the absent."""
    data = LayerData(tracer, traced, untraced)
    gone = set(tracer.absent)
    values, absent = {}, []
    for name, (sources, unit, how) in LAYER_METRICS.items():
        if gone & set(sources):
            absent.append(name)
        elif isinstance(how, str):
            values[name] = (getattr(data, how)(*sources), unit)
        else:
            values[name] = (how(data), unit)
    return values, absent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # the sweep's thread pool stays off: the benchmark is single-process.
    # BLAS gets one thread: the matrices are 16 x 16, and on a 2-core box an
    # idle BLAS thread spins, doubling CPU time and slowing the solves.
    os.environ.pop("HFS_THREADS", None)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    t0 = time.perf_counter()
    load_package()
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    inp = wl.setup(args.workload, args.seed)
    own_setup = time.perf_counter() - t0
    setup_s, setup_samples = (0.0, []) if args.trace else measure_setup(
        args.workload, args.seed)

    gates = wl.Gates()
    layer, absent = {}, []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        if args.trace:
            from tracing import Tracer
            untraced = wl.run_pass(inp, work, gates, "untraced")
            untraced.tables = {}
            tracer = Tracer()
            with tracer:
                traced_inp = wl.setup(args.workload, args.seed)
                traced = wl.run_pass(traced_inp, work, gates, "traced")
            layer, absent = per_layer(tracer, traced, untraced)
            passes = [untraced, traced]
        else:
            passes = measure(wl, inp, args.seconds, work, gates)
        if inp.spec is not None:
            grid_checks(wl, inp, passes, gates)
        units = median_units(passes)
        metrics = layer if args.trace else end_to_end(setup_s, inp, units)
        report(args, inp, passes, units, gates, metrics, absent, own_setup,
               setup_samples)
    print(json.dumps({
        "correct": gates.failed == 0,
        "attempted": gates.attempted,
        "failed": gates.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if gates.failed == 0 else 1


def report(args, inp, passes, units, gates, metrics, absent, own_setup,
           setup_samples) -> None:
    """Human-readable lines; the JSON result follows them."""
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          f"  trace {args.trace}")
    print("env " + json.dumps(environment(args, inp), sort_keys=True))
    print(f"setup: in-process {own_setup:.4f} s, fresh-process raw samples "
          + ", ".join(f"{s:.4f}" for s in setup_samples) + " s")
    for i, p in enumerate(passes):
        line = (f"pass {i}: {p.wall_s:.4f} s, {len(p.units)} units, "
                f"{p.raw_s:.4f} s raw and {sum(p.units.values()):.4f} s "
                f"corrected in units")
        if p.csv_sha256:
            line += f", csv sha256 {p.csv_sha256}"
        print(line)
    print(f"median repeats: {sum(units.values()):.4f} s corrected in units")
    for rep, gating in passes[-1].reports:
        print(f"  {'pass' if rep.passed else 'FAIL'}  {rep.identity}: max "
              f"residual {rep.max_residual:.3e} over {rep.n_points} checks "
              f"(tol {rep.tolerance:g})"
              + ("" if gating else "  [diagnostic only: ndd on]"))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>16.6g} {unit}")
    if ("evolve",) in units:
        print(f"  {'evolve_s (median repeat)':<30} "
              f"{units[('evolve',)]:>16.6g} s")
    print(f"  {'failed_frac':<30} "
          f"{gates.failed / max(gates.attempted, 1):>16.6g} "
          f"({gates.failed} of {gates.attempted} checks)")
    for name in absent:
        print(f"  {name:<30} {'absent':>16}")
    for line in gates.failures[:20]:
        print(f"  FAILED {line}")


if __name__ == "__main__":
    sys.exit(main())
