"""Regenerate reference.json: summarize() output and per-column norms of
the two grid workloads, which every benchmark run compares against within
workloads.REF_RTOL.  Run it only when a change is meant to alter results
beyond round-off, and say so in the change.

    python3 perfbench/make_reference.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import hfs  # noqa: E402
import workloads as wl  # noqa: E402


def main() -> None:
    out = {"hfs_version": hfs.__version__, "rtol": wl.REF_RTOL,
           "atol_scale": wl.REF_ATOL_SCALE, "workloads": {}}
    for name in ("grid_ndd_off", "grid_ndd_on"):
        inp = wl.setup(name, 0)
        tables, summary = {}, {}
        for om, spec in inp.omega_specs():
            tables[om] = hfs.run_sweep(inp.params, spec)
            summary.update(hfs.summarize(tables[om]))
        out["workloads"][name] = wl.fingerprint(tables, summary)
    with open(wl.REFERENCE_PATH, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
