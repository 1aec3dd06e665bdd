"""Time one set-up in a fresh interpreter: import hfs from the checkout,
parse the config, build the workload's params, grid and drives.  Prints the
seconds taken.  run.py starts this several times and reports the median.

    python3 perfbench/probe_setup.py <workload> <seed>
"""

import os
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import workloads  # noqa: E402  (imports hfs)

workloads.setup(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
