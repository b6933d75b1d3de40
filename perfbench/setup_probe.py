"""One fresh-interpreter set-up of a benchmark workload.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEEDS_JSON WORKDIR``
with ``PYTHONPATH`` pointing at ``src``.  Prints ``ready``, the total
and the median seconds of the calibration kernels it ran, once the
workload could start timing its first cell; the caller measures the
time from spawning this process to that line.
"""

import json
import statistics
import sys
from pathlib import Path

import workloads

if __name__ == "__main__":
    name, seeds, workdir = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3]
    kernels = []

    def sample():
        kernels.extend(workloads.kernel_seconds() for _ in range(2))

    workloads.prepare(workloads.WORKLOADS[name], seeds, Path(workdir),
                      sample)
    sample()
    print("ready", sum(kernels), statistics.median(kernels), flush=True)
