"""Time ``import spin_transfer`` plus one workload's lazy set-up in this
fresh interpreter and print the seconds taken.

Usage: python3 perfbench/setup_probe.py <workload>
"""

import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

if __name__ == "__main__":
    start = time.perf_counter()
    import workloads

    workloads.setup(sys.argv[1])
    print(repr(time.perf_counter() - start))
