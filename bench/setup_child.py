"""One cold set-up, timed from a fresh interpreter.

Usage: ``python3 bench/setup_child.py WORKLOAD SEED INDIR``

Times importing ``pnpsubdiv``, generating the posed inputs of WORKLOAD,
attaching naive normals and writing the input OBJ files under INDIR. Then
runs the host-speed probe and prints the elapsed and probe seconds as the
last line.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pnpsubdiv  # noqa: E402,F401
import hostspeed  # noqa: E402
from inputs import build_inputs  # noqa: E402

if __name__ == "__main__":
    workload, seed, indir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    build_inputs(workload, seed, indir)
    elapsed = time.perf_counter() - _T0
    print(elapsed, hostspeed.probe())
