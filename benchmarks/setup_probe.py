"""Time one set-up of an in-process workload in a fresh interpreter.

Usage: python setup_probe.py WORKLOAD SEED

Prints the seconds from before ``import cxtherm`` until the workload's gate
sets, thermal models, placed alphabets and inputs are built.
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import cxtherm  # noqa: E402,F401

import workloads  # noqa: E402

wl = workloads.build(sys.argv[1], int(sys.argv[2]), Path(__file__).resolve().parent.parent)
elapsed = time.perf_counter() - t0
wl.close()
print(repr(elapsed))
