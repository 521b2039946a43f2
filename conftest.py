"""Suite-wide set-up for a fresh checkout.

`benchmarks/run.py` creates the ignored `benchmarks/results/` directory, and
the benchmark's own checks write their temporary outputs there, so it must
exist before they run.
"""

from pathlib import Path

(Path(__file__).resolve().parent / "benchmarks" / "results").mkdir(exist_ok=True)
