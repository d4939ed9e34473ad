"""Regenerate ``data/pme1d_reference.npz`` for the pme1d_source workload.

Stores, at every tenth time level, the solution of the full-size problem
(source centre +0.3 dx; the -0.3 dx problem is its mirror image) on the
twice finer grid, this commit's own output, and the ladder fit of the fine
solution.  ``solution_err`` and ``exponent_err`` are measured against the
fine solution; the benchmark reports the drift against the own output.

Run from the repository root (takes about a minute):

    python3 perfbench/make_reference.py
"""

import os
import sys
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from workloads import REFERENCE_FILE, Pme1dSource, compute_pme1d_reference  # noqa: E402


def main():
    w = Pme1dSource(seed=0)
    levels, fine, fine_fit = compute_pme1d_reference(w)
    own = w.run().u.values[levels]
    REFERENCE_FILE.parent.mkdir(exist_ok=True)
    np.savez(REFERENCE_FILE, levels=levels, fine=fine, own=own, fine_fit=np.float64(fine_fit))
    print(f"wrote {REFERENCE_FILE}: levels {levels.tolist()}, fine fit {fine_fit!r}, "
          f"max |own - fine| {np.abs(own - fine).max():.3g}")


if __name__ == "__main__":
    main()
