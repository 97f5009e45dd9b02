"""Write the inputs and configs of two `trimtest test` runs that fork.

    python tests/ci_two_comparisons.py DIR

writes DIR/sample.csv, 2000 rows of a Student-t(3) column x and a normal
column z, and two configs on it:
- DIR/config.json: x trimmed and x Winsorized at 2%/98%, each against
  all-ones weights, on 1000 row draws, with one plot pair.  The bootstrap
  blocks and each comparison's files are enough work for forked workers.
- DIR/config_mc.json: the means of x and z trimmed at 2%/98%, on 200 row
  draws, tested jointly under the identity norm with h = 0.05 on the
  default 100 000 Monte Carlo draws.  The joint test takes the Monte Carlo
  path, and its formal test and heuristic p-value run in two processes.
CI runs each pinned to one CPU and unpinned and requires the same output
files.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np


def main(directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng(2024)
    x, z = rng.standard_t(3.0, 2000), rng.normal(size=2000)
    with open(os.path.join(directory, "sample.csv"), "w", encoding="utf-8") as fh:
        fh.write("x,z\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(x, z)))
    levels = {"columns": ["x"], "lower_q": 0.02, "upper_q": 0.98}
    configs = {
        "config.json": {
            "model": {"type": "lstat", "statistics": [{"column": "x"}]},
            "comparisons": [
                {"name": name, "baseline": {"kind": "all_ones"}, "adjusted": {"kind": kind, **levels}}
                for name, kind in (("trim", "quantile_trim"), ("winsor", "winsorize"))
            ],
            "bootstrap": {"iterations": 1000, "seed": 7, "resample_unit": "row"},
            "test": {"h": 0.0, "seed": 8},
            "output": {"plot_pairs": ["x"]},
        },
        "config_mc.json": {
            "model": {"type": "lstat", "statistics": [{"column": "x"}, {"column": "z"}]},
            "weights": {
                "baseline": {"kind": "all_ones"},
                "adjusted": {"kind": "quantile_trim", **levels, "columns": ["x", "z"]},
            },
            "bootstrap": {"iterations": 200, "seed": 9, "resample_unit": "row"},
            "test": {"h": 0.05, "norm": "identity", "seed": 10},
        },
    }
    for name, config in configs.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump({"input": os.path.join(directory, "sample.csv"), **config}, fh, indent=2)


if __name__ == "__main__":
    main(sys.argv[1])
