"""Write the input and config of a two-comparison `trimtest test` run.

    python tests/ci_two_comparisons.py DIR

writes DIR/sample.csv, 2000 rows of a Student-t(3) column x, and
DIR/config.json: x trimmed and x Winsorized at 2%/98%, each against
all-ones weights, on 1000 row draws, with one plot pair.  The bootstrap
blocks and each comparison's files are then enough work for forked
workers, so CI runs it pinned to one CPU and unpinned and requires the
same output files.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np


def main(directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    x = np.random.default_rng(2024).standard_t(3.0, 2000)
    with open(os.path.join(directory, "sample.csv"), "w", encoding="utf-8") as fh:
        fh.write("x\n" + "".join(f"{float(v)!r}\n" for v in x))
    levels = {"columns": ["x"], "lower_q": 0.02, "upper_q": 0.98}
    config = {
        "input": os.path.join(directory, "sample.csv"),
        "model": {"type": "lstat", "statistics": [{"column": "x"}]},
        "comparisons": [
            {"name": name, "baseline": {"kind": "all_ones"}, "adjusted": {"kind": kind, **levels}}
            for name, kind in (("trim", "quantile_trim"), ("winsor", "winsorize"))
        ],
        "bootstrap": {"iterations": 1000, "seed": 7, "resample_unit": "row"},
        "test": {"h": 0.0, "seed": 8},
        "output": {"plot_pairs": ["x"]},
    }
    with open(os.path.join(directory, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)


if __name__ == "__main__":
    main(sys.argv[1])
