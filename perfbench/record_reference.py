#!/usr/bin/env python3
"""Record the reference outputs the benchmark's checks compare against.

Run from the root of a checkout at the commit whose results are the
reference (the commit that introduced the benchmark):

    python3 perfbench/record_reference.py

For each workload and each of the seeds 0-15 this runs one full-size
operation, requires it to pass every other check, and stores its
estimates, covariances, test statistics and p-values (or, for size_study,
its rejection count) in perfbench/reference.json.  run.py then compares
every operation of a run whose seed is listed against these values, within
the tolerances fixed in workloads.py.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = range(16)


def main() -> int:
    root = os.getcwd()

    import run

    os.environ.update(run.BLAS_ENV)
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    ref: dict = {"git_commit": run._git_commit(root)}
    work = os.path.join(root, ".perfbench_work", "reference")
    try:
        for name, cls in workloads.WORKLOADS.items():
            for seed in SEEDS:
                shutil.rmtree(work, ignore_errors=True)
                os.makedirs(work)
                wl = cls(seed, work)
                wl.generate()
                out = os.path.join(work, "out")
                rc, text = workloads.run_cli(wl.argv(out))
                problems = [f"exit status {rc}: {text[-2000:]}"] if rc != 0 else wl.check(out, None)
                if problems:
                    sys.stderr.write(f"{name} seed {seed}: {problems}\n")
                    return 1
                ref.setdefault(name, {})[str(seed)] = wl.record(out)
                print(f"{name} seed {seed}: recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
