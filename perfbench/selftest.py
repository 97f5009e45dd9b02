#!/usr/bin/env python3
"""Self-test of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks, at smoke sizes, that:
  - every workload runs correctly with --trace 0 and --trace 1 and emits
    exactly the metrics BENCHMARK.json names, each with its unit;
  - deliberately corrupted output (a perturbed draws file, a flipped stored
    p-value or rejection count) counts as a failed operation;
  - the tracer wraps a function in every module that binds it, and leaves
    out, rather than crashes on, metrics of a function the package no
    longer has;
  - in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("lstat_iid", "panel_fe", "size_study")
CORRUPTIONS = (("lstat_iid", "draws"), ("lstat_iid", "pvalue"), ("panel_fe", "pvalue"), ("size_study", "pvalue"))


def _run(cwd: str, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return doc if isinstance(doc, dict) and "metrics" in doc else None


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []

    def expect(ok: bool, label: str, detail: str = "") -> None:
        print(f"{'PASS' if ok else 'FAIL'} {label}", flush=True)
        if not ok:
            failures.append(label)
            if detail:
                print(detail[-3000:])

    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(root, workload, trace, "--smoke")
            res = _result(proc)
            units = {k: v.get("unit") for k, v in res["metrics"].items()} if res else None
            ok = proc.returncode == 0 and res is not None and res["correct"] and res["failed"] == 0
            expect(ok and units == expected[trace], f"smoke {workload} trace={trace}", proc.stdout + proc.stderr)

    for workload, kind in CORRUPTIONS:
        proc = _run(root, workload, 0, "--smoke", "--corrupt", kind)
        res = _result(proc)
        # The byte-identity check alone would catch any damage; require a
        # content check to catch it too.
        content = [l for l in proc.stderr.splitlines() if l.startswith("check failed") and "warm-up" not in l]
        ok = proc.returncode == 0 and res is not None and not res["correct"] and res["failed"] == 1 and content
        expect(ok, f"corrupted {kind} in {workload} counts as a failed operation", proc.stdout + proc.stderr)

    # A traced function that no longer exists drops its metrics instead of
    # crashing the tracer.
    probe = (
        "import sys; sys.path[:0] = ['src', 'perfbench']\n"
        "import trimtest, tracer\n"
        "del trimtest.dataset.PanelDataset.take_rows, trimtest.dataset.PanelDataset.take_clusters\n"
        "orig = trimtest.bootstrap.bootstrap_pipeline\n"
        "t = tracer.Tracer(); t.install()\n"
        "assert trimtest.mc_oracle.bootstrap_pipeline.__wrapped__ is orig\n"
        "assert trimtest.analysis.bootstrap_pipeline.__wrapped__ is orig\n"
        "m = t.layer_metrics(); t.uninstall()\n"
        "assert trimtest.mc_oracle.bootstrap_pipeline is orig\n"
        "assert 'dataset.resample_us' not in m and 'dataset.resample_rows' not in m, m\n"
        "assert 'dataset.lags_s' in m and 'bootstrap.pipeline_s' in m, m\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], cwd=root, capture_output=True, text=True, timeout=60)
    expect(proc.returncode == 0, "tracer wraps every binding and drops metrics of a removed function", proc.stderr)

    bare = os.path.join(root, ".perfbench_work", f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(root, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "lstat_iid", 0)
        expect(proc.returncode != 0 and _result(proc) is None, "bare directory exits nonzero without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
