"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import tracemalloc

import numpy as np
import pytest

from trimtest import PanelDataset


def make_panel(
    n_clusters: int,
    cluster_size: int,
    seed: int,
    slope: float = 2.0,
    intercept: float = 1.0,
    cluster_sd: float = 0.5,
) -> PanelDataset:
    """Balanced panel with outcome y = intercept + slope * x + cluster effect + noise."""
    rng = np.random.default_rng(seed)
    n = n_clusters * cluster_size
    cluster_ids = np.repeat(np.arange(n_clusters), cluster_size)
    effects = rng.normal(0.0, cluster_sd, size=n_clusters)
    x = rng.normal(size=n)
    y = intercept + slope * x + effects[cluster_ids] + rng.normal(size=n)
    return PanelDataset({"y": y, "x": x}, cluster_ids)


def _tracemalloc_peak(fn) -> int:
    """Peak bytes traced while fn runs, above what was held before it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _pin_cpus(monkeypatch, count):
    # A fork map runs one worker per CPU it may use, this process being the first.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _count_forks(monkeypatch) -> list:
    """A list that gains one entry per os.fork call made in this process."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    return forks


def _raising(call: str, code: int, after: int = 0):
    """os.<call> that succeeds `after` times, then raises the OSError of errno `code` (EAGAIN: BlockingIOError)."""
    real, calls = getattr(os, call), []

    def call_or_raise():
        calls.append(None)
        if len(calls) > after:
            raise OSError(code, os.strerror(code))
        return real()

    call_or_raise.calls = calls
    return call_or_raise


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left child process {pid} behind" if pid else "the test left a child process running")


@pytest.fixture
def panel() -> PanelDataset:
    return make_panel(30, 5, seed=42)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


def pytest_runtest_logreport(report):
    """Print one summary line per acceptance criterion as it finishes."""
    name = report.nodeid.rsplit("::", 1)[-1]
    if not name.startswith("test_criterion_"):
        return
    if report.when == "call":
        outcome = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and report.skipped:
        outcome = "SKIP"
    else:
        return
    tag = name.removeprefix("test_")
    print(f"\nACCEPTANCE {tag}: {outcome}", flush=True)
