"""Nonparametric bootstrap for joint distributions of estimator vectors.

Every draw is a random weight on each observation of the original dataset:
the bootstrap statistic is the same estimator integrated against a randomly
reweighted empirical measure, so no resampled dataset is ever built.  Draw
b's weights come from its own stream (STREAMS), whatever order draws run in.

Unit weights (one per cluster or per row, by resample unit):
  - "multinomial": counts ~ Multinomial(U; 1/U, ..., 1/U) over the U units.
  - "multiplier" with distribution "poisson": counts ~ Poisson(1).
  - "multiplier" with distribution "normal": 1 + xi with xi standard
    normal.  Signed weights make this a variance diagnostic, not a
    resampling scheme.
Cluster weights are copied to every row of their cluster.  Count weights
are rescaled to sum to the row count n, so an estimator's fixed 1/n equals
the 1/n_b of the resample the counts describe.  A count draw whose counts
are all zero is an empty resample and fails.

Draws run in blocks: a block of K draws is one C-ordered K x n matrix of
row weights (each draw's weights one contiguous row, as a one-draw call
sees them), K = BLOCK_ENTRIES // n, so the layout depends on (n, B) alone.
One call can run several estimators (one per comparison of an analysis) on
the same draws: each block is built once and every estimator evaluates it
before the next block is drawn, so no draw's weights are built twice and no
more than one block is held at a time.  Each estimator keeps its own point
estimate, draws, failed draws, failure limit and covariance; a draw that
fails one estimator is still a draw of the others.

Blocks run on up to one process per CPU (fork_map, which `size_study` also
runs its replications on, `report.write_outputs` each comparison's files
and `robustness.robustness_test` a large Monte Carlo test's formal test and
heuristic p-value): this process and forked workers, a worker only for
every BLOCKS_PER_WORKER blocks.  A block depends on (seed, its draws)
alone, so results are byte-identical for any worker count, and the first
error raised is the one a serial loop raises.  A process with other threads
running, or a bootstrap run inside another map's item (a `size_study`
replication), evaluates every block itself.  Estimators must therefore
survive a fork, and their side effects in a worker do not reach the caller.

Estimator contract: estimator_fn(data, row_weights) always receives the full
dataset, must honour row_weights in every data-dependent quantity
(thresholds, scales, fits), and returns a fixed-length float vector.  A row
with weight 0 is absent from the draw.  A BlockEstimator also evaluates a
whole block, block(data, W) -> K x d, row k the estimate under W[k]; a
plain callable is called once per draw.  A block estimate may differ from
the one-draw estimate in the last bits; the layout depends on (n, B) alone, so outputs are
byte-identical from run to run.  Because every call sees the same dataset object, work that
depends on the data alone is memoized on it (the sort order of a column,
the cluster row blocks) and shared by all draws.  A block's row weights
are read-only and every estimator gets the same block object, so work that
depends on the data and one block (a column's quantile thresholds) is
memoized for that block (`PanelDataset.block_memo`) and shared by all
estimators.

Failures: a draw fails when its estimate raises a numerical or value
error.  A block call that raises is evaluated again one draw at a time, so
a draw fails exactly when its one-draw evaluation raises, and at the same
index.  More than max(1, 1%) failed draws of one estimator abort
(check_failures, shared with the Monte Carlo covariance).
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .dataset import PanelDataset
from .errors import NumericalError, setting_error, stage

_CATCHABLE = (ValueError, ArithmeticError, np.linalg.LinAlgError, NumericalError)


@dataclass(frozen=True)
class BootstrapPlan:
    """How to resample: iteration count, seed, unit, and engine."""

    iterations: int = 10_000
    seed: int = 0
    resample_unit: str = "cluster"  # "cluster" | "row"
    engine: str = "multinomial"  # "multinomial" | "multiplier"
    multiplier_distribution: str = "normal"  # "normal" | "poisson"

    def __post_init__(self):
        if self.iterations < 1:
            raise setting_error("iterations", "iterations must be >= 1")
        if self.resample_unit not in {"cluster", "row"}:
            raise setting_error("resample_unit", f"unknown resample unit {self.resample_unit!r}")
        if self.engine not in {"multinomial", "multiplier"}:
            raise setting_error("engine", f"unknown bootstrap engine {self.engine!r}")
        if self.multiplier_distribution not in {"normal", "poisson"}:
            raise setting_error(
                "multiplier_distribution", f"unknown multiplier distribution {self.multiplier_distribution!r}"
            )


@dataclass(frozen=True)
class BootstrapResult:
    """Draw matrix plus summaries; failed draws are NaN rows.

    cov is the unbiased sample covariance of the successful draws,
    symmetrized; a single-draw result carries a zero matrix by convention.
    A run of several estimators holds each one's own result in `parts`;
    its draws, point and cov are theirs side by side, and a draw counts as
    failed when it failed any of them.
    """

    draws: np.ndarray
    point: np.ndarray
    cov: np.ndarray
    seed: int
    iterations: int
    n_failed: int
    failed_indices: tuple[int, ...] = ()
    parts: tuple["BootstrapResult", ...] = ()


# Each random stream's spawn-key prefix: stream `name` of a seed draws from
# SeedSequence(seed, spawn_key=(*STREAMS[name], index)).  Draw b has key (1, b),
# a test's Monte Carlo normals (2, 0), simulated data (0,) and replication r's
# seed (r,).  No two streams share keys but one, which only re-seeding could
# change: data is replication 0 of the same seed, and no seed is used as both.
STREAMS = {"draw": (1,), "test": (2,), "data": (), "replication": ()}


def random_stream(seed: int, name: str, index: int = 0) -> np.random.Generator | int:
    """Stream `name`'s generator for (seed, index); for "replication", the seed it derives."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(*STREAMS[name], index))
    return int(ss.generate_state(1)[0]) if name == "replication" else np.random.default_rng(ss)


def draw_rng(master_seed: int, draw_index: int) -> np.random.Generator:
    """Generator for one draw, derived from (master seed, draw index) only."""
    return random_stream(master_seed, "draw", draw_index)


def multinomial_counts(n: int, rng: np.random.Generator) -> np.ndarray:
    """Symmetric multinomial repetition counts: sum to n, each mean 1."""
    if n < 1:
        raise ValueError("need at least one unit")
    return rng.multinomial(n, np.full(n, 1.0 / n))


def multiplier_weights(n: int, distribution: str, rng: np.random.Generator) -> np.ndarray:
    """Mean-zero unit-variance multipliers: standard normal or Poisson(1) - 1."""
    if n == 0:
        return np.empty(0)
    if distribution == "normal":
        return rng.standard_normal(n)
    if distribution == "poisson":
        return rng.poisson(1.0, n) - 1.0
    raise ValueError(f"unknown multiplier distribution {distribution!r}")


@dataclass(frozen=True)
class BlockEstimator:
    """An estimator that also evaluates a block of draws in one call.

    block(data, W) maps a K x n_rows matrix of row weights to a K x d
    matrix whose row k is the estimate under row weights W[k], and raises
    when any draw of the block cannot be evaluated or the draws cannot be
    evaluated together; the engine then evaluates each draw alone.  Calling
    the estimator on one weight vector is the block of that one draw.
    """

    block: Callable[[PanelDataset, np.ndarray], np.ndarray]

    def __call__(self, data: PanelDataset, row_weights: np.ndarray) -> np.ndarray:
        return self.block(data, np.asarray(row_weights, dtype=float)[None])[0]


# Row weights in one block of draws: 32 draws of a 1000-row dataset.  A
# block fit holds a few K x n temporaries at once, so this bounds its
# memory; blocks twice as large were no faster.
BLOCK_ENTRIES = 1 << 15


def _draw_block(
    data: PanelDataset, plan: BootstrapPlan, draws: range
) -> tuple[np.ndarray, np.ndarray]:
    """Row weights of the given draws, one row each, and which draws are empty resamples."""
    by_cluster = plan.resample_unit == "cluster"
    n_units = data.n_clusters if by_cluster else data.n_rows
    units = np.empty((len(draws), n_units))
    for i, b in enumerate(draws):
        rng = draw_rng(plan.seed, b)
        if plan.engine == "multinomial":
            units[i] = multinomial_counts(n_units, rng)
        else:
            units[i] = 1.0 + multiplier_weights(n_units, plan.multiplier_distribution, rng)
    rho = units.take(data.row_cluster_index, axis=1) if by_cluster else units
    empty = np.zeros(len(draws), dtype=bool)
    if plan.engine == "multinomial" or plan.multiplier_distribution == "poisson":
        total = rho.sum(axis=1)
        empty = total == 0
        rho *= (data.n_rows / np.where(empty, 1.0, total))[:, None]
    return rho, empty


def attempt(fn, *args) -> np.ndarray | None:
    """fn(*args) as a float vector, or None when it raised a numerical or value error."""
    try:
        return np.atleast_1d(np.asarray(fn(*args), dtype=float))
    except _CATCHABLE:
        return None


def check_failures(n_failed: int, count: int, noun: str, unit: str) -> None:
    """Raise a NumericalError when more than max(1, 1% of count) attempts failed.

    count >= 100 keeps the plain 1% rule, a shorter run survives one failure.
    """
    if n_failed > max(1.0, 0.01 * count):
        raise NumericalError(
            f"{n_failed} of {count} {noun} failed (limit is 1% of {unit}, at least one)"
        )


def _block_values(data: PanelDataset, estimator_fn, rho: np.ndarray) -> list:
    """Each draw's estimate as a float vector, or None where it failed."""
    if isinstance(estimator_fn, BlockEstimator) and len(rho):
        try:
            return list(np.asarray(estimator_fn.block(data, rho), dtype=float))
        except _CATCHABLE:
            pass  # find the failed draws one at a time
    return [attempt(estimator_fn, data, w) for w in rho]


# A worker is forked for at least this many blocks.  On a 2-core Xeon VM,
# forking a worker from a 111 MB process, piping its results back and
# reaping it took 3.2-3.9 ms (median), and one block of two L-statistic
# comparisons at n = 2000 took 3.1-3.6 ms (BLOCK_ENTRIES bounds a block's
# work), so a worker's fork costs about a quarter of the work it takes off
# the caller.
BLOCKS_PER_WORKER = 4

_in_map = False  # true while a fork_map runs, in its caller and in every worker


def fork_map(fn, count: int, per_worker: int = 1) -> list:
    """[fn(0), ..., fn(count - 1)]; worker i % W runs item i, worker 0 in this process.

    W = min(CPUs this process may use, count // per_worker), and W = 1 in
    a process with other threads running (a fork copies the calling thread
    alone) or inside another map's item.  The other workers are forked, not
    spawned, so fn may be a closure, and its side effects in a worker do
    not reach the caller.  A worker that cannot be started (an OSError
    from os.pipe or os.fork: a process or file limit) starts no further
    one, and this process runs the unstarted workers' items.  Each worker
    stops at its first exception, so the lowest failing item, raised here,
    is the one a serial loop raises.  A child's exception that cannot be
    pickled comes back as a NumericalError naming its type and message.
    """
    global _in_map

    def run(w: int) -> list:  # [(item, ok, value or exception)] of worker w
        out = []
        for i in range(w, count, workers):
            try:
                out.append((i, True, fn(i)))
            except Exception as exc:
                return out + [(i, False, exc)]
        return out

    workers = 1
    if not _in_map and threading.active_count() == 1 and hasattr(os, "sched_getaffinity"):
        workers = max(1, min(len(os.sched_getaffinity(0)), count // per_worker))
    nested, _in_map = _in_map, True
    children = []
    try:
        for w in range(1, workers):
            fds = ()
            try:
                fds = read, write = os.pipe()
                pid = os.fork()
            except OSError:  # out of file descriptors or processes: this process runs the rest
                for fd in fds:
                    os.close(fd)
                break
            if pid == 0:
                try:
                    outcomes = run(w)
                    try:
                        payload = pickle.dumps(outcomes)
                    except Exception:  # only a worker's last outcome can be an exception
                        i, _, exc = outcomes[-1]
                        error = NumericalError(f"{type(exc).__name__}: {exc}")
                        payload = pickle.dumps(outcomes[:-1] + [(i, False, error)])
                    with open(write, "wb") as pipe:
                        pipe.write(payload)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)
            children.append((pid, open(read, "rb")))
        outcomes = [o for w in (0, *range(len(children) + 1, workers)) for o in run(w)]
        payloads = [pipe.read() for _, pipe in children]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _in_map = nested
        for _, pipe in children:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    for payload, status in zip(payloads, statuses):
        code = os.waitstatus_to_exitcode(status)  # 0 only once the whole payload is written
        if code:
            raise NumericalError(f"a worker process exited with status {code} and no results")
        outcomes += pickle.loads(payload)
    outcomes.sort(key=lambda outcome: outcome[0])
    for _, ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, _, value in outcomes]


def _result(
    draws: np.ndarray, point: np.ndarray, plan: BootstrapPlan, failed, parts=()
) -> BootstrapResult:
    """The result of these draws; the covariance is taken over the rows with no NaN."""
    d = draws.shape[1]
    n_ok = int(np.sum(~np.isnan(draws).any(axis=1)))
    return BootstrapResult(
        draws=draws,
        point=point,
        cov=bootstrap_cov(draws) if n_ok >= 2 else np.zeros((d, d)),
        seed=plan.seed,
        iterations=plan.iterations,
        n_failed=len(failed),
        failed_indices=tuple(failed),
        parts=parts,
    )


def bootstrap_pipeline(data: PanelDataset, plan: BootstrapPlan, estimator_fn) -> BootstrapResult:
    """Run the full bootstrap: point estimate, draws, covariance.

    estimator_fn(dataset, row_weights) is always called on `data` itself,
    with all-ones weights for the point estimate and the draw's row weights
    for each draw (count weights sum to n_rows); it must honour row_weights
    and return a fixed-length float vector.  A BlockEstimator gets a block
    of draws per call.  Draws that raise a numerical or value error are
    recorded as missing (NaN rows), within the limit of check_failures.

    estimator_fn may also be a list of (stage name, estimator) pairs, or
    a dict {stage name: estimator}: every estimator then runs on the same
    draws, each block built once, and the result holds each one's own
    result in `parts`, in that order.  Estimators are told apart by their
    position, so two may share a stage name.  An error of one estimator
    (its point estimate, a draw of the wrong length, its failure limit) is
    raised under `[its stage name]` (errors.stage); an error building the
    draws, under the first name.
    """
    several = not callable(estimator_fn)
    if several and not estimator_fn:
        kind = type(estimator_fn).__name__
        raise ValueError(f"bootstrap_pipeline needs at least one estimator, got an empty {kind}")
    if isinstance(estimator_fn, dict):
        estimator_fn = list(estimator_fn.items())
    named = list(estimator_fn) if several else [(None, estimator_fn)]

    def within(name):
        return nullcontext() if name is None else stage(name)

    points = []
    for name, fn in named:
        with within(name):
            points.append(np.atleast_1d(np.asarray(fn(data, np.ones(data.n_rows)), dtype=float)))
    B = plan.iterations
    size = max(1, BLOCK_ENTRIES // max(data.n_rows, 1))

    def run_block(i: int) -> list:
        """Per estimator, block i's draws (NaN rows where one failed) and its failed draws."""
        block = range(i * size, min(B, (i + 1) * size))
        with within(named[0][0]):
            rho, empty = _draw_block(data, plan, block)
        if empty.any():
            rho = rho[~empty]
        rho.setflags(write=False)  # one unchanging block for every estimator: see PanelDataset.block_memo
        out = []
        for (name, fn), point in zip(named, points):
            values = iter(_block_values(data, fn, rho))
            draws, failed = np.full((len(block), len(point)), np.nan), []
            for k, (b, is_empty) in enumerate(zip(block, empty)):
                val = None if is_empty else next(values)
                if val is None:
                    failed.append(b)
                elif val.shape != point.shape:
                    with within(name):
                        raise ValueError(
                            f"estimator returned length {val.shape} on draw {b}, "
                            f"expected {len(point)}"
                        )
                else:
                    draws[k] = val
            out.append((draws, failed))
        return out

    blocks = fork_map(run_block, -(-B // size), BLOCKS_PER_WORKER)
    draws = [np.vstack([block[j][0] for block in blocks]) for j in range(len(named))]
    failed = [[b for block in blocks for b in block[j][1]] for j in range(len(named))]
    for (name, _), lost in zip(named, failed):
        with within(name):
            check_failures(len(lost), B, "bootstrap draws", "draws")
    parts = tuple(_result(d, point, plan, lost) for d, point, lost in zip(draws, points, failed))
    if not several:
        return parts[0]
    return _result(
        np.hstack([part.draws for part in parts]),
        np.concatenate([part.point for part in parts]),
        plan,
        sorted(set().union(*failed)),
        parts,
    )


def bootstrap_cov(draws: np.ndarray) -> np.ndarray:
    """Unbiased sample covariance of the non-missing draws, symmetrized."""
    draws = np.asarray(draws, dtype=float)
    if draws.ndim == 1:
        draws = draws[:, None]
    ok = draws[~np.isnan(draws).any(axis=1)]
    if len(ok) < 2:
        raise ValueError("need at least two non-missing draws for a covariance")
    d = draws.shape[1]
    cov = np.cov(ok, rowvar=False, ddof=1).reshape(d, d)
    return 0.5 * (cov + cov.T)
