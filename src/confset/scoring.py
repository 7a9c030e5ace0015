"""Nonconformity scores: squared distance to a class mean, feature-wise standardized.

The score of a point x for class k is

    sum_j (x_j - mu_kj)**2 / var_kj

using only the diagonal of the class covariance. The moments come in one
container, ``ClassModel``: either fitted by ``fit_model`` (class sample mean
and unbiased sample variance) or known in advance (the true distribution
parameters). ``score_batch`` reads both alike, so empirical-vs-oracle
comparisons differ only in the moments plugged in.

Every score comes from one kernel that walks the rows in blocks: subtract
the mean into a reusable block buffer, square it in place, then take one
BLAS matrix-vector product with 1 / var into the output slice.
A block holds the largest power of two of rows whose float64 values fit in
``_BLOCK_BYTES``, clamped to [8, ``_CHUNK_ROWS``], so the buffer stays in
cache across its three passes while the batch streams through it once.
Temporaries stay at block x p instead of n x p, and the reduction runs in
BLAS. Centring before squaring keeps full relative precision at any feature
offset: unlike the expanded quadratic form x.x/v - 2 x.mu/v + mu.mu/v,
nothing cancels.

``score_classes`` scores a batch against all K classes in one pass: it
cuts the batch into the same blocks and hands each block to ``score_batch``
once per class, so the block is read from memory once and stays in cache
for the other K - 1 classes. Its (K, n) scores are bit-identical to K
``score_batch`` calls, and every scored row still passes through
``score_batch``, the one function through which scoring is counted. Each
thread scores its blocks under ``np.errstate(over="ignore")``, so a score
that overflows is inf without a warning.

A batch of at least ``_SPLIT_BLOCKS`` (32) blocks is scored on two threads:
one helper thread scores the second contiguous half of the blocks while the
caller scores the first, through the same ``score_batch`` calls on the same
block edges, so the scores stay bit-identical. The helper is joined before
``score_classes`` returns or raises.

The gate was measured against one thread at p = 200 and 500 with K = 4, on
a 2-vCPU host whose second core comes and goes. With both cores free the
split took 0.64-1.03 of the time at 32-64 blocks (median 0.72 of eight
readings), 0.73-1.16 at 4-16 blocks and 1.19-1.33 at 2 blocks, where
starting the thread costs more than it saves. With one core's worth free it
took 0.96-1.12 at 32-64 blocks and up to 1.46 below. So a smaller batch,
such as each of the many small calls of a Monte Carlo replicate, starts no
thread, and BLAS alone threads its products.

A process runs at most one helper thread (``_one_helper``). While
``experiment.run_replicate`` draws its next batch on one, its batches are
scored on the calling thread alone, and a process that multiprocessing
started, such as a pool worker whose siblings fill the cores, starts none.

Every score is within rtol 1e-12 of a per-row loop, but the last bits depend
on how BLAS splits each block, so a different block size can move a score by
a few ulps. Block rows are a power of two, so every edge of a 2048-row block
is also a block edge here. Against fixed 2048-row blocks, ``predict``
outputs stayed bit-identical at (p, n_k, m) = (500, 2000, 20000),
(200, 200, 1000) and (37, 50, 333), while single scores moved by up to 7
ulps, e.g. at n = 5003 with p = 1000.

The class fit is the two-pass centred variance (Chan, Golub & LeVeque,
"Algorithms for computing the sample variance", Amer. Statist. 1983). The
first pass is ``rows.mean(axis=0)``. The second walks the rows in the same
blocks as the kernel, through one buffer with a carry row on top: row 0
holds the running column sums, the rows below it (x - mean)**2 of the
block, and one ``np.add.reduce`` down the buffer's columns gives the new
sums. Each column is thus still summed row after row, as numpy's axis-0
sum does, so for p >= 2 the variance is bit-identical to
``rows.var(axis=0, ddof=1)`` while no temporary grows beyond one block.
At p = 1 numpy sums the single contiguous column pairwise instead, and the
fit may differ from it by an ulp or two.

``fit_class_summary`` returns one class's raw moments, zero variances
included; ``fit_model`` floors them or raises ``DegenerateVarianceError``.
"""

from __future__ import annotations

import contextlib
import sys
import threading

import numpy as np

from .core import ClassModel, DataError, DegenerateVarianceError, LabeledDataset

__all__ = ["fit_model", "fit_class_summary", "score_batch", "score_classes"]

# Most rows per block of the scoring kernel, reached when p <= 32.
_CHUNK_ROWS = 2048
# Bytes of one block of rows. 256 KiB to 1 MiB were fastest, within noise,
# in a sweep from 64 KiB to 16 MiB at p = 200 and p = 500 on a 2-core Xeon
# with 4 MiB of L2 per core; at n >= 1000 rows, 2 MiB and up were 25-55 %
# slower and 64 KiB 25-90 % slower.
_BLOCK_BYTES = 512 * 1024
# Fewest blocks of a batch that score_classes splits with a helper thread.
_SPLIT_BLOCKS = 32

# Held while this process runs its one helper thread, for score_classes'
# split or for experiment.run_replicate's draw-ahead.
_helper_busy = threading.Lock()


@contextlib.contextmanager
def _one_helper(wanted: bool):
    """A pool of one thread, joined on leaving, or None when not ``wanted``,
    when this process already runs its helper thread, or when multiprocessing
    started this process (a pool worker's siblings already fill the cores).
    Such a process has loaded multiprocessing, so this imports nothing."""
    mp = sys.modules.get("multiprocessing")
    spawned = mp is not None and mp.parent_process() is not None
    if not wanted or spawned or not _helper_busy.acquire(blocking=False):
        yield None
        return
    try:
        # Imported here: a process that starts no helper does not load it.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=1) as helper:
            yield helper
    finally:
        _helper_busy.release()


def fit_model(data: LabeledDataset, variance_floor: float | None = None) -> ClassModel:
    """Fit every class of ``data``: row k-1 holds class k's mean and variance.

    ``variance_floor`` is checked once, then lifts the raw variances of
    :func:`fit_class_summary` below it; without it, the first zero
    variance, in class then column order, raises ``DegenerateVarianceError``.
    """
    if variance_floor is not None and not 0.0 < variance_floor < np.inf:
        raise DataError(f"variance_floor must be finite and positive, got {variance_floor}")
    means = np.empty((data.n_classes, data.n_features))
    variances = np.empty_like(means)
    for k in range(data.n_classes):
        means[k], variances[k] = fit_class_summary(data, k + 1)
    if variance_floor is not None:
        np.maximum(variances, variance_floor, out=variances)
    elif not variances.all():
        k, col = np.argwhere(variances == 0.0)[0]
        raise DegenerateVarianceError(
            f"class {k + 1} has zero variance in feature column {col}; "
            "drop the column or enable a variance floor"
        )
    return ClassModel(means=means, variances=variances)


def fit_class_summary(data: LabeledDataset, class_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw ``(mean, variance)`` of class ``class_id`` in 1..K, which has >= 3
    rows by construction; a constant column's variance is 0.0, which
    :func:`fit_model` floors or rejects."""
    rows = data.class_rows(class_id)
    n, p = rows.shape
    # finite features can still overflow their sum or square; ClassModel
    # names the column instead of a warning once per block
    with np.errstate(over="ignore", invalid="ignore"):
        mean = rows.mean(axis=0)
        # Row 0 of the buffer carries the running sums, so each column is
        # added row after row, in the order of rows.var(axis=0) (module
        # docstring).
        step = _block_rows(p)
        buf = np.empty((min(n, step) + 1, p))
        sums = np.zeros(p)
        for start in range(0, n, step):
            stop = min(start + step, n)
            block = buf[: stop - start + 1]
            block[0] = sums
            d = block[1:]
            np.subtract(rows[start:stop], mean, out=d)
            np.square(d, out=d)
            np.add.reduce(block, axis=0, out=sums)
        return mean, sums / (n - 1)


def _block_rows(p: int) -> int:
    """Rows per kernel block: the largest power of two whose rows fit in
    ``_BLOCK_BYTES``, clamped to [8, ``_CHUNK_ROWS``]."""
    fit = max(_BLOCK_BYTES // (8 * p), 1)
    return min(max(1 << (fit.bit_length() - 1), 8), _CHUNK_ROWS)


def score_batch(model: ClassModel, rows: np.ndarray, class_id: int) -> np.ndarray:
    """Scores of the 2-D ``rows`` against class ``class_id`` of ``model``:
    sum_j (x_j - mean_j)**2 / var_j per row."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise DataError(f"rows must be 2-D, got shape {rows.shape}")
    mean, var = model.class_params(class_id)
    n, p = rows.shape
    if p != model.n_features:
        raise DataError(f"rows have {p} features, model has {model.n_features}")
    inv_var = 1.0 / var
    out = np.empty(n)
    step = _block_rows(p)
    buf = np.empty((min(n, step), p))
    for start in range(0, n, step):
        stop = min(start + step, n)
        d = buf[: stop - start]
        np.subtract(rows[start:stop], mean, out=d)
        np.square(d, out=d)
        np.matmul(d, inv_var, out=out[start:stop])
    return out


def score_classes(model: ClassModel, rows: np.ndarray) -> np.ndarray:
    """Scores of the 2-D ``rows`` against every class of ``model``, shape (K, n):
    row k-1 holds what ``score_batch(model, rows, k)`` returns.

    The rows are walked in the kernel's blocks, and each block is scored
    against all K classes while it is in cache, so the batch streams from
    memory once instead of K times. Each block goes through
    :func:`score_batch`, whose kernel then runs on exactly the block it
    would have cut from the whole batch, so every score is bit-identical.
    From ``_SPLIT_BLOCKS`` blocks on, a helper thread scores the second
    half of the blocks, if this process may start one (module docstring).
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise DataError(f"rows must be 2-D, got shape {rows.shape}")
    n, p = rows.shape
    out = np.empty((model.n_classes, n))
    step = _block_rows(p)
    blocks = -(-n // step)
    with _one_helper(blocks >= _SPLIT_BLOCKS) as helper:
        if helper is None:
            _score_blocks(model, rows, out, 0, n, step)
        else:
            mid = (blocks + 1) // 2 * step
            second = helper.submit(_score_blocks, model, rows, out, mid, n, step)
            _score_blocks(model, rows, out, 0, mid, step)
            second.result()
    return out


def _score_blocks(model: ClassModel, rows, out, start: int, stop: int, step: int) -> None:
    """Fill ``out[:, start:stop]`` block by block from ``start``, a multiple
    of ``step``, each block scored against every class by ``score_batch``."""
    with np.errstate(over="ignore"):
        for lo in range(start, stop, step):
            hi = min(lo + step, stop)
            block = rows[lo:hi]
            for k in range(model.n_classes):
                out[k, lo:hi] = score_batch(model, block, k + 1)
