"""Synthetic benchmark generator: Gaussian location-scale mixture plus discrete noise.

Each observation is

    X = sqrt(scale) * (Z + shift) + W

where Z is a standard Gaussian vector with AR(1) feature correlation
corr(Z_j, Z_l) = rho**|j-l|, and each coordinate of W is drawn uniformly from
a fixed pool of p scalar atoms scattered over [-3, 3]. The atom pool is the
"frozen" part of the design: it is created once from ``atom_seed`` and shared
by every class, replicate, and test set, so the discrete noise distribution
is identical across an entire experiment. Per-run randomness (Z, atom picks)
comes from ``run_seed``.

Inlier classes share scale=1 and differ by shift; outliers have shift 0 and a
larger scale, so they match the inlier means but are overdispersed.
``SCENARIOS`` names the designs; ``ScenarioConfig``'s defaults are the one-class one.

A training set or a test batch is one block, drawn by one ``sample_points``
call from per-component row counts. The generator is consumed component by
component (Gaussian rows, then atom picks), so the stream is the same as
drawing each component alone. The AR(1) recursion runs in place over the
unfinished rows once they reach ``_CHUNK_ROWS`` or the block ends, so small
components share one pass; only the picks of rows still waiting for it are
held, never more than ``_CHUNK_ROWS`` rows of them, in the smallest integer
dtype that holds them. Nothing is transposed, since a transposed copy costs
more peak memory than its contiguous column loop saves.

Equicorrelated noise deliberately does not appear here: a shared Gaussian
factor at rho=0.8 dominates every distance-to-mean score and no mean/variance
method separates anything; AR(1) keeps the total cross-correlation bounded
in p.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import ClassModel, DataError, LabeledDataset, TestBatch

__all__ = [
    "ComponentSpec",
    "ScenarioConfig",
    "multi_class_config",
    "SCENARIOS",
    "make_atoms",
    "sample_points",
    "generate_training",
    "generate_test_batch",
    "generate",
    "oracle_params",
    "with_run_seed",
]

# Atom pool seed shared by all built-in experiments.
DEFAULT_ATOM_SEED = 99

ONE_CLASS_OUTLIER_SCALE = 2.5
MULTI_CLASS_SHIFTS = (0.0, 1.3, -1.3, 2.5)
MULTI_CLASS_OUTLIER_SCALE = 3.5


class ComponentSpec(NamedTuple):
    """One mixture component: X = sqrt(scale) * (Z + shift) + W."""

    shift: float
    scale: float = 1.0


def check_seed(name: str, seed) -> None:
    """DataError unless ``seed`` is an integer >= 0, as numpy's seeding needs.

    A bool is not a seed, though ``bool`` subclasses ``int``.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DataError(f"{name} must be a non-negative integer, got {seed!r}")


def check_number(name: str, value, integer: bool = False) -> None:
    """DataError unless ``value`` is a number (an integer if ``integer``), not a bool."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if integer else "a number"
        raise DataError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one synthetic experiment cell; its defaults are
    the one-class design, and the design defaults of every caller.

    ``class_specs`` lists the K inlier components in class order;
    ``outlier_spec`` is the contaminating component (truth label K+1).
    ``inlier_ratio`` is inliers-per-outlier in the test batch (3.0 = 3:1).
    """

    p: int = 500
    n_k: int = 500
    m: int = 1000
    rho: float = 0.0
    alpha: float = 0.05
    inlier_ratio: float = 3.0
    class_specs: tuple[ComponentSpec, ...] = (ComponentSpec(0.0, 1.0),)
    outlier_spec: ComponentSpec = ComponentSpec(0.0, ONE_CLASS_OUTLIER_SCALE)
    atom_seed: int = DEFAULT_ATOM_SEED
    run_seed: int = 0

    def __post_init__(self):
        for name in ("p", "n_k", "m", "rho", "alpha", "inlier_ratio"):
            check_number(name, getattr(self, name), integer=name in ("p", "n_k", "m"))
        if self.p < 1:
            raise DataError(f"p must be >= 1, got {self.p}")
        if self.n_k < 3:
            raise DataError(f"n_k must be >= 3, got {self.n_k}")
        if self.m < 1:
            raise DataError(f"m must be >= 1, got {self.m}")
        if not 0.0 <= self.rho < 1.0:
            raise DataError(f"rho must be in [0, 1), got {self.rho}")
        if not 0.0 < self.alpha < 1.0:
            raise DataError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.inlier_ratio < math.inf:
            raise DataError(
                f"inlier_ratio must be finite and positive, got {self.inlier_ratio}"
            )
        check_seed("atom_seed", self.atom_seed)
        check_seed("run_seed", self.run_seed)
        specs = tuple(ComponentSpec(*s) for s in self.class_specs)
        if not specs:
            raise DataError("class_specs must not be empty")
        for s in specs + (ComponentSpec(*self.outlier_spec),):
            if not s.scale >= 1.0:
                raise DataError(f"component scale must be >= 1, got {s.scale}")
        object.__setattr__(self, "class_specs", specs)
        object.__setattr__(self, "outlier_spec", ComponentSpec(*self.outlier_spec))

    @property
    def n_classes(self) -> int:
        return len(self.class_specs)


def multi_class_config(**overrides) -> ScenarioConfig:
    """Four shifted inlier classes; outliers at the origin, overdispersed by 3.5."""
    return ScenarioConfig(
        class_specs=tuple(ComponentSpec(s, 1.0) for s in MULTI_CLASS_SHIFTS),
        outlier_spec=ComponentSpec(0.0, MULTI_CLASS_OUTLIER_SCALE),
        **overrides,
    )


# Each simulated design by name: the maker of its ScenarioConfig.
SCENARIOS = {"one_class": ScenarioConfig, "multi_class": multi_class_config}


def make_atoms(atom_seed: int, p: int) -> np.ndarray:
    """The fixed pool of p scalar atoms, uniform over [-3, 3]."""
    if p < 1:
        raise DataError(f"p must be >= 1, got {p}")
    try:
        return np.random.default_rng(atom_seed).uniform(-3.0, 3.0, size=p)
    except (MemoryError, ValueError):  # too large to allocate, or to index
        raise DataError(f"cannot allocate {p} atoms") from None


# Rows of one AR(1) pass, and the most unfinished rows whose atom picks are
# held while they wait for it. Each pass pays the p-step Python loop again, so
# passes are long and small components share one; the cap bounds the held
# picks and the working set.
_CHUNK_ROWS = 2048
# Target bytes of one row block of atom picks (drawn as int64) and of the
# in-place affine step and atom gather.
_BLOCK_BYTES = 256 * 1024


def sample_points(
    parts,
    rho: float,
    atoms: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw a block of observations, component after component. Shape (sum n_i, p).

    ``parts`` is a sequence of ``(ComponentSpec, n_i)`` pairs; the rows of
    each component follow those of the one before, in order.

    The generator is consumed per component in a fixed order: the n_i x p
    Gaussian block, written straight into its output rows, then the n_i x p
    atom indices, drawn as int64 in row blocks (the same stream). A seeded
    generator therefore reproduces every draw bit for bit, and splitting the
    same components over several calls gives the same rows.

    Rows are unfinished from their Gaussian draw until the AR(1) recursion
    and the affine step have run over them. While a component leaves fewer
    than ``_CHUNK_ROWS`` rows unfinished and the block goes on, its picks
    are held, in the smallest unsigned dtype that holds p - 1. Once the
    unfinished rows reach ``_CHUNK_ROWS``, or the block ends, the AR(1)
    recursion runs over them in place and in row chunks: columns 1.. are
    scaled by sqrt(1 - rho**2), then each column gains rho times the one
    before, so every element is rounded exactly as
    rho * z[j-1] + sqrt(1 - rho**2) * g[j]. Shift, scale and atoms then
    follow in place in cache-sized row blocks, in the order
    sqrt(scale) * (z + shift) + w: the held picks for the waiting
    components, and for the current one picks drawn block by block and
    added at once. So at most ``_CHUNK_ROWS`` rows of picks are ever held.
    The block stays row-major and is never transposed: a transposed copy
    would make the column loop contiguous, but it needs a second block of
    memory and leaves column-major rows for the row-wise steps after it.

    Raises DataError for rho outside [0, 1), a negative row count, a
    non-positive scale, an empty or non-1-D atom pool, or a block too large
    to allocate.
    """
    atoms = np.asarray(atoms, dtype=np.float64)
    if atoms.ndim != 1 or atoms.shape[0] < 1:
        raise DataError(f"atoms must be a non-empty 1-D pool, got shape {atoms.shape}")
    if not 0.0 <= rho < 1.0:
        raise DataError(f"rho must be in [0, 1), got {rho}")
    spans, hi = [], 0
    for spec, n in parts:
        spec = ComponentSpec(*spec)
        if n < 0:
            raise DataError(f"component row count must be >= 0, got {n}")
        if not spec.scale > 0:
            raise DataError(f"component scale must be positive, got {spec.scale}")
        spans.append((spec, hi, hi + n))
        hi += n
    p = atoms.shape[0]
    try:
        z = np.empty((hi, p))
    except (MemoryError, ValueError):  # too large to allocate, or to index
        raise DataError(f"cannot allocate {hi} rows x {p} features") from None
    ar = rho != 0.0 and p > 1
    held = np.empty((min(_CHUNK_ROWS, hi) if ar else 0, p), dtype=np.min_scalar_type(p - 1))
    block_rows = max(1, _BLOCK_BYTES // (8 * p))

    first = 0  # the first component whose rows are unfinished
    for i, (_, lo, hi) in enumerate(spans):
        rng.standard_normal(out=z[lo:hi])
        start = spans[first][1]
        if ar and hi - start < _CHUNK_ROWS and i + 1 < len(spans):
            for r in range(lo, hi, block_rows):
                s = min(r + block_rows, hi)
                held[r - start:s - start] = rng.integers(0, p, size=(s - r, p))
            continue
        if ar:
            _ar1(z[start:hi], rho)
        for spec, c_lo, c_hi in spans[first:i + 1]:
            root = math.sqrt(spec.scale)
            for r in range(c_lo, c_hi, block_rows):
                s = min(r + block_rows, c_hi)
                if r < lo:
                    picks = held[r - start:s - start]
                else:
                    picks = rng.integers(0, p, size=(s - r, p))
                block = z[r:s]
                block += spec.shift
                block *= root
                block += atoms[picks]
        first = i + 1
    return z


def _ar1(z: np.ndarray, rho: float) -> None:
    """The AR(1) recursion over the columns of ``z``, in place, in row chunks."""
    innov = math.sqrt(1.0 - rho * rho)
    tmp = np.empty(min(_CHUNK_ROWS, z.shape[0]))
    for r in range(0, z.shape[0], _CHUNK_ROWS):
        chunk = z[r:r + _CHUNK_ROWS]
        t = tmp[: chunk.shape[0]]
        chunk[:, 1:] *= innov
        for j in range(1, z.shape[1]):
            np.multiply(chunk[:, j - 1], rho, out=t)
            chunk[:, j] += t


def apportion_test_counts(m: int, inlier_ratio: float, n_classes: int) -> tuple[list[int], int]:
    """Split m test slots into per-class inlier counts plus an outlier count.

    The inlier total is round(m * ratio / (ratio + 1)) (half up), spread over
    classes by largest remainder; equal quotas tie, and ties go to the lower
    class index. The outliers take the rest, none if m * ratio overflows.
    """
    if m < 1:
        raise DataError(f"m must be >= 1, got {m}")
    share = m * inlier_ratio / (inlier_ratio + 1.0)
    n_inliers = m if math.isinf(share) else int(math.floor(share + 0.5))
    base, extra = divmod(n_inliers, n_classes)
    counts = [base + (1 if k < extra else 0) for k in range(n_classes)]
    return counts, m - n_inliers


def generate_training(
    config: ScenarioConfig,
    rng: np.random.Generator,
    atoms: np.ndarray,
) -> LabeledDataset:
    """n_k rows per inlier class, classes in order, from ``rng`` and the caller's ``atoms``."""
    features = sample_points(
        [(spec, config.n_k) for spec in config.class_specs], config.rho, atoms, rng
    )
    labels = np.repeat(np.arange(1, config.n_classes + 1), config.n_k)
    return LabeledDataset(
        features=features, labels=labels
    )


def generate_test_batch(
    config: ScenarioConfig,
    rng: np.random.Generator,
    atoms: np.ndarray,
) -> TestBatch:
    """m labeled rows from ``rng`` and the caller's ``atoms``: balanced inliers, then outliers."""
    counts, n_out = apportion_test_counts(config.m, config.inlier_ratio, config.n_classes)
    counts.append(n_out)
    specs = config.class_specs + (config.outlier_spec,)
    features = sample_points(list(zip(specs, counts)), config.rho, atoms, rng)
    truth = np.repeat(np.arange(1, config.n_classes + 2, dtype=np.int64), counts)
    return TestBatch(features=features, truth=truth)


def generate(config: ScenarioConfig) -> tuple[LabeledDataset, TestBatch]:
    """Training set plus one test batch from ``run_seed``. Deterministic."""
    atoms = make_atoms(config.atom_seed, config.p)
    rng = np.random.default_rng(config.run_seed)
    train = generate_training(config, rng, atoms)
    test = generate_test_batch(config, rng, atoms)
    return train, test


def oracle_params(config: ScenarioConfig) -> ClassModel:
    """True per-class means and diagonal variances implied by the generator.

    Coordinate j of class k has mean sqrt(scale)*shift + mean(atoms) and
    variance scale + var(atoms): the Gaussian part contributes scale, the
    atom pick contributes the population variance of the pool.
    """
    atoms = make_atoms(config.atom_seed, config.p)
    w_mean = atoms.mean()
    w_var = atoms.var()
    k, p = config.n_classes, config.p
    means = np.empty((k, p))
    variances = np.empty((k, p))
    for i, spec in enumerate(config.class_specs):
        means[i] = math.sqrt(spec.scale) * spec.shift + w_mean
        variances[i] = spec.scale + w_var
    return ClassModel(means=means, variances=variances)


def with_run_seed(config: ScenarioConfig, run_seed: int) -> ScenarioConfig:
    """Same cell, different replicate stream."""
    return replace(config, run_seed=int(run_seed))
