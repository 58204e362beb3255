"""Adaptive calibration-subset selection and distance weighting.

Paper Sec. 5.1.2 / Figure 6: for every test sample, Prom selects the
nearest fraction of calibration samples in the model's feature space
(all of them when the calibration set is small) and multiplies each
selected sample's nonconformity score by an exponential distance
weight ``w_i = exp(-||v_i - v_test||^2 / tau)``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from .blocks import as_block_column, panel_product
from .exceptions import ConfigurationError, ValidationError

#: soft bound on the number of float64 cells a distance block may hold
#: (~32 MB); chunked helpers size their blocks so temporaries stay flat
#: no matter how large the test stream or calibration set grows.
DISTANCE_CELL_BUDGET = 4_000_000

#: rows :func:`median_pairwise_tau` subsamples, and the seed of the
#: draw.  Shared with the segment-aware tau path
#: (:func:`repro.core.segments.tau_feature_sample`), which must
#: reproduce the exact same draw for the resolved tau to stay
#: bit-identical — change these HERE, never by restating the literals.
TAU_MAX_ROWS = 200
TAU_SEED = 0


#: rows per ``argpartition`` call of the selection kernels.  NumPy's
#: ``argpartition`` cannot write into a preallocated buffer, so every
#: call allocates a ``(rows, n)`` index matrix; a chunk-sized one made
#: on a pool thread comes from glibc's per-thread arena with hundreds of
#: page faults per call, while a 4-row tile stays small and reuses the
#: same memory (DESIGN.md §2).  Each row is partitioned on its own, so
#: the tile size changes no result.
PARTITION_TILE_ROWS = 4


def _auto_chunk(n_columns: int, chunk_size: int | None = None) -> int:
    if chunk_size is not None:
        if chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        return chunk_size
    return max(1, DISTANCE_CELL_BUDGET // max(1, n_columns))


def distance_row_blocks(n_test: int, n_calibration: int, chunk_size=None) -> list:
    """The ``(start, stop)`` test-row blocks of the distance GEMM.

    Each block is one GEMM per canonical panel
    (:func:`~repro.core.blocks.panel_bounds`).  A GEMM's bits depend on
    its operand shapes, so every kernel that must reproduce
    :func:`iter_squared_distance_chunks` bitwise issues its GEMMs over
    exactly these rows.
    """
    chunk = _auto_chunk(n_calibration, chunk_size)
    return [
        (start, min(n_test, start + chunk)) for start in range(0, n_test, chunk)
    ]


def check_feature_pair(test: np.ndarray, calibration) -> None:
    """Raise :class:`ValidationError` unless both are 2-D and agree in width."""
    if calibration.ndim != 2 or test.ndim != 2:
        raise ValidationError("feature arrays must be 2-D")
    if test.shape[1] != calibration.shape[1]:
        raise ValidationError(
            f"feature dimensionality mismatch: calibration has "
            f"{calibration.shape[1]}, test has {test.shape[1]}"
        )


def finish_squared_distances(products, test_rows, calibration_sq) -> np.ndarray:
    """Turn the GEMM block ``test_rows @ calibration.T`` into squared
    distances in place (``||a||^2 + ||b||^2 - 2 a.b``, clipped at 0).

    Elementwise over rows that are each reduced on their own, so
    finishing a block row slice by row slice gives the same bits.
    """
    products *= -2.0
    products += np.einsum("ij,ij->i", test_rows, test_rows)[:, None]
    products += calibration_sq[None, :]
    np.clip(products, 0.0, None, out=products)
    return products


def nearest_indices(distances, keep: int, out: np.ndarray) -> np.ndarray:
    """``out[:] = np.argpartition(distances, keep - 1, axis=1)[:, :keep]``.

    Partitioned :data:`PARTITION_TILE_ROWS` rows at a time, so no
    ``(rows, n)`` index matrix is ever allocated whole.
    """
    for start in range(0, len(distances), PARTITION_TILE_ROWS):
        stop = start + PARTITION_TILE_ROWS
        out[start:stop] = np.argpartition(
            distances[start:stop], keep - 1, axis=1
        )[:, :keep]
    return out


def iter_squared_distance_chunks(test_features, calibration_features, chunk_size=None):
    """Yield ``(start, stop, block)`` of squared Euclidean distances.

    ``block`` is the ``(stop - start, n_calibration)`` squared-distance
    matrix of test rows ``start:stop`` against every calibration row,
    computed with the ``||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b``
    identity: one GEMM per block instead of an ``(n, m, d)`` broadcast,
    with temporary memory bounded by ``chunk * n_calibration`` cells.

    The GEMM follows the canonical fixed-panel partition of the
    calibration axis (:func:`~repro.core.blocks.panel_bounds`) over a
    :class:`~repro.core.blocks.BlockColumn`; a flat array is read as a
    one-block column, and per-shard blocks are iterated directly (no
    flat concatenation) with bit-identical results — see DESIGN.md §9.
    """
    test = np.asarray(test_features, dtype=float)
    calibration = as_block_column(calibration_features, dtype=float)
    if test.ndim == 1:
        test = test.reshape(1, -1)
    check_feature_pair(test, calibration)
    calibration_sq = calibration.row_norms()
    panels = calibration.panels()
    for start, stop in distance_row_blocks(len(test), len(calibration), chunk_size):
        block_rows = test[start:stop]
        block = panel_product(block_rows, panels, len(calibration))
        yield start, stop, finish_squared_distances(block, block_rows, calibration_sq)


def squared_distance_matrix(A, B=None, chunk_size=None) -> np.ndarray:
    """Return the full ``(len(A), len(B))`` squared-distance matrix.

    Built block-by-block via :func:`iter_squared_distance_chunks`, so the
    result costs ``n * m`` cells but the temporaries never exceed the
    chunk budget (the naive ``A[:, None, :] - B[None, :, :]`` broadcast
    needs ``n * m * d``).  ``B=None`` computes pairwise distances of
    ``A`` against itself.
    """
    A = np.asarray(A, dtype=float)
    B = as_block_column(A if B is None else B, dtype=float)
    out = np.empty((len(A), len(B)))
    for start, stop, block in iter_squared_distance_chunks(A, B, chunk_size):
        out[start:stop] = block
    return out


@functools.lru_cache(maxsize=8)
def _upper_triangle_indices(n: int):
    return np.triu_indices(n, k=1)


def median_pairwise_tau(
    features, max_rows: int = TAU_MAX_ROWS, seed: int = TAU_SEED
) -> float:
    """Median pairwise squared distance over (a subsample of) features.

    The automatic tau of :meth:`AdaptiveWeighting.resolve_tau`, exposed
    as a standalone kernel so streaming recalibration can re-resolve it
    against a mutated calibration store with exactly the arithmetic a
    fresh ``calibrate()`` would use.  Cost is bounded by ``max_rows``
    (one ``max_rows x max_rows`` GEMM and a ~20k-element median, a few
    hundred microseconds) regardless of the calibration-set size, so it
    can rerun on every streaming micro-batch.
    """
    features = np.asarray(features, dtype=float)
    n = len(features)
    if n < 2:
        return 1.0
    if n > max_rows:
        rng = np.random.default_rng(seed)
        features = features[rng.choice(n, size=max_rows, replace=False)]
    squared = squared_distance_matrix(features)
    distances = squared[_upper_triangle_indices(len(features))]
    median = float(np.median(distances))
    return max(median, 1e-9)


@dataclass(frozen=True)
class CalibrationSubset:
    """The per-test-sample view of the calibration data.

    Attributes:
        indices: positions of the selected calibration samples.
        distances: Euclidean distance of each selected sample to the
            test sample, aligned with ``indices``.
        weights: exponential distance weights, aligned with ``indices``.
    """

    indices: np.ndarray
    distances: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class CalibrationSubsetBatch:
    """Per-test-sample calibration views for a whole batch at once.

    Struct-of-arrays counterpart of :class:`CalibrationSubset`: every
    test sample selects the same number ``k`` of calibration samples
    (all of them below ``min_samples``, the nearest fraction above), so
    the selection is three rectangular ``(n_test, k)`` arrays instead
    of ``n_test`` ragged objects.

    Attributes:
        indices: selected calibration positions, one row per test sample.
        distances: Euclidean distances aligned with ``indices``;
            ``None`` when the selection was asked to skip them.
        weights: exponential distance weights aligned with ``indices``.
    """

    indices: np.ndarray
    distances: np.ndarray | None
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)

    def sample(self, i: int) -> CalibrationSubset:
        """Return the ``i``-th test sample's view as a scalar subset."""
        return CalibrationSubset(
            indices=np.asarray(self.indices[i]),
            distances=np.asarray(self.distances[i]),
            weights=np.asarray(self.weights[i]),
        )


class AdaptiveWeighting:
    """Selects and weights calibration samples relative to a test sample.

    Args:
        fraction: share of the calibration set to keep (nearest first);
            the paper default is 0.5.
        min_samples: when the calibration set has fewer samples than
            this, all of it is used (paper default 200).
        tau: temperature of the exponential weight.  The paper default
            is 500; ``None`` (our default) resolves tau automatically
            at calibration time to the median pairwise squared distance
            of the calibration features, so the weights adapt to the
            scale of any feature space (see :meth:`resolve_tau`).
        weight_floor: lower bound on the distance weight.  Keeps a
            sliver of probability-based evidence alive for test samples
            far from every calibration point: a model that is genuinely
            conforming in its output distribution can still be accepted
            even when the input is off-distribution, which bounds the
            false-positive rate under pure covariate shift.
    """

    def __init__(
        self,
        fraction: float = 0.5,
        min_samples: int = 200,
        tau: float | None = None,
        weight_floor: float = 0.05,
    ):
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
        if min_samples < 1:
            raise ConfigurationError("min_samples must be >= 1")
        if tau is not None and tau <= 0:
            raise ConfigurationError("tau must be positive when given")
        if not 0.0 <= weight_floor < 1.0:
            raise ConfigurationError(f"weight_floor must be in [0, 1), got {weight_floor}")
        self.fraction = fraction
        self.min_samples = min_samples
        self.tau = tau
        self.weight_floor = weight_floor
        self._resolved_tau = tau

    @property
    def effective_tau(self) -> float | None:
        """The tau actually in use (resolved value when tau was None)."""
        return self._resolved_tau

    def resolve_tau(
        self, calibration_features, max_rows: int = TAU_MAX_ROWS, seed: int = TAU_SEED
    ) -> float:
        """Fix an automatic tau from the calibration feature scale.

        Uses the median pairwise squared Euclidean distance over (a
        sample of) calibration feature pairs: in-distribution samples
        then receive weights around ``exp(-1)`` while samples several
        distance scales away decay to nearly zero.  Called by the Prom
        detectors during ``calibrate`` when ``tau`` was None, and by
        the streaming wrappers after every store mutation (the pair
        sample keeps it micro-batch cheap).
        """
        if self.tau is not None:
            self._resolved_tau = self.tau
            return self._resolved_tau
        self._resolved_tau = median_pairwise_tau(
            calibration_features, max_rows=max_rows, seed=seed
        )
        return self._resolved_tau

    def adopt_tau(self, tau: float) -> float:
        """Install an externally resolved automatic tau.

        Used by the streaming tau sketch
        (:class:`~repro.core.segments.TauSketch`) to carry a cached
        resolution across store mutations whose sampled feature rows
        did not change; a fixed ``tau`` always wins, exactly as in
        :meth:`resolve_tau`.
        """
        self._resolved_tau = self.tau if self.tau is not None else float(tau)
        return self._resolved_tau

    def select(self, calibration_features: np.ndarray, test_feature: np.ndarray) -> CalibrationSubset:
        """Return the weighted nearest subset for one test feature vector."""
        features = np.asarray(calibration_features, dtype=float)
        test = np.asarray(test_feature, dtype=float).ravel()
        if features.ndim != 2:
            raise ValidationError("calibration_features must be 2-D")
        if features.shape[1] != test.shape[0]:
            raise ValidationError(
                f"feature dimensionality mismatch: calibration has "
                f"{features.shape[1]}, test has {test.shape[0]}"
            )
        n = len(features)
        squared = np.sum((features - test) ** 2, axis=1)
        distances = np.sqrt(squared)

        if n < self.min_samples:
            indices = np.arange(n)
        else:
            keep = max(1, int(round(n * self.fraction)))
            indices = np.argpartition(distances, keep - 1)[:keep]
        tau = self._resolved_tau
        if tau is None:
            tau = self.resolve_tau(features)
        weights = np.maximum(np.exp(-squared[indices] / tau), self.weight_floor)
        return CalibrationSubset(
            indices=indices,
            distances=distances[indices],
            weights=weights,
        )

    def keep_count(self, n_calibration: int) -> int:
        """Calibration rows each test sample selects out of ``n_calibration``."""
        if n_calibration < self.min_samples:
            return n_calibration
        return max(1, int(round(n_calibration * self.fraction)))

    def select_batch(
        self,
        calibration_features: np.ndarray,
        test_features: np.ndarray,
        chunk_size: int | None = None,
        *,
        products: np.ndarray | None = None,
        out: tuple | None = None,
    ) -> CalibrationSubsetBatch:
        """Return the weighted nearest subsets for a batch of test samples.

        The test-vs-calibration distance matrix is computed in
        memory-bounded chunks via the dot-product identity; selection
        and weighting are then a row-tiled ``argpartition`` plus one
        vectorized ``exp``, so the whole batch costs a handful of NumPy
        kernels instead of ``n_test`` Python iterations of
        :meth:`select`.

        ``calibration_features`` may be a
        :class:`~repro.core.blocks.BlockColumn`; selection then runs
        segment-direct (bit-identical — DESIGN.md §9).

        The evaluate row fan-out (DESIGN.md §2) calls this once per
        lane, on the lane's rows: ``products`` is then their rows of the
        chunk's GEMM block ``test @ calibration.T``, finished into
        squared distances in place (the regressor's k-NN reads them
        afterwards), and ``out`` is ``(indices, distances, weights,
        offsets)`` — ``(n_test, keep)`` buffers to fill instead of
        allocating.  ``offsets`` receives the flat gather
        positions (``None`` is fine when every row is kept), and
        ``distances=None`` skips the kept distances (and their
        ``sqrt``): the evaluate pipeline reads only indices and
        weights, and the result's ``distances`` is then ``None``.
        """
        features = as_block_column(calibration_features, dtype=float)
        test = np.asarray(test_features, dtype=float)
        if test.ndim == 1:
            test = test.reshape(1, -1)
        check_feature_pair(test, features)
        n = len(features)
        n_test = len(test)
        keep = self.keep_count(n)
        tau = self._resolved_tau
        if tau is None:
            tau = self.resolve_tau(calibration_features)
        if out is None:
            out = (
                np.empty((n_test, keep), dtype=int),
                np.empty((n_test, keep)),
                np.empty((n_test, keep)),
                None if keep == n else np.empty((n_test, keep), dtype=int),
            )
        indices, distances, weights, offsets = out
        # without a distances buffer the kept squared distances are
        # gathered straight into the weights and weighed in place
        squared = weights if distances is None else distances
        if products is None:
            blocks = iter_squared_distance_chunks(test, features, chunk_size)
        else:
            blocks = [
                (0, n_test, finish_squared_distances(products, test, features.row_norms()))
            ]
        for start, stop, block in blocks:
            if keep == n:
                indices[start:stop] = np.arange(n)
                squared[start:stop] = block
                continue
            nearest_indices(block, keep, indices[start:stop])
            # one flat gather straight into the output rows (no
            # fancy-index temporary); mode="wrap" skips the hidden
            # bounds-check copy that out= takes under the default mode
            flat = np.add(
                indices[start:stop],
                (np.arange(stop - start) * n)[:, None],
                out=offsets[start:stop],
            )
            np.take(block.reshape(-1), flat, out=squared[start:stop], mode="wrap")
        self._weigh(squared, tau, weights)
        if distances is not None:
            np.sqrt(distances, out=distances)
        return CalibrationSubsetBatch(
            indices=indices,
            distances=distances,
            weights=weights,
        )

    def _weigh(self, squared, tau, out) -> None:
        """Exponential distance weights of the kept squared distances."""
        np.divide(squared, -tau, out=out)
        np.exp(out, out=out)
        np.maximum(out, self.weight_floor, out=out)

    def adjusted_scores(self, scores: np.ndarray, subset: CalibrationSubset) -> np.ndarray:
        """Return the distance-weighted scores of the selected subset.

        ``scores`` is the full per-calibration-sample score array; the
        result is aligned with ``subset.indices``.
        """
        scores = np.asarray(scores, dtype=float)
        return subset.weights * scores[subset.indices]


class UniformWeighting(AdaptiveWeighting):
    """Ablation variant: full calibration set, unit weights.

    This reproduces the behaviour of prior CP-based drift detectors
    (Transcend / RISE / TESSERACT) that Prom improves upon, and backs
    the naive-CP baseline and the adaptive-vs-full ablation bench.
    """

    def __init__(self):
        super().__init__(fraction=1.0, min_samples=1, tau=1.0)

    def select(self, calibration_features, test_feature) -> CalibrationSubset:
        features = np.asarray(calibration_features, dtype=float)
        test = np.asarray(test_feature, dtype=float).ravel()
        n = len(features)
        distances = np.sqrt(np.sum((features - test) ** 2, axis=1))
        return CalibrationSubset(
            indices=np.arange(n),
            distances=distances,
            weights=np.ones(n),
        )

    def _weigh(self, squared, tau, out) -> None:
        """Unit weights: every calibration sample counts in full."""
        out.fill(1.0)
