"""PromClassifier and PromRegressor — the top-level drift detectors.

Workflow (paper Figures 3 and 5):

1. **Design time** — ``calibrate()`` with the held-out calibration set:
   feature vectors, the underlying model's outputs, and ground truth.
   Per-sample nonconformity scores are precomputed offline for every
   expert (nonconformity function).
2. **Deployment** — ``evaluate()`` a batch of test samples: the
   vectorized engine selects and weights the nearest calibration
   subsets (chunked distance matrix), computes per-expert credibility
   (p-value of the predicted label) and confidence (Gaussian of the
   prediction-set size) for the whole batch with a handful of NumPy
   kernels, and majority-votes the accept/reject decisions into a
   :class:`~repro.core.committee.DecisionBatch`.  ``evaluate_one`` is a
   thin wrapper evaluating a batch of one; ``evaluate_serial`` keeps
   the original per-sample loop as a reference implementation.
3. **Streaming deployment** — when the calibration set itself churns
   (relabelled samples arrive, old ones are evicted), wrap the
   detector in :class:`~repro.core.streaming.StreamingPromClassifier`
   or :class:`~repro.core.streaming.StreamingPromRegressor`: their
   ``update()`` folds a micro-batch into the calibration state in time
   proportional to the batch, not the calibration-set size, and is
   decision-identical to a fresh ``calibrate()`` on the surviving
   samples (DESIGN.md §3).
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .blocks import panel_product
from .clustering import CalibrationClusterer
from .committee import Decision, DecisionBatch, ExpertCommittee
from .exceptions import (
    CalibrationError,
    ConfigurationError,
    NotCalibratedError,
    ValidationError,
)
from .nonconformity import (
    default_classification_functions,
    default_regression_scores,
)
from .pvalue import (
    bin_subset_by_label,
    group_scores_by_label,
    pvalues_all_labels,
    pvalues_from_binning,
)
from .scores import assess, assess_batch
from .segments import ComposedStateAttr, SegmentBundle, current_bundle
from .weighting import (
    AdaptiveWeighting,
    check_feature_pair,
    distance_row_blocks,
    iter_squared_distance_chunks,
    nearest_indices,
    squared_distance_matrix,
)

#: soft bound on the number of float64 cells one evaluation chunk's
#: largest temporary may hold (~16 MB).
_EVALUATE_CELL_BUDGET = 2_000_000

#: below this many selected cells (``n_test * k``) a chunk runs on one
#: lane, the calling thread: a pool round trip costs more than it saves
#: on small batches (DESIGN.md §2 has the break-even measurement).
_FAN_OUT_MIN_CELLS = 262_144

#: set in evaluator processes, whose parallelism is the process count
_serial_committee = False


def _available_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fan_out_width(n_rows: int) -> int:
    """Row lanes: at most one per available core and one per row."""
    return 1 if _serial_committee else min(n_rows, _available_cores())


def use_serial_committee() -> None:
    """Run every evaluate chunk of this process on one lane.

    Called once by each :class:`~repro.core.multiproc.ProcessServingPool`
    evaluator process: the pool already spreads requests over one
    process per core, so a thread fan-out inside a worker would only
    oversubscribe the cores.
    """
    global _serial_committee
    _serial_committee = True


@functools.lru_cache(maxsize=1)
def _lane_pool() -> ThreadPoolExecutor:
    """The process-wide row-lane pool, built on first fan-out."""
    return ThreadPoolExecutor(
        max_workers=_available_cores(), thread_name_prefix="prom-lane"
    )


# A pool built before a fork has no threads in the child, where a
# submitted lane would wait forever; the child builds its own on first
# use instead.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_lane_pool.cache_clear)


def _run_lanes(width: int, run_lane) -> list:
    """``[run_lane(lane) for lane in range(width)]``, lanes in parallel.

    Lane 0 runs on the calling thread, the others on the process-wide
    pool.  No lane ever waits on another, so evaluates sharing the pool
    cannot deadlock it.
    """
    futures = [_lane_pool().submit(run_lane, lane) for lane in range(1, width)]
    try:
        first = run_lane(0)
    finally:
        wait(futures)
    return [first] + [future.result() for future in futures]


def _fan_out(prom, state, features, run_rows, n_nearest: int = 0) -> list:
    """Run one evaluate chunk over row lanes; one result per lane, in row order.

    Phase 1 issues the chunk's distance GEMMs exactly as
    :func:`~repro.core.weighting.iter_squared_distance_chunks` would
    (same row blocks, one GEMM per canonical panel), dealt round-robin
    onto the lanes.  Phase 2 gives each lane a contiguous slice of the
    rows: selection, the ``n_nearest`` nearest calibration rows (the
    regressor's k-NN; ``None`` when 0), label binning and
    ``run_rows(rows, nearest, binning, workspace)`` — the experts and
    the vote.  Every step of phase 2 works row by row, so the results
    are bit-identical at any width.  Chunks under
    :data:`_FAN_OUT_MIN_CELLS` selected cells run on one lane.

    The submitting thread allocates every ``O(rows x n)`` and
    ``O(rows x k)`` buffer (DESIGN.md §2); each lane's
    :func:`~repro.core.pvalue.pvalue_workspace` covers its own rows.
    """
    weighting = prom.weighting
    calibration = state.features
    check_feature_pair(features, calibration)
    n_rows, n = len(features), len(calibration)
    keep = weighting.keep_count(n)
    width = 1
    if n_rows * keep >= _FAN_OUT_MIN_CELLS:
        width = _fan_out_width(n_rows)
    products = np.empty((n_rows, n))
    gemms = [
        (start, stop, panel)
        for start, stop in distance_row_blocks(n_rows, n)
        for panel in calibration.panels()
    ]

    def multiply(lane):
        for start, stop, panel in gemms[lane::width]:
            panel_product(features[start:stop], (panel,), n, out=products[start:stop])

    _run_lanes(width, multiply)
    indices = np.empty((n_rows, keep), dtype=int)
    weights = np.empty((n_rows, keep))
    bins = np.empty((n_rows, keep), dtype=int)
    masks = np.empty((2, n_rows * keep), dtype=bool)
    # the p-value score and threshold vectors take over each lane's
    # distance rows, which nothing reads after selection and the k-NN;
    # they fit whenever a row keeps at most half the calibration set
    spare = None
    if 2 * keep > n:
        spare = np.empty((n_rows, 2 * keep))
    edges = [n_rows * lane // width for lane in range(width + 1)]
    lanes = [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]

    def run_lane(lane):
        rows = lanes[lane]
        # the bins double as the selection's gather offsets, which are
        # dead by the time the binning writes them
        subset = weighting.select_batch(
            calibration,
            features[rows],
            products=products[rows],
            out=(indices[rows], None, weights[rows], bins[rows]),
        )
        nearest = None
        if n_nearest:
            nearest = nearest_indices(
                products[rows], n_nearest, np.empty((len(subset), n_nearest), dtype=int)
            )
        binning = bin_subset_by_label(
            subset,
            state.labels,
            state.n_labels,
            weight_mode=prom.weight_mode,
            out=bins[rows],
        )
        floats = (products if spare is None else spare)[rows].reshape(-1)
        cells = (rows.stop - rows.start) * keep
        workspace = (
            floats[:cells],
            floats[cells : 2 * cells],
            masks[:, rows.start * keep : rows.stop * keep],
        )
        return run_rows(rows, nearest, binning, workspace)

    return _run_lanes(width, run_lane)


def _evaluation_chunk(n_calibration: int, chunk_size: int | None, n_labels: int = 1) -> int:
    """Test rows per chunk so per-chunk temporaries stay bounded.

    The widest temporaries are the ``(chunk, k)`` selection/binning
    matrices (``k <= n_calibration``) and the ``(chunk, n_labels,
    n_labels)`` broadcast inside the closed-form ``score_all_labels``
    kernels, so both dimensions cap the chunk.
    """
    if chunk_size is not None:
        if chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        return chunk_size
    widest = max(1, n_calibration, n_labels * n_labels)
    return max(1, _EVALUATE_CELL_BUDGET // widest)


def _check_calibration_inputs(features, outputs, targets):
    """Validate one calibration batch; non-finite values fail closed.

    Shared by every path that writes calibration state (``calibrate``,
    streaming ``update``/``refresh``/``replace_outputs``), so a NaN or
    infinite feature, model output or target raises
    :class:`~repro.core.exceptions.ValidationError` before any store or
    detector state changes.
    """
    features = np.asarray(features, dtype=float)
    outputs = np.asarray(outputs, dtype=float)
    targets = np.asarray(targets)
    if features.ndim != 2:
        raise CalibrationError("calibration features must be 2-D")
    if len(features) == 0:
        raise CalibrationError("calibration set is empty")
    if len(features) != len(outputs) or len(features) != len(targets):
        raise CalibrationError(
            "calibration features, model outputs and targets must align"
        )
    if not all(
        np.isfinite(array).all()
        for array in (features, outputs, targets.astype(float))
    ):
        raise ValidationError("calibration data contains NaN or inf")
    return features, outputs, targets


def _check_rows(features, **columns) -> None:
    """Raise :class:`ValidationError` unless every column has a row per feature row."""
    for name, column in columns.items():
        if len(column) != len(features):
            raise ValidationError(
                f"{len(features)} feature rows but {len(column)} {name} rows"
            )


class PromClassifier:
    """Drift detector for probabilistic classifiers.

    Args:
        functions: nonconformity functions forming the expert
            committee; defaults to the paper's LAC/TopK/APS/RAPS.
        epsilon: significance parameter (paper default 0.1); the CP
            prediction region keeps labels with p-value > epsilon.
        fraction, min_calibration, tau: adaptive-weighting parameters
            (paper defaults 0.5, 200, 500).
        gaussian_scale: the ``c`` of the confidence Gaussian.
        credibility_threshold: reject-side threshold on the p-value
            (default: epsilon).
        confidence_threshold: reject-side threshold on confidence.
        vote_threshold: committee acceptance fraction (0.5 = majority,
            ties reject).
    """

    # Flat calibration state behind compose-aware descriptors: a
    # streaming wrapper holds this state as per-shard segments
    # (core/segments.py) and installs a ``_compose_hook`` that
    # materializes the flat arrays on first read.  The evaluate kernels
    # never read them: they read ``current_bundle(self)``'s evaluation
    # view, which ``calibrate()`` seeds as a one-shard bundle.
    _features = ComposedStateAttr()
    _labels = ComposedStateAttr()
    _scores = ComposedStateAttr()
    _layouts = ComposedStateAttr()

    def __init__(
        self,
        functions=None,
        epsilon: float = 0.1,
        fraction: float = 0.5,
        min_calibration: int = 200,
        tau: float | None = None,
        gaussian_scale: float = 1.0,
        credibility_threshold: float | None = None,
        confidence_threshold: float = 0.9,
        vote_threshold: float = 0.5,
        weight_mode: str = "count",
        weighting: AdaptiveWeighting | None = None,
    ):
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
        self.functions = (
            list(functions)
            if functions is not None
            else default_classification_functions()
        )
        if not self.functions:
            raise ConfigurationError("need at least one nonconformity function")
        self.epsilon = epsilon
        self.gaussian_scale = gaussian_scale
        self.credibility_threshold = credibility_threshold
        self.confidence_threshold = confidence_threshold
        self.weight_mode = weight_mode
        self.weighting = weighting or AdaptiveWeighting(
            fraction=fraction, min_samples=min_calibration, tau=tau
        )
        self.committee = ExpertCommittee(vote_threshold=vote_threshold)

    # -- design time -----------------------------------------------------------
    def calibrate(self, features, probabilities, labels) -> "PromClassifier":
        """Precompute per-expert nonconformity scores on the calibration set.

        Args:
            features: ``(n, d)`` feature vectors from the model's
                feature-extraction function.
            probabilities: ``(n, n_classes)`` model probability vectors.
            labels: true label indices (column indices of
                ``probabilities``).
        """
        features, probabilities, labels = _check_calibration_inputs(
            features, probabilities, labels
        )
        labels = labels.astype(int)
        if probabilities.ndim != 2:
            raise CalibrationError("probabilities must be (n, n_classes)")
        if labels.max(initial=0) >= probabilities.shape[1]:
            raise CalibrationError("label index exceeds probability columns")
        self._features = features
        self._labels = labels
        self._n_classes = probabilities.shape[1]
        self.weighting.resolve_tau(features)
        self._scores = [
            function.score(probabilities, labels) for function in self.functions
        ]
        # Batch-engine layout: per expert, validated scores with label
        # bookkeeping so deployment p-values reduce to label-binned
        # scatter-adds (see DESIGN.md).
        self._layouts = [
            group_scores_by_label(scores, labels, self._n_classes)
            for scores in self._scores
        ]
        self._segment_bundle = SegmentBundle.from_arrays(
            {"_features": features, "_labels": labels},
            self._scores,
            [layout.group_counts for layout in self._layouts],
            "_labels",
            self._n_classes,
        )
        return self

    @property
    def is_calibrated(self) -> bool:
        # hook-free check: must not trigger lazy compose materialization
        return current_bundle(self) is not None

    @property
    def calibration_size(self) -> int:
        """Number of calibration samples backing the detector (0 before
        ``calibrate()``).  Counted from the current bundle, so asking
        never forces the flat materialization."""
        bundle = current_bundle(self)
        return 0 if bundle is None else len(bundle.fields["_features"])

    def _require_calibrated(self):
        if not self.is_calibrated:
            raise NotCalibratedError("call calibrate() before evaluating samples")

    def _check_evaluate_inputs(self, features, probabilities, predicted_labels):
        features = np.asarray(features, dtype=float)
        probabilities = np.asarray(probabilities, dtype=float)
        if features.ndim == 1:
            features = features.reshape(1, -1)
        if probabilities.ndim == 1:
            probabilities = probabilities.reshape(1, -1)
        if probabilities.shape[1] != self._n_classes:
            raise ValidationError(
                f"probability vector has {probabilities.shape[1]} entries, "
                f"calibration used {self._n_classes} classes"
            )
        if predicted_labels is None:
            predicted_labels = np.argmax(probabilities, axis=1)
        predicted_labels = np.asarray(predicted_labels, dtype=int).ravel()
        # the evaluate lanes slice every input by row: misaligned or
        # out-of-range inputs must fail here, not inside a lane
        _check_rows(features, probabilities=probabilities, predicted_labels=predicted_labels)
        if len(predicted_labels) and (
            predicted_labels.min() < 0 or predicted_labels.max() >= self._n_classes
        ):
            raise ValidationError(
                f"predicted labels must lie in [0, {self._n_classes}), got "
                f"{predicted_labels.min()}..{predicted_labels.max()}"
            )
        return features, probabilities, predicted_labels

    # -- deployment --------------------------------------------------------------
    def evaluate_one(self, feature, probability_row, predicted_label=None) -> Decision:
        """Assess one test sample; returns the committee :class:`Decision`.

        Thin compatibility wrapper over the batch engine: the sample is
        evaluated as a batch of one and the verdict materialized as a
        scalar :class:`Decision`.
        """
        predicted = None if predicted_label is None else [int(predicted_label)]
        batch = self.evaluate(
            np.asarray(feature, dtype=float).ravel().reshape(1, -1),
            np.asarray(probability_row, dtype=float).ravel().reshape(1, -1),
            predicted,
        )
        return batch[0]

    def evaluate(
        self, features, probabilities, predicted_labels=None, chunk_size=None
    ) -> DecisionBatch:
        """Assess a batch of test samples with the vectorized engine.

        Returns a :class:`DecisionBatch` — a sequence of per-sample
        :class:`Decision` objects backed by flat arrays.  The batch is
        processed in memory-bounded chunks: each chunk costs one chunked
        distance matrix, one p-value kernel per expert, and one
        committee vote, independent of the number of samples.

        The kernels read the current bundle's
        :class:`~repro.core.segments.EvaluationView`: on a large
        streaming store they iterate the per-shard blocks directly —
        bit-identical to the flat arrays, and the ``O(n)`` flat
        concatenation never happens (DESIGN.md §9).  A
        :class:`~repro.core.pruning.CandidatePruner` installed as
        ``_pruner`` additionally restricts each test sample to its
        router-affine candidate shards.  ``chunk_size=None`` falls back
        to the instance default ``_chunk_size`` (when set) before the
        automatic memory-bounded choice.
        """
        self._require_calibrated()
        features, probabilities, predicted_labels = self._check_evaluate_inputs(
            features, probabilities, predicted_labels
        )
        if chunk_size is None:
            chunk_size = getattr(self, "_chunk_size", None)
        view = current_bundle(self).evaluation_view()
        pruner = self.__dict__.get("_pruner")
        if pruner is not None:
            pruned = pruner.evaluate(
                self,
                view,
                features,
                (probabilities, predicted_labels),
                chunk_size,
                route_labels=predicted_labels,
            )
            if pruned is not None:
                return pruned
        return self._evaluate_rows(
            view, features, (probabilities, predicted_labels), chunk_size
        )

    def _evaluate_rows(self, state, features, payload, chunk_size) -> DecisionBatch:
        """Chunked committee evaluation against one evaluation state."""
        probabilities, predicted_labels = payload
        chunk = _evaluation_chunk(
            len(state.features), chunk_size, self._n_classes
        )
        lanes = [
            lane
            for start in range(0, len(features), chunk)
            for lane in self._evaluate_chunk(
                features[start : start + chunk],
                probabilities[start : start + chunk],
                predicted_labels[start : start + chunk],
                state,
            )
        ]
        return DecisionBatch.concatenate(
            lanes, expert_names=tuple(f.name for f in self.functions)
        )

    def _evaluate_chunk(self, features, probabilities, predicted_labels, state) -> list:
        """One chunk's committee decisions, one :class:`DecisionBatch` per lane."""

        def run_rows(rows, nearest, binning, workspace):
            return self.committee.decide_batch(
                assess_batch(
                    self._expert_pvalues(
                        function, layout, binning, probabilities[rows], workspace
                    ),
                    predicted_labels[rows],
                    epsilon=self.epsilon,
                    gaussian_scale=self.gaussian_scale,
                    credibility_threshold=self.credibility_threshold,
                    confidence_threshold=self.confidence_threshold,
                    function_name=function.name,
                )
                for function, layout in zip(self.functions, state.layouts)
            )

        return _fan_out(self, state, features, run_rows)

    def _expert_pvalues(self, function, layout, binning, probabilities, workspace):
        return pvalues_from_binning(
            layout,
            binning,
            function.score_all_labels(probabilities),
            weight_mode=self.weight_mode,
            tail=function.tail,
            out=workspace,
        )

    def evaluate_serial(self, features, probabilities, predicted_labels=None) -> list:
        """Per-sample reference implementation (pre-batch engine).

        Kept for the batch-vs-serial equivalence tests and throughput
        benchmarks; production callers should use :meth:`evaluate`.
        """
        self._require_calibrated()
        features, probabilities, predicted_labels = self._check_evaluate_inputs(
            features, probabilities, predicted_labels
        )
        return [
            self._evaluate_one_serial(
                features[i], probabilities[i], int(predicted_labels[i])
            )
            for i in range(len(features))
        ]

    def _evaluate_one_serial(self, feature, probability_row, predicted_label) -> Decision:
        subset = self.weighting.select(self._features, np.asarray(feature, dtype=float))
        assessments = []
        for function, calibration_scores in zip(self.functions, self._scores):
            test_scores = function.score_all_labels(probability_row.reshape(1, -1))[0]
            pvalues = pvalues_all_labels(
                calibration_scores,
                self._labels,
                subset,
                test_scores,
                self._n_classes,
                weight_mode=self.weight_mode,
                tail=function.tail,
            )
            assessments.append(
                assess(
                    pvalues,
                    predicted_label,
                    epsilon=self.epsilon,
                    gaussian_scale=self.gaussian_scale,
                    credibility_threshold=self.credibility_threshold,
                    confidence_threshold=self.confidence_threshold,
                    function_name=function.name,
                )
            )
        return self.committee.decide(assessments)

    def prediction_region(self, feature, probability_row) -> np.ndarray:
        """Return the committee prediction region for one sample.

        A label is in the region when a majority of experts include it
        in their CP prediction set at level epsilon.  Used by the
        initialization assessment's coverage computation.
        """
        membership = self.prediction_region_batch(
            np.asarray(feature, dtype=float).ravel().reshape(1, -1),
            np.asarray(probability_row, dtype=float).ravel().reshape(1, -1),
        )
        return np.flatnonzero(membership[0])

    def prediction_region_batch(
        self, features, probabilities, chunk_size=None
    ) -> np.ndarray:
        """Return ``(n_test, n_classes)`` region-membership for a batch.

        ``membership[i, y]`` is True when a majority of experts include
        label ``y`` in their CP prediction set for sample ``i``.
        """
        self._require_calibrated()
        features, probabilities, _ = self._check_evaluate_inputs(
            features, probabilities, None
        )
        state = current_bundle(self).evaluation_view()
        chunk = _evaluation_chunk(
            len(state.features), chunk_size, self._n_classes
        )
        membership = np.empty((len(features), self._n_classes), dtype=bool)
        for start in range(0, len(features), chunk):
            stop = min(len(features), start + chunk)
            chunk_probabilities = probabilities[start:stop]

            def run_rows(rows, nearest, binning, workspace):
                inclusion_votes = np.zeros((len(binning.indices), self._n_classes))
                for function, layout in zip(self.functions, state.layouts):
                    pvalues = self._expert_pvalues(
                        function, layout, binning, chunk_probabilities[rows], workspace
                    )
                    inclusion_votes += (pvalues > self.epsilon).astype(float)
                return inclusion_votes > 0.5 * len(self.functions)

            membership[start:stop] = np.concatenate(
                _fan_out(self, state, features[start:stop], run_rows)
            )
        return membership


class PromRegressor:
    """Drift detector for regression models (paper Sec. 5.1.1/5.1.2).

    Ground truth is unavailable at deployment, so the test residual is
    approximated against the k-NN average of calibration targets
    (k=3 by default).  Classification-style p-values operate over
    K-means cluster pseudo-labels of the calibration features, with K
    chosen by the Gap statistic unless fixed.

    ``calibration_residuals`` controls how the *calibration* scores are
    computed: ``"loo"`` (default) approximates each calibration
    sample's target with leave-one-out k-NN, exactly mirroring how the
    test score is built, which keeps calibration and test scores
    exchangeable even when the underlying model is very accurate;
    ``"true"`` uses the known calibration ground truth (the paper's
    literal formulation).
    """

    # compose-aware state descriptors — see PromClassifier
    _features = ComposedStateAttr()
    _targets = ComposedStateAttr()
    _clusters = ComposedStateAttr()
    _scores = ComposedStateAttr()
    _layouts = ComposedStateAttr()

    def __init__(
        self,
        score_functions=None,
        epsilon: float = 0.1,
        k_neighbors: int = 3,
        n_clusters: int | None = None,
        fraction: float = 0.5,
        min_calibration: int = 200,
        tau: float | None = None,
        gaussian_scale: float = 1.0,
        credibility_threshold: float | None = None,
        confidence_threshold: float = 0.9,
        vote_threshold: float = 0.5,
        weight_mode: str = "count",
        calibration_residuals: str = "loo",
        seed: int = 0,
        weighting: AdaptiveWeighting | None = None,
    ):
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
        if k_neighbors < 1:
            raise ConfigurationError("k_neighbors must be >= 1")
        if calibration_residuals not in ("loo", "true"):
            raise ConfigurationError(
                f"calibration_residuals must be 'loo' or 'true', "
                f"got {calibration_residuals!r}"
            )
        self.score_functions = (
            list(score_functions)
            if score_functions is not None
            else default_regression_scores()
        )
        if not self.score_functions:
            raise ConfigurationError("need at least one regression score function")
        self.epsilon = epsilon
        self.k_neighbors = k_neighbors
        self.n_clusters = n_clusters
        self.gaussian_scale = gaussian_scale
        self.credibility_threshold = credibility_threshold
        self.confidence_threshold = confidence_threshold
        self.weight_mode = weight_mode
        self.calibration_residuals = calibration_residuals
        self.seed = seed
        self.weighting = weighting or AdaptiveWeighting(
            fraction=fraction, min_samples=min_calibration, tau=tau
        )
        self.committee = ExpertCommittee(vote_threshold=vote_threshold)

    # -- design time -----------------------------------------------------------
    def calibrate(self, features, predictions, targets) -> "PromRegressor":
        """Precompute residual scores and cluster pseudo-labels offline."""
        features, predictions, targets = _check_calibration_inputs(
            features, predictions, targets
        )
        predictions = predictions.astype(float).ravel()
        targets = np.asarray(targets, dtype=float).ravel()
        self._features = features
        self._targets = targets
        self.weighting.resolve_tau(features)
        if self.calibration_residuals == "loo":
            reference = self._loo_targets(features, targets)
        else:
            reference = targets
        self._scores = [
            function.score(predictions, reference) for function in self.score_functions
        ]
        self.clusterer_ = CalibrationClusterer(
            n_clusters=self.n_clusters, seed=self.seed
        ).fit(features)
        self._clusters = self.clusterer_.labels_
        self._layouts = [
            group_scores_by_label(scores, self._clusters, self.clusterer_.k_)
            for scores in self._scores
        ]
        self._segment_bundle = SegmentBundle.from_arrays(
            {"_features": features, "_targets": targets, "_clusters": self._clusters},
            self._scores,
            [layout.group_counts for layout in self._layouts],
            "_clusters",
            self.clusterer_.k_,
        )
        return self

    @property
    def is_calibrated(self) -> bool:
        # hook-free check: must not trigger lazy compose materialization
        return current_bundle(self) is not None

    @property
    def calibration_size(self) -> int:
        """Number of calibration samples backing the detector (0 before
        ``calibrate()``).  Counted from the current bundle, so asking
        never forces the flat materialization."""
        bundle = current_bundle(self)
        return 0 if bundle is None else len(bundle.fields["_features"])

    def _require_calibrated(self):
        if not self.is_calibrated:
            raise NotCalibratedError("call calibrate() before evaluating samples")

    def _check_evaluate_inputs(self, features, predictions):
        features = np.asarray(features, dtype=float)
        predictions = np.asarray(predictions, dtype=float).ravel()
        if features.ndim == 1:
            features = features.reshape(1, -1)
        _check_rows(features, predictions=predictions)
        return features, predictions

    def _loo_targets(self, features: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Leave-one-out k-NN approximation of each calibration target."""
        n = len(features)
        k = min(self.k_neighbors, max(1, n - 1))
        squared = squared_distance_matrix(features)
        np.fill_diagonal(squared, np.inf)
        nearest = np.argpartition(squared, k - 1, axis=1)[:, :k]
        return targets[nearest].mean(axis=1)

    def approximate_target(self, feature) -> float:
        """k-NN estimate of the unseen ground truth for one test sample."""
        self._require_calibrated()
        feature = np.asarray(feature, dtype=float).ravel()
        distances = np.sqrt(np.sum((self._features - feature) ** 2, axis=1))
        k = min(self.k_neighbors, len(distances))
        nearest = np.argpartition(distances, k - 1)[:k]
        return float(self._targets[nearest].mean())

    def approximate_target_batch(self, features, chunk_size=None) -> np.ndarray:
        """k-NN ground-truth estimates for a batch of test samples.

        The test-vs-calibration distance matrix is built in
        memory-bounded chunks; each chunk needs one ``argpartition``
        and one gather-mean, read off the current bundle's evaluation
        view (segment-direct on a large streaming store: bit-identical,
        no flat concat).
        """
        self._require_calibrated()
        features = np.asarray(features, dtype=float)
        if features.ndim == 1:
            features = features.reshape(1, -1)
        view = current_bundle(self).evaluation_view()
        return self._approximate_targets(features, view, chunk_size)

    def _approximate_targets(self, features, state, chunk_size=None) -> np.ndarray:
        """k-NN target estimates against one evaluation state."""
        k = min(self.k_neighbors, len(state.features))
        approximations = np.empty(len(features))
        for start, stop, block in iter_squared_distance_chunks(
            features, state.features, chunk_size
        ):
            nearest = np.argpartition(block, k - 1, axis=1)[:, :k]
            approximations[start:stop] = state.targets[nearest].mean(axis=1)
        return approximations

    # -- deployment --------------------------------------------------------------
    def evaluate_one(self, feature, prediction: float) -> Decision:
        """Assess one regression prediction; returns the committee Decision.

        Thin compatibility wrapper over the batch engine (a batch of
        one), mirroring :meth:`PromClassifier.evaluate_one`.
        """
        batch = self.evaluate(
            np.asarray(feature, dtype=float).ravel().reshape(1, -1),
            np.asarray([prediction], dtype=float),
        )
        return batch[0]

    def evaluate(self, features, predictions, chunk_size=None) -> DecisionBatch:
        """Assess a batch of regression predictions with the batch engine.

        Mirrors :meth:`PromClassifier.evaluate`, including the
        evaluation view of the current bundle, the optional ``_pruner``
        shard restriction, and the ``_chunk_size`` default.
        """
        self._require_calibrated()
        features, predictions = self._check_evaluate_inputs(features, predictions)
        if chunk_size is None:
            chunk_size = getattr(self, "_chunk_size", None)
        view = current_bundle(self).evaluation_view()
        pruner = self.__dict__.get("_pruner")
        if pruner is not None:
            pruned = pruner.evaluate(
                self, view, features, (predictions,), chunk_size
            )
            if pruned is not None:
                return pruned
        return self._evaluate_rows(view, features, (predictions,), chunk_size)

    def _evaluate_rows(self, state, features, payload, chunk_size) -> DecisionBatch:
        """Chunked committee evaluation against one evaluation state."""
        (predictions,) = payload
        chunk = _evaluation_chunk(
            len(state.features), chunk_size, self.clusterer_.k_
        )
        lanes = [
            lane
            for start in range(0, len(features), chunk)
            for lane in self._evaluate_chunk(
                features[start : start + chunk],
                predictions[start : start + chunk],
                state,
            )
        ]
        return DecisionBatch.concatenate(
            lanes, expert_names=tuple(f.name for f in self.score_functions)
        )

    def _evaluate_chunk(self, features, predictions, state) -> list:
        """One chunk's committee decisions, one :class:`DecisionBatch` per lane.

        Each lane takes its k-NN target estimates from the distance rows
        its selection just finished: the same GEMM
        :meth:`approximate_target_batch` issues, so the same bits.
        """
        k = min(self.k_neighbors, len(state.features))
        n_clusters = self.clusterer_.k_
        assigned_clusters = np.asarray(
            self.clusterer_.assign(features), dtype=int
        )

        def run_rows(rows, nearest, binning, workspace):
            approx_targets = state.targets[nearest].mean(axis=1)
            experts = []
            for function, layout in zip(self.score_functions, state.layouts):
                test_scores = function.score(predictions[rows], approx_targets)
                # The same residual score stands in for every candidate
                # cluster (the scalar path's np.full, batched).
                test_matrix = np.repeat(
                    np.asarray(test_scores, dtype=float)[:, None], n_clusters, axis=1
                )
                pvalues = pvalues_from_binning(
                    layout,
                    binning,
                    test_matrix,
                    weight_mode=self.weight_mode,
                    out=workspace,
                )
                experts.append(
                    assess_batch(
                        pvalues,
                        assigned_clusters[rows],
                        epsilon=self.epsilon,
                        gaussian_scale=self.gaussian_scale,
                        credibility_threshold=self.credibility_threshold,
                        confidence_threshold=self.confidence_threshold,
                        function_name=function.name,
                    )
                )
            return self.committee.decide_batch(experts)

        return _fan_out(self, state, features, run_rows, n_nearest=k)

    def evaluate_serial(self, features, predictions) -> list:
        """Per-sample reference implementation (pre-batch engine).

        Kept for the batch-vs-serial equivalence tests and throughput
        benchmarks; production callers should use :meth:`evaluate`.
        """
        self._require_calibrated()
        features, predictions = self._check_evaluate_inputs(features, predictions)
        return [
            self._evaluate_one_serial(features[i], float(predictions[i]))
            for i in range(len(features))
        ]

    def _evaluate_one_serial(self, feature, prediction: float) -> Decision:
        feature = np.asarray(feature, dtype=float).ravel()
        approx_target = self.approximate_target(feature)
        subset = self.weighting.select(self._features, feature)
        assigned_cluster = int(self.clusterer_.assign(feature.reshape(1, -1))[0])
        n_clusters = self.clusterer_.k_

        assessments = []
        for function, calibration_scores in zip(self.score_functions, self._scores):
            test_score = float(
                function.score(
                    np.asarray([prediction], dtype=float),
                    np.asarray([approx_target], dtype=float),
                )[0]
            )
            pvalues = pvalues_all_labels(
                calibration_scores,
                self._clusters,
                subset,
                np.full(n_clusters, test_score),
                n_clusters,
                weight_mode=self.weight_mode,
            )
            assessments.append(
                assess(
                    pvalues,
                    assigned_cluster,
                    epsilon=self.epsilon,
                    gaussian_scale=self.gaussian_scale,
                    credibility_threshold=self.credibility_threshold,
                    confidence_threshold=self.confidence_threshold,
                    function_name=function.name,
                )
            )
        return self.committee.decide(assessments)


def drifting_indices(decisions) -> np.ndarray:
    """Return the positions of decisions flagged as drifting."""
    if isinstance(decisions, DecisionBatch):
        return np.flatnonzero(decisions.drifting)
    return np.flatnonzero([decision.drifting for decision in decisions])


def accepted_indices(decisions) -> np.ndarray:
    """Return the positions of decisions the committee accepted."""
    if isinstance(decisions, DecisionBatch):
        return np.flatnonzero(np.asarray(decisions.accepted, dtype=bool))
    return np.flatnonzero([decision.accepted for decision in decisions])
