"""Conformal p-value computation (paper Eq. 2).

The p-value of a test sample for candidate label ``y`` compares the
test sample's nonconformity against the (selected, distance-weighted)
calibration samples with true label ``y``.  Two weighting modes are
provided:

* ``"count"`` (default) — weighted counting: each calibration sample
  contributes its distance weight to the vote,
  ``p = (sum of w_i where a_i >= a_test) / (sum of w_i + 1)``.
  This realizes the paper's intent ("giving higher weight to closer
  samples") with a weighted-conformal formulation that is robust for
  discrete scores such as Top-K.  The ``+1`` in the denominator is the
  test sample's own weight (``exp(0) = 1``); a test sample far from
  every calibration sample drives all ``w_i`` to zero and hence its
  p-value to zero — exactly the "alien input" signal Prom uses for
  drift detection.
* ``"multiply"`` — the paper's literal Eq. 2: adjust
  ``a_i' = w_i * a_i`` and count unweighted against the ``n + 1``
  denominator (the test sample counts itself).  With the paper's
  ``tau = 500`` and small feature distances the two coincide; for
  large distances or discrete scores the multiplicative form deflates
  calibration scores and over-rejects, which is why counting is the
  default here (see DESIGN.md).

Two implementations are provided: the scalar reference
(:func:`classification_pvalue` / :func:`pvalues_all_labels`, one test
sample at a time) and the batch engine
(:func:`group_scores_by_label` + :func:`pvalues_all_labels_batch`),
which evaluates all labels of all test samples with label-binned
weighted scatter-adds over a per-label-grouped calibration layout — see
DESIGN.md for the data layout and complexity bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import as_block_column
from .weighting import CalibrationSubset, CalibrationSubsetBatch
from .exceptions import ConfigurationError, ValidationError

WEIGHT_MODES = ("count", "multiply")


def classification_pvalue(
    calibration_scores: np.ndarray,
    calibration_labels: np.ndarray,
    subset: CalibrationSubset,
    test_score: float,
    label: int,
    weight_mode: str = "count",
    tail: str = "right",
) -> float:
    """Return the weighted conformal p-value of ``label`` for one sample.

    Args:
        calibration_scores: per-calibration-sample nonconformity scores
            evaluated at each sample's *true* label (full array).
        calibration_labels: true label index of each calibration sample.
        subset: the adaptive selection/weights for this test sample.
        test_score: the test sample's nonconformity at ``label``.
        label: candidate label index.
        weight_mode: ``"count"`` or ``"multiply"`` (see module docs).
        tail: ``"right"`` — only larger calibration scores count as
            conforming evidence; ``"both"`` — two-sided p-value,
            ``min(1, 2 * min(p_right, p_left))``, for score functions
            whose strangeness shows in either tail (APS/RAPS).

    Returns:
        p-value in ``[0, 1]``; ``0.0`` when no selected calibration
        sample carries ``label`` (maximal strangeness — the label was
        never observed nearby).
    """
    if weight_mode not in WEIGHT_MODES:
        raise ConfigurationError(f"weight_mode must be one of {WEIGHT_MODES}, got {weight_mode!r}")
    if tail not in ("right", "both"):
        raise ConfigurationError(f"tail must be 'right' or 'both', got {tail!r}")
    selected_labels = np.asarray(calibration_labels)[subset.indices]
    mask = selected_labels == label
    if not mask.any():
        return 0.0
    scores = np.asarray(calibration_scores, dtype=float)[subset.indices][mask]
    weights = subset.weights[mask]
    if weight_mode == "count":
        right = float(np.sum(weights[scores >= test_score]))
        left = float(np.sum(weights[scores <= test_score]))
        denominator = float(np.sum(weights)) + 1.0
    else:
        adjusted = weights * scores
        right = float(np.sum(adjusted >= test_score))
        left = float(np.sum(adjusted <= test_score))
        # Eq. 2 counts the test sample itself in the denominator (n + 1).
        denominator = float(mask.sum()) + 1.0
    if tail == "right":
        numerator = right
    else:
        numerator = 2.0 * min(right, left)
    return min(1.0, numerator / denominator)


def pvalues_all_labels(
    calibration_scores: np.ndarray,
    calibration_labels: np.ndarray,
    subset: CalibrationSubset,
    test_scores_per_label: np.ndarray,
    n_classes: int,
    weight_mode: str = "count",
    tail: str = "right",
) -> np.ndarray:
    """Return the p-value of every candidate label for one test sample.

    ``test_scores_per_label`` holds the test sample's nonconformity at
    each of the ``n_classes`` candidate labels.
    """
    return np.asarray(
        [
            classification_pvalue(
                calibration_scores,
                calibration_labels,
                subset,
                float(test_scores_per_label[label]),
                label,
                weight_mode=weight_mode,
                tail=tail,
            )
            for label in range(n_classes)
        ]
    )


@dataclass(frozen=True)
class LabelGroupedScores:
    """Calibration scores pre-grouped by label for the batch engine.

    Built once per expert at ``calibrate()`` time.  The batch p-value
    kernel consumes the original-order ``scores``/``labels`` pair with
    one label-binned scatter-add per tail; ``group_counts`` records how
    many calibration samples each label group holds (zero for labels
    never observed, whose p-values are exactly 0).  See DESIGN.md for
    the kernel design and the alternatives that were measured.

    Attributes:
        scores: per-calibration-sample nonconformity scores (original
            calibration order).
        labels: true label index of each calibration sample, validated
            against ``n_labels``.
        group_counts: ``(n_labels,)`` calibration samples per label.
        n_labels: number of candidate labels.
    """

    scores: np.ndarray
    labels: np.ndarray
    group_counts: np.ndarray
    n_labels: int


def group_scores_by_label(
    calibration_scores: np.ndarray,
    calibration_labels: np.ndarray,
    n_labels: int,
) -> LabelGroupedScores:
    """Return the :class:`LabelGroupedScores` layout for one expert."""
    scores = np.asarray(calibration_scores, dtype=float).ravel()
    labels = np.asarray(calibration_labels, dtype=int).ravel()
    if scores.shape != labels.shape:
        raise ValidationError("calibration scores and labels must align")
    if len(labels) and (labels.min() < 0 or labels.max() >= n_labels):
        raise ValidationError("calibration label index out of range")
    return LabelGroupedScores(
        scores=scores,
        labels=labels,
        group_counts=np.bincount(labels, minlength=n_labels),
        n_labels=n_labels,
    )


def update_label_groups(
    layout: LabelGroupedScores,
    keep_mask: np.ndarray,
    new_scores: np.ndarray,
    new_labels: np.ndarray,
    order: np.ndarray | None = None,
) -> LabelGroupedScores:
    """Incremental counterpart of :func:`group_scores_by_label`.

    Carries one expert's layout across a calibration-store mutation:
    the combined layout is the existing calibration rows followed by
    the ``new`` batch, and ``keep_mask`` marks the survivors (see
    :class:`~repro.core.calibration_store.StoreUpdate`).  ``order``
    (``StoreUpdate.order``) gathers the survivors into the store's new
    exposed order — required for slot-reuse evictions, which permute
    survivors; when omitted the historical arrival-ordered
    ``keep_mask`` gather applies.  Group counts are adjusted
    arithmetically from the added and evicted labels — ``O(batch +
    n_labels)`` bookkeeping on top of the ``O(n)`` survivor copy — and
    the result is exactly what :func:`group_scores_by_label` would
    build from the surviving scores and labels in store order.
    """
    new_scores = np.asarray(new_scores, dtype=float).ravel()
    new_labels = np.asarray(new_labels, dtype=int).ravel()
    if new_scores.shape != new_labels.shape:
        raise ValidationError("new scores and labels must align")
    if len(new_labels) and (
        new_labels.min() < 0 or new_labels.max() >= layout.n_labels
    ):
        raise ValidationError("new calibration label index out of range")
    keep_mask = np.asarray(keep_mask, dtype=bool)
    if len(keep_mask) != len(layout.labels) + len(new_labels):
        raise ValidationError(
            f"keep_mask covers {len(keep_mask)} rows, combined layout has "
            f"{len(layout.labels) + len(new_labels)}"
        )
    gather = np.flatnonzero(keep_mask) if order is None else np.asarray(order)
    combined_labels = np.concatenate([layout.labels, new_labels])
    group_counts = (
        layout.group_counts
        + np.bincount(new_labels, minlength=layout.n_labels)
        - np.bincount(combined_labels[~keep_mask], minlength=layout.n_labels)
    )
    return LabelGroupedScores(
        scores=np.concatenate([layout.scores, new_scores])[gather],
        labels=combined_labels[gather],
        group_counts=group_counts,
        n_labels=layout.n_labels,
    )


def merge_group_counts(layouts, n_labels: int) -> np.ndarray:
    """Integer-exact global group counts from per-segment layouts.

    The compose half of the segment-aware streaming runtime
    (:mod:`repro.core.segments`): segment counts are non-negative
    integers, so their sum is exact and the composed counts equal what
    :func:`group_scores_by_label` would compute on the concatenated
    scores and labels — no floating-point drift, no ``O(n)`` rescan.

    Args:
        layouts: per-segment :class:`LabelGroupedScores`, all built for
            the same label space.
        n_labels: number of candidate labels.

    Returns:
        ``(n_labels,)`` summed group counts.

    Raises:
        ValueError: when a layout's label space disagrees with
            ``n_labels``.
    """
    counts = np.zeros(n_labels, dtype=np.int64)
    for layout in layouts:
        if layout.n_labels != n_labels:
            raise ValidationError(
                f"cannot merge a layout over {layout.n_labels} labels "
                f"into a {n_labels}-label composition"
            )
        counts = counts + layout.group_counts
    return counts


def _label_binned_sums(flat_bins, values, n_test, n_labels) -> np.ndarray:
    """Per-(test sample, label) sums via one scatter-add (bincount)."""
    return np.bincount(
        flat_bins, weights=values.ravel(), minlength=n_test * n_labels
    ).reshape(n_test, n_labels)


@dataclass(frozen=True)
class SubsetBinning:
    """Expert-independent bookkeeping for one evaluation batch.

    Every expert of a committee shares the same calibration selection,
    distance weights and true labels; only the score values differ.
    This structure is computed once per batch and reused across experts:
    the flattened (test sample, label) bin index of every selected
    calibration sample and the denominator of the batch's weight mode.

    Attributes:
        indices / weights: the selection, as in
            :class:`~repro.core.weighting.CalibrationSubsetBatch`.
        flat_bins: flattened scatter-add target bin of each selected
            sample (``row * n_labels + label``), row-major over
            ``indices``.
        weight_sums: ``(n_test, n_labels)`` sum of selected weights per
            bin — the ``"count"``-mode denominator before its ``+1``.
        counts: ``(n_test, n_labels)`` selected samples per bin — the
            ``"multiply"``-mode denominator before its ``+1``; ``None``
            when the binning was built for ``"count"``.
        n_labels: number of candidate labels.
    """

    indices: np.ndarray
    weights: np.ndarray
    flat_bins: np.ndarray
    weight_sums: np.ndarray
    counts: np.ndarray | None
    n_labels: int


def bin_subset_by_label(
    subset_batch: CalibrationSubsetBatch,
    calibration_labels: np.ndarray,
    n_labels: int,
    weight_mode: str = "count",
) -> SubsetBinning:
    """Build the shared :class:`SubsetBinning` for one evaluation batch.

    ``calibration_labels`` may be a
    :class:`~repro.core.blocks.BlockColumn` of per-shard label blocks;
    the selection gather then reads its gather base (a gather is exact,
    so the binning is bit-identical to the flat path).  ``counts`` is
    built only for ``weight_mode="multiply"``, the one mode that reads
    it.
    """
    if weight_mode not in WEIGHT_MODES:
        raise ConfigurationError(f"weight_mode must be one of {WEIGHT_MODES}, got {weight_mode!r}")
    indices = np.asarray(subset_batch.indices)
    weights = np.asarray(subset_batch.weights)
    labels = as_block_column(calibration_labels, dtype=int).gather_base()
    n_test = len(indices)
    # the selected labels become the bins in place: row offsets are
    # added to the gathered labels, never to a second (n_test, k) copy
    flat_bins = np.take(labels, indices.reshape(-1)).astype(int, copy=False)
    bins = flat_bins.reshape(indices.shape)
    bins += (np.arange(n_test) * n_labels)[:, None]
    return SubsetBinning(
        indices=indices,
        weights=weights,
        flat_bins=flat_bins,
        weight_sums=_label_binned_sums(flat_bins, weights, n_test, n_labels),
        counts=(
            np.bincount(flat_bins, minlength=n_test * n_labels)
            .reshape(n_test, n_labels)
            .astype(float)
            if weight_mode == "multiply"
            else None
        ),
        n_labels=n_labels,
    )


def pvalue_workspace(binning: SubsetBinning) -> tuple:
    """Scratch buffers for one :func:`pvalues_from_binning` call at a time.

    ``(values, thresholds, masks)``: two float vectors and a ``(2,
    n_test * k)`` boolean matrix, every cell overwritten by each call,
    so one workspace serves any number of experts in turn (never two at
    once).  The committee fan-out allocates them in the submitting
    thread — see DESIGN.md §2 for the per-thread-arena reason.
    """
    size = binning.flat_bins.size
    return np.empty(size), np.empty(size), np.empty((2, size), dtype=bool)


def pvalues_from_binning(
    layout: LabelGroupedScores,
    binning: SubsetBinning,
    test_scores: np.ndarray,
    weight_mode: str = "count",
    tail: str = "right",
    out: tuple | None = None,
) -> np.ndarray:
    """One expert's ``(n_test, n_labels)`` p-values from shared binning.

    The hot path of the batch engine: gathers the expert's calibration
    scores at the selected positions, compares them against each
    sample's candidate-label threshold in one elementwise pass, and
    reduces the weighted tail sums with one label-binned scatter-add
    per tail.  Everything is ``O(n_test * k)`` time and memory — never
    the dense ``n_test * n_labels * k`` of per-label boolean masks.

    Both gathers are flat ``np.take`` calls: the thresholds read the
    raveled test scores at the already-built bins, the scores read the
    column's gather base (``layout.scores`` may be a
    :class:`~repro.core.blocks.BlockColumn`, the segment-direct
    evaluation view).  Masks and weighted products are written into
    ``out`` — a :func:`pvalue_workspace` — with the score buffer reused
    as the product buffer; ``out=None`` allocates a fresh workspace.
    The result is bit-identical to the fancy-indexing formulation.
    """
    if weight_mode not in WEIGHT_MODES:
        raise ConfigurationError(f"weight_mode must be one of {WEIGHT_MODES}, got {weight_mode!r}")
    if tail not in ("right", "both"):
        raise ConfigurationError(f"tail must be 'right' or 'both', got {tail!r}")
    if weight_mode == "multiply" and binning.counts is None:
        raise ConfigurationError("binning was built without multiply-mode counts")
    test_scores = np.asarray(test_scores, dtype=float)
    n_labels = layout.n_labels
    if test_scores.ndim != 2 or test_scores.shape[1] != n_labels:
        raise ValidationError(
            f"test_scores must be (n_test, {n_labels}), got {test_scores.shape}"
        )
    n_test = test_scores.shape[0]
    values, thresholds, masks = pvalue_workspace(binning) if out is None else out
    weights = binning.weights.reshape(-1)
    # mode="wrap": with out= the default "raise" gathers into a hidden
    # temporary first; selection indices and bins are in range anyway
    np.take(
        as_block_column(layout.scores).gather_base(),
        binning.indices.reshape(-1),
        out=values,
        mode="wrap",
    )
    # Each selected sample competes for its own true label: its
    # comparison threshold is the test sample's score at that label.
    np.take(test_scores.reshape(-1), binning.flat_bins, out=thresholds, mode="wrap")
    if weight_mode == "multiply":
        np.multiply(weights, values, out=values)
    np.greater_equal(values, thresholds, out=masks[0])
    if tail == "both":
        np.less_equal(values, thresholds, out=masks[1])
    tails = []
    for mask in masks[: 2 if tail == "both" else 1]:
        if weight_mode == "count":
            np.multiply(weights, mask, out=values)
        else:
            np.copyto(values, mask)
        tails.append(_label_binned_sums(binning.flat_bins, values, n_test, n_labels))
    numerators = tails[0] if tail == "right" else 2.0 * np.minimum(*tails)
    denominators = binning.weight_sums if weight_mode == "count" else binning.counts
    return np.minimum(1.0, numerators / (denominators + 1.0))


def pvalues_all_labels_batch(
    layout: LabelGroupedScores,
    subset_batch: CalibrationSubsetBatch,
    test_scores: np.ndarray,
    weight_mode: str = "count",
    tail: str = "right",
) -> np.ndarray:
    """Return the ``(n_test, n_labels)`` p-value matrix for a batch.

    Vectorized equivalent of calling :func:`pvalues_all_labels` per
    test sample.  Convenience wrapper over :func:`bin_subset_by_label`
    + :func:`pvalues_from_binning`; committee evaluation builds the
    binning once and shares it across experts instead.

    ``test_scores`` holds each test sample's nonconformity at every
    candidate label, shape ``(n_test, n_labels)``.
    """
    binning = bin_subset_by_label(
        subset_batch, layout.labels, layout.n_labels, weight_mode=weight_mode
    )
    return pvalues_from_binning(
        layout, binning, test_scores, weight_mode=weight_mode, tail=tail
    )


def regression_pvalue(
    calibration_scores: np.ndarray,
    calibration_clusters: np.ndarray,
    subset: CalibrationSubset,
    test_score: float,
    cluster: int,
    weight_mode: str = "count",
) -> float:
    """Regression p-value: identical machinery over cluster pseudo-labels.

    Calibration scores are residual-based nonconformity values; the
    cluster assignment (K-means over calibration features, paper
    Sec. 5.1.2) plays the role of the class label.
    """
    return classification_pvalue(
        calibration_scores,
        calibration_clusters,
        subset,
        test_score,
        cluster,
        weight_mode=weight_mode,
    )
