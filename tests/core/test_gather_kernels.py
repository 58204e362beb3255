"""Legacy-kernel oracle for the flat-gather p-value and selection kernels.

The batch engine's binning, p-value and selection kernels gather with
flat ``np.take`` calls into preallocated buffers instead of NumPy fancy
indexing.  A gather moves bytes without arithmetic, so the rewrite must
be **bitwise** identical, not merely close: verbatim copies of the
fancy-indexing kernels live here as the oracle, and every result of the
new kernels is compared with ``array_equal`` over both weight modes,
both tails, flat and segmented (1-block and 16-block) columns, partial
and full selections, and discrete scores full of ties, so that the
``>=`` and ``<=`` boundaries are both exercised.
"""

import numpy as np
import pytest

from repro.core import (
    AdaptiveWeighting,
    BlockColumn,
    CalibrationSubsetBatch,
    ConfigurationError,
    LabelGroupedScores,
    bin_subset_by_label,
    group_scores_by_label,
    pvalues_from_binning,
)
from repro.core.pvalue import _label_binned_sums, pvalue_workspace
from repro.core.weighting import iter_squared_distance_chunks


# -- oracle: verbatim copies of the fancy-indexing kernels ---------------------------


def _legacy_bin_subset_by_label(subset_batch, calibration_labels, n_labels):
    indices = np.asarray(subset_batch.indices)
    weights = np.asarray(subset_batch.weights)
    if isinstance(calibration_labels, BlockColumn):
        selected_labels = np.asarray(calibration_labels[indices], dtype=int)
    else:
        selected_labels = np.asarray(calibration_labels, dtype=int)[indices]
    n_test = len(indices)
    rows = np.arange(n_test)[:, None]
    flat_bins = (rows * n_labels + selected_labels).ravel()
    return dict(
        indices=indices,
        weights=weights,
        selected_labels=selected_labels,
        flat_bins=flat_bins,
        weight_sums=_label_binned_sums(flat_bins, weights, n_test, n_labels),
        counts=np.bincount(flat_bins, minlength=n_test * n_labels)
        .reshape(n_test, n_labels)
        .astype(float),
        n_labels=n_labels,
    )


def _legacy_pvalues_from_binning(
    layout, binning, test_scores, weight_mode="count", tail="right"
):
    test_scores = np.asarray(test_scores, dtype=float)
    n_labels = layout.n_labels
    n_test = test_scores.shape[0]
    selected_scores = layout.scores[binning["indices"]]
    rows = np.arange(n_test)[:, None]
    thresholds = test_scores[rows, binning["selected_labels"]]

    if weight_mode == "count":
        compared = selected_scores >= thresholds
        compared = binning["weights"] * compared
        right = _label_binned_sums(binning["flat_bins"], compared, n_test, n_labels)
        if tail == "both":
            compared_left = binning["weights"] * (selected_scores <= thresholds)
            left = _label_binned_sums(
                binning["flat_bins"], compared_left, n_test, n_labels
            )
            numerators = 2.0 * np.minimum(right, left)
        else:
            numerators = right
        denominators = binning["weight_sums"]
    else:
        adjusted = binning["weights"] * selected_scores
        right = _label_binned_sums(
            binning["flat_bins"],
            (adjusted >= thresholds).astype(float),
            n_test,
            n_labels,
        )
        if tail == "both":
            left = _label_binned_sums(
                binning["flat_bins"],
                (adjusted <= thresholds).astype(float),
                n_test,
                n_labels,
            )
            numerators = 2.0 * np.minimum(right, left)
        else:
            numerators = right
        denominators = binning["counts"]
    return np.minimum(1.0, numerators / (denominators + 1.0))


def _legacy_select_batch(weighting, features, test, chunk_size=None):
    """``AdaptiveWeighting.select_batch`` with the fancy-index gather."""
    n = len(features)
    n_test = len(test)
    keep = n if n < weighting.min_samples else max(1, int(round(n * weighting.fraction)))
    tau = weighting.effective_tau
    indices = np.empty((n_test, keep), dtype=int)
    squared = np.empty((n_test, keep))
    for start, stop, block in iter_squared_distance_chunks(test, features, chunk_size):
        rows = np.arange(stop - start)[:, None]
        if keep == n:
            block_indices = np.broadcast_to(np.arange(n), block.shape)
            block_squared = block
        else:
            block_indices = np.argpartition(block, keep - 1, axis=1)[:, :keep]
            block_squared = block[rows, block_indices]
        indices[start:stop] = block_indices
        squared[start:stop] = block_squared
    weights = squared / -tau
    np.exp(weights, out=weights)
    np.maximum(weights, weighting.weight_floor, out=weights)
    np.sqrt(squared, out=squared)
    return CalibrationSubsetBatch(indices=indices, distances=squared, weights=weights)


# -- fixtures --------------------------------------------------------------------------

N_CAL = 2400
N_LABELS = 7
D = 5


def _split(array, n_blocks, seed):
    if n_blocks == 0:
        return array
    cuts = np.sort(
        np.random.default_rng(seed).choice(
            np.arange(1, len(array)), size=n_blocks - 1, replace=False
        )
    )
    bounds = np.concatenate([[0], cuts, [len(array)]])
    return BlockColumn([array[a:b].copy() for a, b in zip(bounds[:-1], bounds[1:])])


def _case(n_blocks, keep_all, seed=0, n_test=37):
    """Calibration state, a selection and tied discrete test scores."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(N_CAL, D))
    labels = rng.integers(0, N_LABELS, N_CAL)
    # few distinct values: calibration and test scores collide often
    scores = rng.integers(0, 5, N_CAL) / 4.0
    test = rng.normal(size=(n_test, D))
    weighting = AdaptiveWeighting(
        fraction=0.4, min_samples=N_CAL + 1 if keep_all else 10
    )
    weighting.resolve_tau(features)
    subset = weighting.select_batch(features, test, chunk_size=11)
    test_scores = rng.integers(0, 5, (n_test, N_LABELS)) / 4.0
    return (
        _split(features, n_blocks, seed),
        _split(labels, n_blocks, seed + 1),
        _split(scores, n_blocks, seed + 2),
        subset,
        test_scores,
        weighting,
        test,
    )


BLOCKS = (0, 1, 16)  # 0: flat ndarray columns


@pytest.mark.parametrize("n_blocks", BLOCKS)
@pytest.mark.parametrize("keep_all", (False, True))
@pytest.mark.parametrize("weight_mode", ("count", "multiply"))
@pytest.mark.parametrize("tail", ("right", "both"))
def test_pvalues_match_legacy_kernels(n_blocks, keep_all, weight_mode, tail):
    _, labels, scores, subset, test_scores, _, _ = _case(n_blocks, keep_all)
    layout = LabelGroupedScores(
        scores=scores, labels=labels, group_counts=None, n_labels=N_LABELS
    )
    legacy_binning = _legacy_bin_subset_by_label(subset, labels, N_LABELS)
    binning = bin_subset_by_label(subset, labels, N_LABELS, weight_mode=weight_mode)
    assert np.array_equal(binning.flat_bins, legacy_binning["flat_bins"])
    assert binning.flat_bins.dtype == legacy_binning["flat_bins"].dtype
    assert np.array_equal(binning.weight_sums, legacy_binning["weight_sums"])
    if weight_mode == "multiply":
        assert np.array_equal(binning.counts, legacy_binning["counts"])
    else:
        assert binning.counts is None

    expected = _legacy_pvalues_from_binning(
        layout, legacy_binning, test_scores, weight_mode=weight_mode, tail=tail
    )
    # the ties must really be there, or the boundary cases go untested
    selected = np.asarray(scores[subset.indices])
    thresholds = test_scores[np.arange(len(test_scores))[:, None], labels[subset.indices]]
    assert (selected == thresholds).any()
    fresh = pvalues_from_binning(
        layout, binning, test_scores, weight_mode=weight_mode, tail=tail
    )
    assert np.array_equal(fresh, expected)
    # a reused workspace full of another call's bytes changes nothing
    workspace = pvalue_workspace(binning)
    for buffer in workspace:
        buffer.fill(True if buffer.dtype == bool else np.nan)
    for _ in range(2):
        reused = pvalues_from_binning(
            layout, binning, test_scores, weight_mode=weight_mode, tail=tail,
            out=workspace,
        )
        assert np.array_equal(reused, expected)


@pytest.mark.parametrize("n_blocks", BLOCKS)
@pytest.mark.parametrize("keep_all", (False, True))
def test_select_batch_matches_legacy_gather(n_blocks, keep_all):
    features, _, _, _, _, weighting, test = _case(n_blocks, keep_all, seed=3)
    expected = _legacy_select_batch(weighting, features, test, chunk_size=11)
    got = weighting.select_batch(features, test, chunk_size=11)
    assert np.array_equal(got.indices, expected.indices)
    assert np.array_equal(got.distances, expected.distances)
    assert np.array_equal(got.weights, expected.weights)


def test_committee_layouts_match_legacy_kernels():
    """The calibrate-time layouts feed the same bits through both kernels."""
    _, labels, scores, subset, test_scores, _, _ = _case(0, False, seed=5)
    layout = group_scores_by_label(scores, labels, N_LABELS)
    legacy_binning = _legacy_bin_subset_by_label(subset, layout.labels, N_LABELS)
    binning = bin_subset_by_label(subset, layout.labels, N_LABELS)
    assert np.array_equal(
        pvalues_from_binning(layout, binning, test_scores, tail="both"),
        _legacy_pvalues_from_binning(layout, legacy_binning, test_scores, tail="both"),
    )


def test_empty_batch_and_count_binning_in_multiply_mode():
    _, labels, scores, subset, _, _, _ = _case(0, False, n_test=0)
    layout = group_scores_by_label(scores, labels, N_LABELS)
    binning = bin_subset_by_label(subset, labels, N_LABELS)
    assert pvalues_from_binning(
        layout, binning, np.empty((0, N_LABELS))
    ).shape == (0, N_LABELS)
    with pytest.raises(ConfigurationError):
        pvalues_from_binning(
            layout, binning, np.empty((0, N_LABELS)), weight_mode="multiply"
        )
