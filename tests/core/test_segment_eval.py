"""Tests for segment-direct evaluate kernels and router-aware pruning
(DESIGN.md §9).

Four properties:

1. **Canonical panel kernel** — the fixed-panel GEMM partition gives
   bitwise-interchangeable results between the flat and the
   block-column backends, gathers/norms are exact, and the panel
   caches (``seed_flat`` / ``inherit_cache``) never change values.
2. **Segment-direct equivalence** — for every router x eviction-policy
   combination (classifier and regressor), evaluating against a
   pending compose bundle is bit-identical to a fresh flat
   calibration, and the evaluate itself never triggers the deferred
   flat concatenation.
3. **Incremental tau** — the :class:`TauSketch` resolves taus
   bit-identical to the flat ``resolve_tau`` and skips the median
   kernel when no sampled row changed.
4. **Router-aware pruning** — ``spill=1.0`` is bit-identical with full
   counters; ``spill<1`` scores strictly fewer candidates with bounded
   decision disagreement on a clustered drifted stream; counters ride
   ``DecisionBatch`` through take/concatenate and the stream runner.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    BlockColumn,
    CandidatePruner,
    CheckpointWriter,
    ConfigurationError,
    PromClassifier,
    PromRegressor,
    SegmentedField,
    StreamingPromClassifier,
    StreamingPromRegressor,
    TauSketch,
    ValidationError,
    panel_bounds,
    restore_checkpoint,
    segment_direct_supported,
)
from repro.core import blocks as blocks_module
from repro.core.blocks import (
    PANEL_ROWS,
    SEGMENT_DIRECT_MIN_ROWS,
    flat_panels,
    panel_product,
)
from repro.core.segments import current_bundle
from repro.core.weighting import AdaptiveWeighting

ROUTERS = ("hash", "label", "cluster")
POLICIES = ("fifo", "reservoir", "lowest_weight")

#: calibration sizes used below sit just above the segment-direct
#: threshold so the tier-1 suite stays fast.
N_LARGE = SEGMENT_DIRECT_MIN_ROWS + 352


def _classification_batch(n, n_classes=5, n_features=8, seed=0, shift=0.0):
    g = np.random.default_rng(seed)
    features = g.normal(size=(n, n_features)) + shift
    raw = g.random((n, n_classes)) + 0.05
    probabilities = raw / raw.sum(axis=1, keepdims=True)
    labels = g.integers(0, n_classes, n)
    return features, probabilities, labels


def _clustered_batch(n, n_clusters=4, n_features=8, seed=0, shift=0.0):
    """Well-separated Gaussian clusters (for router-affine pruning)."""
    g = np.random.default_rng(seed)
    centers = g.normal(size=(n_clusters, n_features)) * 6.0
    assignment = g.integers(0, n_clusters, n)
    features = centers[assignment] + g.normal(size=(n, n_features)) * 0.5 + shift
    raw = g.random((n, n_clusters)) + 0.05
    probabilities = raw / raw.sum(axis=1, keepdims=True)
    return features, probabilities, assignment


def _regression_batch(n, n_features=6, seed=0, shift=0.0):
    g = np.random.default_rng(seed)
    features = g.normal(size=(n, n_features)) + shift
    targets = 2.0 * features[:, 0] + np.sin(features[:, 1])
    predictions = targets + g.normal(scale=0.2, size=n)
    return features, predictions, targets


def _assert_decisions_identical(a, b):
    assert np.array_equal(a.accepted, b.accepted)
    assert np.array_equal(a.credibility, b.credibility)
    assert np.array_equal(a.confidence, b.confidence)
    assert np.array_equal(a.drifting, b.drifting)


def _assert_one_block(view):
    columns = (view.features, view.labels, view.targets) + tuple(
        layout.scores for layout in view.layouts
    )
    assert view.shard_ids == ()
    assert all(
        len(column.segments) == 1 for column in columns if column is not None
    )


def _large_classifier(router="hash", policy="fifo", n_shards=4, seed=1):
    """A streaming classifier whose composed set exceeds the segment-
    direct threshold, left with a pending (un-materialized) bundle."""
    streaming = StreamingPromClassifier(
        capacity=N_LARGE,
        eviction=policy,
        n_shards=n_shards,
        router=router,
        seed=0,
    )
    streaming.calibrate(*_classification_batch(N_LARGE - 200, seed=seed))
    for round_id in range(4):
        batch = _classification_batch(80, seed=100 + seed + round_id, shift=0.4)
        streaming.update(*batch)
    assert len(streaming.store) >= SEGMENT_DIRECT_MIN_ROWS
    assert not streaming._bundle_fresh
    return streaming


def _large_regressor(router="hash", policy="fifo", n_shards=3, seed=1):
    streaming = StreamingPromRegressor(
        prom=PromRegressor(calibration_residuals="true", n_clusters=3),
        capacity=N_LARGE,
        eviction=policy,
        n_shards=n_shards,
        router=router,
        seed=0,
    )
    streaming.calibrate(*_regression_batch(N_LARGE - 200, seed=seed))
    for round_id in range(3):
        batch = _regression_batch(70, seed=200 + seed + round_id, shift=0.3)
        streaming.update(*batch)
    assert len(streaming.store) >= SEGMENT_DIRECT_MIN_ROWS
    assert not streaming._bundle_fresh
    return streaming


class TestPanelPartition:
    def test_small_sets_are_one_panel(self):
        assert panel_bounds(0) == ()
        assert panel_bounds(1) == ((0, 1),)
        assert panel_bounds(SEGMENT_DIRECT_MIN_ROWS - 1) == (
            (0, SEGMENT_DIRECT_MIN_ROWS - 1),
        )

    def test_large_sets_use_the_fixed_grid(self):
        n = 2 * PANEL_ROWS + 300
        bounds = panel_bounds(n)
        assert bounds == (
            (0, PANEL_ROWS),
            (PANEL_ROWS, 2 * PANEL_ROWS),
            (2 * PANEL_ROWS, n),
        )
        # partition depends on n only, never on any segmentation
        assert panel_bounds(n) == bounds

    def test_flat_panels_are_views(self):
        array = np.arange(float(N_LARGE * 3)).reshape(N_LARGE, 3)
        for c0, panel in flat_panels(array):
            assert np.shares_memory(panel, array)
            assert np.array_equal(panel, array[c0 : c0 + len(panel)])

    def test_single_panel_product_is_the_plain_gemm(self):
        g = np.random.default_rng(0)
        calibration = g.normal(size=(500, 12))
        test = g.normal(size=(9, 12))
        assert np.array_equal(
            panel_product(test, flat_panels(calibration), 500),
            test @ calibration.T,
        )


class TestBlockColumn:
    def _column(self, seed=0, n=N_LARGE, d=5, cuts=(400, 400, 0, 1300)):
        g = np.random.default_rng(seed)
        flat = g.normal(size=(n, d))
        sizes = list(cuts) + [n - sum(cuts)]
        blocks, start = [], 0
        for size in sizes:
            blocks.append(flat[start : start + size].copy())
            start += size
        return BlockColumn(blocks), flat

    def test_rejects_empty_segment_list(self):
        with pytest.raises(ValidationError):
            BlockColumn(())

    def test_gather_matches_flat_indexing(self):
        column, flat = self._column()
        g = np.random.default_rng(1)
        rows = g.integers(-len(flat), len(flat), size=(4, 7))
        assert np.array_equal(column[rows], flat[rows])
        assert np.array_equal(column[np.arange(0)], flat[np.arange(0)])

    def test_gather_out_of_range_raises(self):
        column, flat = self._column()
        with pytest.raises(IndexError):
            column[np.asarray([len(flat)])]
        with pytest.raises(IndexError):
            column[np.asarray([-len(flat) - 1])]

    def test_restrict_is_the_block_subset(self):
        column, _ = self._column()
        restricted = column.restrict((0, 3))
        assert restricted.segments == (column.segments[0], column.segments[3])
        assert len(restricted) == len(column.segments[0]) + len(column.segments[3])

    def test_panels_and_norms_bitwise_match_flat(self):
        column, flat = self._column(seed=2, d=16)
        test = np.random.default_rng(3).normal(size=(11, 16))
        assert np.array_equal(
            panel_product(test, column.panels(), len(flat)),
            panel_product(test, flat_panels(flat), len(flat)),
        )
        assert np.array_equal(
            column.row_norms(), np.einsum("ij,ij->i", flat, flat)
        )

    def test_straddling_panels_are_cached(self):
        column, _ = self._column()
        first = column.panels()
        assert column.panels() is first
        rebuilt = BlockColumn(column.segments)
        rebuilt.inherit_cache(column)
        for (_, a), (_, b) in zip(rebuilt.panels(), first):
            assert a is b  # every block survived: every panel carried

    def test_seed_flat_makes_panels_views(self):
        column, flat = self._column()
        column.seed_flat(flat)
        for _, panel in column.panels():
            assert np.shares_memory(panel, flat)
        # wrong-length flats are ignored, not half-applied
        other = BlockColumn(column.segments)
        other.seed_flat(flat[:-1])
        assert not other._panel_map

    def test_inherit_cache_drops_panels_of_dead_blocks(self):
        column, flat = self._column(cuts=(1500, 700))
        column.panels()
        # replace the block under the straddling second panel
        blocks = list(column.segments)
        blocks[1] = blocks[1].copy()
        successor = BlockColumn(blocks)
        successor.inherit_cache(column)
        inherited_keys = set(successor._panel_map)
        for key in inherited_keys:
            assert all(part[0] != id(column.segments[1]) for part in key)
        # and the rebuilt panels still match the flat backend bitwise
        test = np.random.default_rng(4).normal(size=(3, 5))
        assert np.array_equal(
            panel_product(test, successor.panels(), len(flat)),
            panel_product(test, flat_panels(flat), len(flat)),
        )

    def test_probe_passes_on_this_blas(self):
        # by construction both backends issue identical GEMM call
        # sequences; the probe is the safety net and must hold here
        assert segment_direct_supported()


class TestSegmentDirectEquivalence:
    @pytest.mark.parametrize("router", ROUTERS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_classifier_bit_identical_without_flat_concat(self, router, policy):
        streaming = _large_classifier(router=router, policy=policy)
        test = _classification_batch(40, seed=99, shift=0.8)
        decisions = streaming.evaluate(test[0], test[1])
        # the tentpole property: evaluate ran segment-direct — the
        # deferred flat concatenation never happened
        assert not streaming._bundle_fresh
        assert current_bundle(streaming.prom).fields["_features"].cached_flat is None
        fresh = PromClassifier().calibrate(
            streaming.store.column("features"),
            streaming.store.column("probabilities"),
            streaming.store.column("label"),
        )
        _assert_decisions_identical(decisions, fresh.evaluate(test[0], test[1]))
        assert (
            streaming.prom.weighting.effective_tau
            == fresh.weighting.effective_tau
        )

    @pytest.mark.parametrize("router", ("hash", "cluster"))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_regressor_bit_identical_without_flat_concat(self, router, policy):
        streaming = _large_regressor(router=router, policy=policy)
        test_features, test_predictions, _ = _regression_batch(30, seed=88)
        incremental = streaming.evaluate(test_features, test_predictions)
        assert not streaming._bundle_fresh
        assert current_bundle(streaming.prom).fields["_features"].cached_flat is None
        streaming.refresh(refit_clusters=False)
        reference = streaming.evaluate(test_features, test_predictions)
        _assert_decisions_identical(incremental, reference)

    def test_small_sets_read_one_block_views(self):
        streaming = StreamingPromClassifier(
            capacity=300, n_shards=4, router="hash", seed=0
        )
        streaming.calibrate(*_classification_batch(250, seed=5))
        streaming.update(*_classification_batch(20, seed=6))
        assert not streaming._bundle_fresh
        view = streaming._bundle.evaluation_view()
        # below the threshold every column is one block over the flat
        # concatenation, with no shard structure for a pruner
        _assert_one_block(view)
        test = _classification_batch(10, seed=7)
        decisions = streaming.evaluate(test[0], test[1])
        # the evaluate read the view: the detector's flat state stays
        # pending, and the decisions equal a fresh flat calibration's
        assert not streaming._bundle_fresh
        fresh = PromClassifier().calibrate(
            streaming.store.column("features"),
            streaming.store.column("probabilities"),
            streaming.store.column("label"),
        )
        _assert_decisions_identical(decisions, fresh.evaluate(test[0], test[1]))

    def test_probe_failure_reads_one_block_views(self, monkeypatch):
        # the safety branch: on a BLAS that fails the runtime probe
        # every column is one block over the flat concatenation, and
        # the decisions equal the probe-passing per-shard run's
        test = _classification_batch(30, seed=66, shift=0.5)
        reg_test = _regression_batch(30, seed=67)[:2]

        def run():
            classifier = _large_classifier(router="cluster")
            regressor = _large_regressor(router="cluster")
            views = [s._bundle.evaluation_view() for s in (classifier, regressor)]
            return views, (
                classifier.evaluate(test[0], test[1]),
                regressor.evaluate(*reg_test),
            )

        views, passing = run()
        assert [len(view.features.segments) for view in views] == [4, 3]
        monkeypatch.setattr(blocks_module, "_PROBE_RESULT", False)
        views, failing = run()
        for view in views:
            _assert_one_block(view)
        for a, b in zip(passing, failing):
            _assert_decisions_identical(a, b)

    def test_snapshot_evaluates_segment_direct_and_stays_pending(self):
        streaming = _large_classifier()
        snapshot = streaming.detector_snapshot()
        test = _classification_batch(25, seed=55, shift=0.5)
        snap_decisions = snapshot.evaluate(test[0], test[1])
        # still not concat'ed
        assert current_bundle(snapshot).fields["_features"].cached_flat is None
        _assert_decisions_identical(
            snap_decisions, streaming.evaluate(test[0], test[1])
        )

    def test_publish_inherits_untouched_panels(self):
        # label routing: a single-label batch touches exactly one shard,
        # so panels over the other shards' blocks must carry over
        streaming = StreamingPromClassifier(
            capacity=N_LARGE + 400, n_shards=4, router="label", seed=0
        )
        streaming.calibrate(*_classification_batch(N_LARGE, seed=8))
        view = streaming._bundle.evaluation_view()
        assert view is not None
        before = dict(view.features._panel_map)
        features, probabilities, labels = _classification_batch(30, seed=500)
        streaming.update(features, probabilities, np.full(len(labels), 3))
        after_view = streaming._bundle.evaluation_view()
        assert after_view is not None and after_view is not view
        carried = sum(
            1
            for key, panel in after_view.features._panel_map.items()
            if before.get(key) is panel
        )
        assert carried > 0  # untouched-shard panels were not re-gathered


class TestTauSketch:
    def _field(self, seed=0, sizes=(600, 500, 400), d=6):
        g = np.random.default_rng(seed)
        return SegmentedField(tuple(g.normal(size=(n, d)) for n in sizes))

    def test_resolution_bit_identical_to_flat(self):
        field = self._field()
        incremental = AdaptiveWeighting()
        flat = AdaptiveWeighting()
        sketch = TauSketch()
        assert sketch.resolve(incremental, field) == flat.resolve_tau(
            np.concatenate(field.segments)
        )
        assert incremental.effective_tau == flat.effective_tau

    def test_unchanged_sample_skips_the_median_kernel(self, monkeypatch):
        from repro.core import weighting as weighting_module

        calls = []
        original = weighting_module.median_pairwise_tau

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(weighting_module, "median_pairwise_tau", counting)
        sketch = TauSketch()
        weighting = AdaptiveWeighting()
        field = self._field(seed=1)
        first = sketch.resolve(weighting, field)
        assert len(calls) == 1
        # same values behind different block objects: adopted, no kernel
        same_values = SegmentedField(
            tuple(block.copy() for block in field.segments)
        )
        assert sketch.resolve(weighting, same_values) == first
        assert len(calls) == 1
        # perturb one *sampled* row: full recompute
        row = int(sketch._rows[0])
        sizes = np.asarray([len(b) for b in field.segments])
        owner = int(np.searchsorted(np.cumsum(sizes), row, side="right"))
        local = row - int(np.concatenate([[0], np.cumsum(sizes)])[owner])
        blocks = [b.copy() for b in field.segments]
        blocks[owner][local] += 1.0
        changed = SegmentedField(tuple(blocks))
        sketch.resolve(weighting, changed)
        assert len(calls) == 2

    def test_fixed_tau_ignores_the_features(self):
        weighting = AdaptiveWeighting(tau=7.5)
        assert TauSketch().resolve(weighting, self._field()) == 7.5
        assert weighting.effective_tau == 7.5

    def test_streaming_updates_keep_tau_bit_identical(self):
        # the wrapper resolves tau through its sketch on every update;
        # the result must equal a fresh flat calibration's tau
        streaming = _large_classifier(router="label", policy="fifo")
        fresh = AdaptiveWeighting()
        fresh.resolve_tau(np.asarray(streaming.store.column("features")))
        assert streaming.prom.weighting.effective_tau == fresh.effective_tau


class TestCandidatePruner:
    def test_spill_is_validated(self):
        with pytest.raises(ConfigurationError):
            CandidatePruner(spill=1.5)
        with pytest.raises(ConfigurationError):
            CandidatePruner(spill=-0.1)

    def test_candidate_shard_count(self):
        assert CandidatePruner(spill=0.0).candidate_shard_count(6) == 1
        assert CandidatePruner(spill=1.0).candidate_shard_count(6) == 6
        assert CandidatePruner(spill=0.5).candidate_shard_count(5) == 3
        assert CandidatePruner(spill=0.0).candidate_shard_count(1) == 1
        assert CandidatePruner(spill=0.0).candidate_shard_count(0) == 0

    def test_full_spill_bit_identical_with_counters(self):
        streaming = _large_classifier(router="cluster", policy="fifo")
        test = _classification_batch(35, seed=70, shift=0.6)
        baseline = streaming.evaluate(test[0], test[1])
        assert baseline.n_candidates_scored is None
        streaming.prom._pruner = CandidatePruner(
            router=streaming.store.router, spill=1.0
        )
        pruned = streaming.evaluate(test[0], test[1])
        _assert_decisions_identical(baseline, pruned)
        assert pruned.n_candidates_scored == 35 * len(streaming.store)
        assert pruned.n_shards_pruned == 0

    def test_low_spill_prunes_with_bounded_disagreement(self):
        n_shards = 4
        streaming = StreamingPromClassifier(
            capacity=N_LARGE + 400,
            eviction="fifo",
            n_shards=n_shards,
            router="cluster",
            seed=0,
        )
        streaming.calibrate(*_clustered_batch(N_LARGE, seed=11))
        # a drifted micro-batch leaves the bundle pending
        streaming.update(*_clustered_batch(60, seed=12, shift=1.5))
        features, probabilities, _ = _clustered_batch(80, seed=13, shift=1.5)
        unpruned = streaming.evaluate(features, probabilities)
        total = 80 * len(streaming.store)
        agreements, scored = [], []
        for spill in (0.0, 0.25, 0.5):
            streaming.prom._pruner = CandidatePruner(
                router=streaming.store.router, spill=spill
            )
            pruned = streaming.evaluate(features, probabilities)
            assert pruned.n_shards_pruned > 0
            agreements.append(
                float(np.mean(pruned.accepted == unpruned.accepted))
            )
            scored.append(pruned.n_candidates_scored / total)
        # the GEMM shrinks with spill: spill=0 scores ~1/n_shards of
        # the calibration set, and coverage of the unpruned decisions
        # degrades monotonically as spill drops (measured on this
        # stream: ~0.88 agreement at spill=0.5 down to ~0.54 at 0)
        assert scored[0] < 0.35 and scored[0] < scored[1] < scored[2] < 0.85
        assert agreements[0] >= 0.4
        assert agreements[2] >= 0.8
        assert agreements[0] <= agreements[1] <= agreements[2]

    def test_pruning_does_not_depend_on_flat_state(self, tmp_path):
        # one state, one pruned answer: right after calibrate(), after
        # a fold, after a read of the flat state and after a checkpoint
        # restore, the pruner sees the same per-shard view
        def runtime():
            return StreamingPromClassifier(
                capacity=3400, n_shards=4, router="cluster", seed=0
            )

        def pruned(streaming):
            streaming.prom._pruner = CandidatePruner(
                router=streaming.store.router, spill=0.0
            )
            batch = streaming.evaluate(features, probabilities)
            assert batch.n_shards_pruned == 3 * len(features)
            return batch

        def assert_same(a, b):
            _assert_decisions_identical(a, b)
            assert a.n_candidates_scored == b.n_candidates_scored
            assert a.n_shards_pruned == b.n_shards_pruned

        features, probabilities, _ = _clustered_batch(200, seed=13, shift=1.5)
        streaming = runtime()
        streaming.calibrate(*_clustered_batch(3000, seed=11))
        calibrated = pruned(streaming)
        streaming.prom._features  # a flat-state read
        assert_same(calibrated, pruned(streaming))
        streaming.update(*_clustered_batch(60, seed=12, shift=1.5))
        folded = pruned(streaming)
        streaming.prom._features
        assert_same(folded, pruned(streaming))
        CheckpointWriter(tmp_path).checkpoint(streaming)
        restored = runtime()
        restore_checkpoint(restored, tmp_path)
        assert_same(folded, pruned(restored))

    def test_regressor_full_spill_bit_identical(self):
        streaming = _large_regressor(router="cluster", policy="fifo")
        test_features, test_predictions, _ = _regression_batch(20, seed=44)
        baseline = streaming.evaluate(test_features, test_predictions)
        streaming.prom._pruner = CandidatePruner(
            router=streaming.store.router, spill=1.0
        )
        pruned = streaming.evaluate(test_features, test_predictions)
        _assert_decisions_identical(baseline, pruned)
        assert pruned.n_candidates_scored == 20 * len(streaming.store)

    def test_counters_ride_take_and_concatenate(self):
        streaming = _large_classifier()
        streaming.prom._pruner = CandidatePruner(
            router=streaming.store.router, spill=1.0
        )
        test = _classification_batch(12, seed=90)
        batch = streaming.evaluate(test[0], test[1])
        taken = batch.take(np.arange(len(batch))[::-1])
        assert taken.n_candidates_scored == batch.n_candidates_scored
        assert taken.n_shards_pruned == batch.n_shards_pruned
        merged = type(batch).concatenate(
            [batch, taken], expert_names=batch.expert_names
        )
        assert merged.n_candidates_scored == 2 * batch.n_candidates_scored
        # slicing is a sub-batch: whole-batch counters do not apply
        assert batch[2:5].n_candidates_scored is None
        # a counter-less member poisons the sum to None, not to garbage
        plain = dataclasses.replace(
            batch, n_candidates_scored=None, n_shards_pruned=None
        )
        mixed = type(batch).concatenate(
            [batch, plain], expert_names=batch.expert_names
        )
        assert mixed.n_candidates_scored is None


class TestStreamPlumbing:
    def _interface(self, **kwargs):
        pytest.importorskip("repro.ml")
        from repro.core import ModelInterface
        from repro.ml import MLPClassifier

        class BlobInterface(ModelInterface):
            def feature_extraction(self, X):
                return np.asarray(X)

        from ..conftest import make_blobs

        defaults = dict(
            calibration_ratio=0.5,
            max_calibration=SEGMENT_DIRECT_MIN_ROWS + 200,
            n_shards=4,
            router="hash",
        )
        defaults.update(kwargs)
        interface = BlobInterface(MLPClassifier(epochs=5, seed=0), **defaults)
        X, y = make_blobs(2 * (SEGMENT_DIRECT_MIN_ROWS + 400), seed=0)
        interface.train(X, y)
        assert interface.calibration_size >= SEGMENT_DIRECT_MIN_ROWS
        return interface

    def _stream(self, n=320, seed=3):
        from ..conftest import make_blobs

        X_a, y_a = make_blobs(n // 2, seed=seed)
        X_b, y_b = make_blobs(n // 2, shift=3.0, seed=seed + 1)
        return np.concatenate([X_a, X_b]), np.concatenate([y_a, y_b])

    def test_config_echo_and_counter_totals(self):
        from repro.experiments import stream_deployment

        interface = self._interface()
        X_stream, y_stream = self._stream()
        from repro.core import LoopConfig, PruningConfig

        result = stream_deployment(
            interface,
            X_stream,
            y_stream,
            loop=LoopConfig(batch_size=64, epochs=3),
            pruning=PruningConfig(spill=1.0, chunk_size=512),
        )
        assert result.chunk_size == 512
        assert result.prune is True
        assert result.prune_spill == 1.0
        assert interface.prom._chunk_size == 512
        assert isinstance(interface.prom._pruner, CandidatePruner)
        assert interface.prom._pruner.router is interface.streaming.store.router
        # once the first fold leaves a pending bundle, evaluates run
        # segment-direct through the pruner and the counters accumulate
        assert result.n_candidates_scored > 0
        assert result.n_candidates_scored == sum(
            step.n_candidates_scored for step in result.steps
        )
        assert result.n_shards_pruned == sum(
            step.n_shards_pruned for step in result.steps
        )

    def test_full_spill_stream_matches_unpruned_stream(self):
        from repro.experiments import stream_deployment

        from repro.core import LoopConfig, PruningConfig, ServingConfig

        X_stream, y_stream = self._stream()
        loop_config = LoopConfig(batch_size=64, epochs=3)
        serving_config = ServingConfig(asynchronous=False, record_decisions=True)
        plain = stream_deployment(
            self._interface(),
            X_stream,
            y_stream,
            loop=loop_config,
            serving=serving_config,
        )
        pruned = stream_deployment(
            self._interface(),
            X_stream,
            y_stream,
            loop=loop_config,
            serving=serving_config,
            pruning=PruningConfig(spill=1.0),
        )
        assert plain.prune is False and pruned.prune is True
        for a, b in zip(plain.steps, pruned.steps):
            _assert_decisions_identical(a.decisions, b.decisions)
        assert pruned.n_candidates_scored > 0
        assert pruned.n_shards_pruned == 0
