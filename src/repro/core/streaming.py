"""Streaming Prom detectors: incremental recalibration over a live store.

``PromClassifier.calibrate()`` is a batch operation: every call
recomputes per-expert nonconformity scores, label groupings and the
adaptive tau from scratch.  In deployment (paper Secs. 5.3-5.4) the
calibration set is a *stream* — relabelled drifting samples arrive in
micro-batches and stale samples are evicted — so full recalibration per
round costs ``O(rounds * n_calibration)`` where ``O(rounds * batch)``
suffices.

The wrappers here own a bounded, sharded calibration store (a
:class:`~repro.core.sharding.ShardedCalibrationStore`; the default
``n_shards=1`` is simply its one-shard case) and maintain the
detector's calibration state *incrementally*:

* per-expert nonconformity scores are computed only for the new batch
  (every score function is row-wise pure, so per-batch scores are
  bit-identical to batch recomputation);
* per-label score groupings (:class:`~repro.core.pvalue.LabelGroupedScores`)
  are carried across the store mutation with one survivor gather
  (``StoreUpdate.order``) and ``O(batch + n_labels)`` count arithmetic;
* the automatic tau is re-resolved against the surviving features via
  the same bounded kernel (``median_pairwise_tau``) a fresh
  ``calibrate()`` would use.

The wrapper keeps **per-shard** scores, label groupings and tau.  An
update folds only into the shards its batch touched — untouched
shards' state is not even copied — and the global detector state is
re-composed *segment-aware* (:mod:`repro.core.segments`): per-shard
score/feature/label blocks stay immutable segments in a
:class:`~repro.core.segments.SegmentBundle`, group counts are summed
integer-exactly per segment, tau is re-resolved from a per-segment row
gather, and ``evaluate()`` reads the bundle's blocks directly — so a
fold costs ``O(touched shards)``, never ``O(store)``.  The detector's
flat arrays are materialized lazily, only on a flat-state read, and
are bit-identical to the old eager concatenation.
:meth:`detector_snapshot` builds structural-sharing
snapshots from the same bundle — untouched shards' blocks are shared
(not copied) between consecutive publishes, which is what makes the
async serving plane's snapshot publish ``O(touched shards)`` too
(DESIGN.md §6).  Full shard recalibrations
(:meth:`recalibrate_shards`) run in a ``ThreadPoolExecutor`` when
``parallel`` workers are configured (the NumPy kernels release the
GIL); micro-batch folds stay serial — their per-shard work is far
below the pool-spawn cost.  See DESIGN.md §4.

The invariant, property-tested in ``tests/core/test_streaming.py`` and
``tests/core/test_sharding.py``: after ANY sequence of
``update()``/``evict()`` calls — under every eviction policy and every
shard router — the wrapped detector is **decision-identical**
(bit-for-bit, including credibility and confidence) to a fresh detector
calibrated on the store's surviving samples (in store order).  For the
regressor the cluster pseudo-labeller is fixed at ``calibrate()`` time
(new samples are assigned, never re-clustered), so the equivalence
reference is :meth:`StreamingPromRegressor.refresh` with
``refit_clusters=False``; call ``refresh()`` to re-fit clusters after
heavy drift.
"""

from __future__ import annotations

import copy
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .calibration_store import StoreUpdate
from .exceptions import CalibrationError
from .prom import PromClassifier, PromRegressor, _check_calibration_inputs
from .pvalue import (
    group_scores_by_label,
    merge_group_counts,
    update_label_groups,
)
from .segments import (
    BundleComposeHook,
    SegmentBundle,
    SegmentedField,
    TauSketch,
    current_bundle,
    make_field,
)
from .sharding import ShardedCalibrationStore
from .weighting import median_pairwise_tau


def _as_columns(extra) -> dict:
    if extra is None:
        return {}
    return dict(extra)


def _check_leaves_survivors(store, positions) -> None:
    """Reject evictions that would empty the calibration store."""
    positions = np.asarray(positions, dtype=int)
    if len(store) - len(np.unique(positions % max(1, len(store)))) < 1:
        raise CalibrationError("eviction would empty the calibration store")


def _shard_tau(weighting, features) -> float:
    """One shard's tau: the fixed tau when set, else the bounded kernel."""
    if weighting.tau is not None:
        return float(weighting.tau)
    if features is None or len(features) == 0:
        return 1.0
    return median_pairwise_tau(features)


@dataclass
class _ShardState:
    """One shard's slice of the streaming calibration state.

    ``scores``/``layouts`` hold one entry per expert, aligned with the
    shard store's exposed row order; ``tau`` is the shard-local feature
    scale (diagnostic — the detector's global tau is always re-resolved
    on the union), kept lazily: folds mark it stale (``None``) and
    :attr:`_ShardMixin.shard_taus` recomputes on read, so the bounded
    tau kernel never rides the per-update hot path once per shard;
    ``clusters`` carries the regressor's pseudo-labels.
    """

    scores: list
    layouts: list
    tau: float | None = field(default=None)
    clusters: np.ndarray | None = field(default=None)


class _ShardMixin:
    """Shard, segment-compose and snapshot bookkeeping shared by both
    streaming wrappers.

    A calibrated wrapper holds the detector's global state as a
    :class:`~repro.core.segments.SegmentBundle` of immutable per-shard
    blocks, installed as the detector's current bundle (``_bundle``);
    the detector's flat arrays are materialized from it lazily on first
    flat read (``self._bundle_fresh`` tracks whether they currently
    match).
    """

    #: compose spec, set per wrapper class: detector attribute ->
    #: store column for store-backed fields; detector attributes whose
    #: blocks live on ``_ShardState`` (attribute name minus the
    #: underscore); and which field plays the p-value grouping label.
    _compose_store_fields: dict = {}
    _compose_state_fields: tuple = ()
    _compose_label_key: str = "_labels"

    def _init_compose(self) -> None:
        """Wire the detector to the lazy segment compose layer."""
        self._bundle_fresh = True
        self._tau_sketch = TauSketch()
        # Installed as the detector's compose hook: any flat state read
        # (a direct prom._features access) materializes the current
        # bundle first, so laziness is never observable.  Evaluate
        # reads the bundle's view instead and never fires it.
        self.prom._compose_hook = self._materialize_composed

    @property
    def _bundle(self):
        """The detector's current bundle (``None`` before calibration)."""
        return current_bundle(self.prom)

    def _materialize_composed(self) -> None:
        """Install the current bundle's flat arrays on the detector.

        The lazy half of the segment compose: no-op before the first
        calibration or when the detector already reflects the bundle;
        otherwise one ``O(store)`` concatenation per mutated epoch,
        paid by the first consumer that actually needs flat state
        (and shared with snapshots built from the same bundle).

        Full-rebuild paths (``calibrate``/``refresh``) call this
        *before* overwriting the detector: a pending bundle must be
        applied (or rendered moot) first, or the rebuild's own state
        reads would trigger the hook and clobber the fresh arrays with
        the stale composition.
        """
        bundle = self._bundle
        if bundle is None or self._bundle_fresh:
            return
        bundle.apply(self.prom)
        self._bundle_fresh = True

    def _retune_composed_tau(self, retune_tau: bool, feature_field) -> None:
        """Re-resolve the detector's tau from the feature segments.

        Delegates to the wrapper's incremental
        :class:`~repro.core.segments.TauSketch`: the sketch gathers
        exactly the rows the flat ``resolve_tau`` would subsample
        (bit-identical, ``O(max_rows * d)``, no flat concat) and skips
        the median kernel entirely when no sampled row changed across
        the mutation.
        """
        if not retune_tau:
            return
        self._tau_sketch.resolve(self.prom.weighting, feature_field)

    @property
    def _feature_dim(self) -> int:
        """Calibrated feature dimensionality, without materializing."""
        return int(self._bundle.fields["_features"].trailing_shape[0])

    def _build_bundle(self, fresh: bool) -> dict:
        """Assemble the :class:`SegmentBundle` from the current shard
        states, per the class compose spec; returns the field dict.

        ``fresh=True`` is the seed mode used right after a full
        rebuild: the detector's flat arrays were just computed, so
        every field's flat cache is pre-populated from them (score and
        state blocks are zero-copy slices of those arrays) and the
        detector is marked as already reflecting the bundle.
        ``fresh=False`` is the incremental mode used after a fold or
        rescore: fields whose every block is identical to the previous
        bundle's are reused outright (flat caches carried along), and
        the flat arrays are left to lazy materialization.
        """
        prom = self.prom
        states = self._shard_states
        previous = None if fresh else self._bundle
        experts = self._compose_experts()
        n_labels = self._compose_n_labels()

        def build_field(name, blocks):
            if fresh:
                return SegmentedField(blocks, flat=getattr(prom, name))
            return make_field(
                blocks, previous.fields.get(name) if previous else None
            )

        fields = {
            name: build_field(name, self.store.column_segments(column))
            for name, column in self._compose_store_fields.items()
        }
        for name in self._compose_state_fields:
            attr = name.lstrip("_")
            fields[name] = build_field(
                name, tuple(getattr(state, attr) for state in states)
            )
        score_fields = []
        for e in range(len(experts)):
            blocks = tuple(state.scores[e] for state in states)
            if fresh:
                score_fields.append(SegmentedField(blocks, flat=prom._scores[e]))
            else:
                score_fields.append(
                    make_field(
                        blocks,
                        previous.score_fields[e] if previous else None,
                    )
                )
        prom._segment_bundle = SegmentBundle(
            fields=fields,
            score_fields=tuple(score_fields),
            group_counts=tuple(
                merge_group_counts(
                    [state.layouts[e] for state in states], n_labels
                )
                for e in range(len(experts))
            ),
            label_key=self._compose_label_key,
            n_labels=n_labels,
        )
        if previous is not None:
            # Carry the newest built evaluation view across the
            # mutation (at most one generation is kept alive): panels
            # over untouched shards are inherited instead of
            # re-gathered when the new bundle's view is built.
            prom._segment_bundle._inherit_view = (
                previous._view
                if previous._view is not None
                else previous._inherit_view
            )
        if not fresh:
            # the detector's flat arrays describe a superseded bundle:
            # drop them instead of pinning a stale generation (the next
            # flat read materializes this one)
            for name in (*fields, "_scores", "_layouts"):
                delattr(prom, name)
        self._bundle_fresh = fresh
        return fields

    def _compose_global(self, retune_tau: bool) -> None:
        """Recompose the detector's global state from per-shard segments.

        Builds a fresh immutable :class:`~repro.core.segments.SegmentBundle`
        in ``O(touched shards)``: untouched shards contribute the same
        block objects as the previous bundle (segment order is the
        store's global exposed order, and group counts add
        integer-exactly), tau is re-resolved from a per-segment row
        gather, and the flat arrays are *not* rebuilt here — the next
        detector state read materializes them, bit-identical to the
        eager concatenation a fresh ``calibrate()`` would produce.
        """
        fields = self._build_bundle(fresh=False)
        self._retune_composed_tau(retune_tau, fields["_features"])

    @property
    def epoch(self) -> int:
        """Monotone counter bumped on every calibration-state mutation.

        The serving plane (:mod:`repro.core.serving`) tags published
        snapshots with the epoch they were built at, so snapshot
        staleness is ``wrapper.epoch - snapshot.epoch`` mutations.
        """
        return self._epoch

    def _bump_epoch(self) -> None:
        self._epoch += 1

    def detector_snapshot(self):
        """A frozen, immutable clone of the wrapped detector.

        The clone shares the detector's configuration (functions,
        committee, thresholds) plus a frozen weighting (tau state), and
        its calibration state is private to the snapshot — evaluating
        it is safe from any thread while the live wrapper keeps folding
        updates.  This is the double-buffered read side of the async
        serving loop (DESIGN.md §5).

        The snapshot is structural-sharing (DESIGN.md §6): the clone
        references the live :class:`~repro.core.segments.SegmentBundle`
        of immutable per-shard blocks, so freezing is ``O(n_shards)``
        pointer work, not an ``O(store)`` deep copy.  Untouched shards'
        blocks are therefore *shared* (``np.shares_memory``) between
        consecutive snapshots; folds replace touched shards' blocks
        instead of mutating them, so shared blocks can never change
        under a published snapshot.  Evaluates read the bundle's view;
        flat arrays are materialized only on the snapshot's first flat
        read (or reused from the live detector when it already
        materialized the same bundle).
        """
        self.prom._require_calibrated()
        prom = copy.copy(self.prom)
        prom.weighting = copy.copy(self.prom.weighting)
        # The one-shot hook materializes the bundle on first read.  When
        # the live detector's flat state already reflects the bundle,
        # the copied attributes are current and the hook starts done —
        # zero copies.
        prom._compose_hook = BundleComposeHook(
            prom, self._bundle, done=self._bundle_fresh
        )
        return prom

    @property
    def n_shards(self) -> int:
        return self.store.n_shards

    @property
    def shard_sizes(self) -> tuple:
        return self.store.shard_sizes

    @property
    def shard_taus(self) -> tuple:
        """Per-shard feature-scale taus (empty before calibration).

        Computed lazily: a fold marks its shard's tau stale, and this
        accessor re-resolves stale entries with the same bounded kernel
        a shard-local recalibration would use.
        """
        taus = []
        for shard_id, state in enumerate(self._shard_states):
            if state.tau is None:
                shard = self.store.shards[shard_id]
                features = shard.column("features") if len(shard) else None
                state.tau = _shard_tau(self.prom.weighting, features)
            taus.append(state.tau)
        return tuple(taus)

    def _map_shards(self, shard_ids, fn, parallel: bool = True) -> None:
        """Run ``fn(shard_id)`` serially or on the thread pool.

        Shard work mutates disjoint per-shard states, and the NumPy
        scoring kernels release the GIL, so a ThreadPoolExecutor gives
        real parallel eviction/recalibration across shards.  Callers
        pass ``parallel=False`` for micro-batch folds, whose per-shard
        work (an ``O(batch + shard)`` gather) is far below the
        pool-spawn cost; whole-shard rescoring is where threads pay.
        """
        shard_ids = list(shard_ids)
        workers = (self.parallel or 0) if parallel else 0
        if workers > 1 and len(shard_ids) > 1:
            with ThreadPoolExecutor(
                max_workers=min(workers, len(shard_ids))
            ) as pool:
                # list() propagates the first worker exception
                list(pool.map(fn, shard_ids))
        else:
            for shard_id in shard_ids:
                fn(shard_id)

    def _shard_blocks(self):
        """Yield ``(shard_id, start, stop)`` global row blocks."""
        start = 0
        for shard_id, size in enumerate(self.store.shard_sizes):
            yield shard_id, start, start + size
            start += size


class StreamingPromClassifier(_ShardMixin):
    """Online wrapper around a :class:`~repro.core.prom.PromClassifier`.

    Args:
        prom: the detector to manage; a default one is created when
            omitted.  Evaluation methods (``evaluate``,
            ``evaluate_one``, ``prediction_region_batch``) delegate to
            it unchanged.
        capacity: calibration-store cap (paper: 1000) — total across
            shards.
        eviction: eviction policy instance or name (``"fifo"``,
            ``"reservoir"``, ``"lowest_weight"``); a sequence gives
            each shard its own policy.
        seed: RNG seed of the store (randomized policies).
        n_shards: number of calibration shards (default 1: one shard
            holding the whole store).
        router: shard router name or instance (``"hash"``, ``"label"``,
            ``"cluster"``); with one shard every sample routes to it.
        parallel: thread-pool width for whole-shard rescoring in
            :meth:`recalibrate_shards` (``None``/``1`` = serial);
            micro-batch folds stay serial either way.

    ``calibrate()`` resets the store and performs one full calibration;
    ``update()`` folds a micro-batch in incrementally.  Extra aligned
    columns (e.g. raw model inputs) may ride along in the store via
    ``extra=`` — the schema is fixed by the first call.
    """

    _compose_store_fields = {"_features": "features", "_labels": "label"}
    _compose_state_fields = ()
    _compose_label_key = "_labels"

    def _compose_experts(self):
        """The expert list whose scores the compose layer carries."""
        return self.prom.functions

    def _compose_n_labels(self) -> int:
        """The p-value grouping-label space size (class count)."""
        return self.prom._n_classes

    def __init__(
        self,
        prom=None,
        capacity: int = 1000,
        eviction="fifo",
        seed: int = 0,
        n_shards: int = 1,
        router="hash",
        parallel: int | None = None,
    ):
        self.prom = prom or PromClassifier()
        self.store = ShardedCalibrationStore(
            capacity, n_shards, router=router, policy=eviction, seed=seed
        )
        self.parallel = parallel
        self._shard_states = []
        self._epoch = 0
        self._init_compose()

    # -- state --------------------------------------------------------------------
    @property
    def is_calibrated(self) -> bool:
        """Whether the wrapped detector has been calibrated (hook-free)."""
        return self.prom.is_calibrated

    @property
    def calibration_size(self) -> int:
        """Number of calibration samples backing the detector.

        Counted from the current bundle, so reading it never
        materializes the flat state (the value is always the store
        size).
        """
        return self.prom.calibration_size

    def _check_update_inputs(self, features, probabilities, labels):
        features, probabilities, labels = _check_calibration_inputs(
            features, probabilities, labels
        )
        labels = labels.astype(int)
        n_classes = self.prom._n_classes
        if probabilities.ndim != 2 or probabilities.shape[1] != n_classes:
            raise CalibrationError(
                f"probabilities must be (n, {n_classes}) to match the "
                f"calibrated detector"
            )
        if labels.min(initial=0) < 0 or labels.max(initial=0) >= n_classes:
            raise CalibrationError("label index out of calibrated range")
        return features, probabilities, labels

    # -- lifecycle ----------------------------------------------------------------
    def calibrate(
        self, features, probabilities, labels, priority=None, extra=None
    ) -> "StreamingPromClassifier":
        """Reset the store to this batch and fully calibrate the detector.

        When the batch exceeds ``capacity`` the eviction policy trims it
        first, so the cap holds from the very first calibration.
        """
        features, probabilities, labels = _check_calibration_inputs(
            features, probabilities, labels
        )
        # Apply any pending lazy composition before the rebuild
        # overwrites the detector (see _materialize_composed).
        self._materialize_composed()
        # Build the new store aside and swap it in only once the
        # detector accepted the batch — a validation failure inside
        # prom.calibrate must not leave store and detector desynced.
        staged = self.store.clone_empty()
        staged.add(
            priority=priority,
            features=features,
            probabilities=probabilities,
            label=np.asarray(labels).astype(int),
            **_as_columns(extra),
        )
        self.prom.calibrate(
            staged.column("features"),
            staged.column("probabilities"),
            staged.column("label"),
        )
        self.store = staged
        self._rebuild_shard_states()
        self._bump_epoch()
        return self

    def _rebuild_shard_states(self) -> None:
        """Slice the detector's freshly calibrated state into per-shard
        states and seed the compose bundle.

        Runs right after a full ``calibrate()``/``refresh()``: the flat
        arrays exist and match the store, so the bundle is built with
        its flat caches pre-populated (score blocks are zero-copy
        slices of the flat arrays; feature/label blocks come from the
        store's segment cache so later folds can reuse them by
        identity).
        """
        prom = self.prom
        states = []
        for _, start, stop in self._shard_blocks():
            labels = prom._labels[start:stop]
            scores = [expert[start:stop] for expert in prom._scores]
            states.append(
                _ShardState(
                    scores=scores,
                    layouts=[
                        group_scores_by_label(s, labels, prom._n_classes)
                        for s in scores
                    ],
                )
            )
        self._shard_states = states
        self._build_bundle(fresh=True)

    def update(
        self,
        features,
        probabilities,
        labels,
        priority=None,
        extra=None,
        retune_tau: bool = True,
    ) -> StoreUpdate:
        """Fold a micro-batch into the calibration state incrementally.

        Scores are computed for the new batch only; groupings and
        counts are carried across the store mutation (touched shards
        only); tau is re-resolved against the surviving
        features (pass ``retune_tau=False`` to freeze it — faster, but
        the detector then diverges from a fresh ``calibrate()`` until
        the next ``refresh``).  Returns the :class:`StoreUpdate`
        describing who survived.
        """
        self.prom._require_calibrated()
        features, probabilities, labels = self._check_update_inputs(
            features, probabilities, labels
        )
        prom = self.prom
        new_scores = [
            function.score(probabilities, labels) for function in prom.functions
        ]
        update = self.store.add(
            priority=priority,
            features=features,
            probabilities=probabilities,
            label=labels,
            **_as_columns(extra),
        )
        self._fold(update, new_scores, labels, retune_tau)
        self._bump_epoch()
        return update

    def evict(self, positions, retune_tau: bool = True) -> StoreUpdate:
        """Remove calibration samples by (global) store position."""
        self.prom._require_calibrated()
        _check_leaves_survivors(self.store, positions)
        update = self.store.evict(positions)
        empty = [np.zeros(0)] * len(self.prom.functions)
        no_labels = np.zeros(0, dtype=int)
        self._fold(update, empty, no_labels, retune_tau)
        self._bump_epoch()
        return update

    def _fold(self, update, new_scores, new_labels, retune_tau: bool):
        """Fold the batch into the touched shards, then recompose."""

        def fold(shard_id):
            state = self._shard_states[shard_id]
            sub = update.shard_updates[shard_id]
            routed = update.shard_batches[shard_id]
            state.layouts = [
                update_label_groups(
                    layout,
                    sub.keep_mask,
                    scores[routed],
                    new_labels[routed],
                    order=sub.order,
                )
                for layout, scores in zip(state.layouts, new_scores)
            ]
            state.scores = [layout.scores for layout in state.layouts]
            state.tau = None  # stale; shard_taus recomputes on read

        self._map_shards(update.touched, fold, parallel=False)
        self._compose_global(retune_tau)

    def recalibrate_shards(
        self, shard_ids=None, retune_tau: bool = True
    ) -> "StreamingPromClassifier":
        """Fully rescore the given shards from their store contents.

        The shard-local counterpart of :meth:`refresh`: scoring cost is
        proportional to the touched shards' rows, not the whole
        calibration set, and shards rescore in parallel when
        ``parallel`` workers are configured.  ``shard_ids=None``
        rescores every shard.
        """
        self.prom._require_calibrated()
        prom = self.prom
        if shard_ids is None:
            shard_ids = range(self.store.n_shards)

        def rescore(shard_id):
            shard = self.store.shards[shard_id]
            state = self._shard_states[shard_id]
            if len(shard) == 0:
                state.scores = [np.zeros(0) for _ in prom.functions]
                state.layouts = [
                    group_scores_by_label(
                        np.zeros(0), np.zeros(0, dtype=int), prom._n_classes
                    )
                    for _ in prom.functions
                ]
                state.tau = None
                return
            probabilities = shard.column("probabilities")
            labels = shard.column("label")
            state.scores = [
                function.score(probabilities, labels)
                for function in prom.functions
            ]
            state.layouts = [
                group_scores_by_label(s, labels, prom._n_classes)
                for s in state.scores
            ]
            state.tau = None

        self._map_shards(shard_ids, rescore)
        self._compose_global(retune_tau)
        self._bump_epoch()
        return self

    def refresh(self) -> "StreamingPromClassifier":
        """Full recalibration from the current store contents.

        The batch-path reference the incremental path must match; also
        the escape hatch after ``retune_tau=False`` updates.
        """
        self._materialize_composed()
        self.prom.calibrate(
            self.store.column("features"),
            self.store.column("probabilities"),
            self.store.column("label"),
        )
        self._rebuild_shard_states()
        self._bump_epoch()
        return self

    def replace_outputs(self, features, probabilities, labels) -> None:
        """Swap the derived columns after a model update, then recalibrate.

        Membership is unchanged — same samples, same store order — but
        the deployed model changed, so every stored feature vector and
        probability row is stale.  Incremental maintenance cannot help
        here (all scores change); this is the designed full-rebuild
        path.  With several shards the store additionally re-fits its
        router and re-routes every sample (the feature space the router
        keyed on moved too), which may trigger per-shard evictions when
        the new routing overloads a shard; one shard keeps its rows and
        stream state (see
        :meth:`~repro.core.sharding.ShardedCalibrationStore.rebalance`).
        """
        features, probabilities, labels = _check_calibration_inputs(
            features, probabilities, labels
        )
        self.store.replace_column("features", features)
        self.store.replace_column("probabilities", probabilities)
        self.store.replace_column("label", np.asarray(labels))
        self.store.rebalance(refit_router=True)
        self.refresh()

    # -- deployment (delegation) --------------------------------------------------
    def evaluate(self, features, probabilities, predicted_labels=None, chunk_size=None):
        """Batch-evaluate via the wrapped detector (see
        :meth:`~repro.core.prom.PromClassifier.evaluate`); reads the
        current bundle's view and leaves any pending lazy composition
        pending."""
        return self.prom.evaluate(features, probabilities, predicted_labels, chunk_size)

    def evaluate_one(self, feature, probability_row, predicted_label=None):
        """Evaluate one sample (see
        :meth:`~repro.core.prom.PromClassifier.evaluate_one`)."""
        return self.prom.evaluate_one(feature, probability_row, predicted_label)

    def prediction_region_batch(self, features, probabilities, chunk_size=None):
        """Committee prediction-region membership for a batch (see
        :meth:`~repro.core.prom.PromClassifier.prediction_region_batch`)."""
        return self.prom.prediction_region_batch(features, probabilities, chunk_size)

    def __repr__(self) -> str:
        return f"StreamingPromClassifier(store={self.store!r})"


class StreamingPromRegressor(_ShardMixin):
    """Online wrapper around a :class:`~repro.core.prom.PromRegressor`.

    The regression detector has two batch-coupled stages the classifier
    lacks: K-means pseudo-labels and (optionally) leave-one-out
    residual references.  Streaming handles them as follows:

    * the clusterer is **fixed** at ``calibrate()`` time; new samples
      are assigned to their nearest cluster (``clusterer_.assign``),
      never re-clustered.  Call :meth:`refresh` with
      ``refit_clusters=True`` after heavy drift.
    * ``calibration_residuals="true"`` (the default prom built here)
      keeps scores per-sample pure, enabling the incremental fast path
      (per touched shard).  A ``"loo"`` detector couples
      every score to its neighbours, so ``update()`` transparently
      falls back to a full recompute of the LOO residuals — with the
      *fitted* clusterer, like every other update path — correct and
      still capacity-capped, just not amortized.

    Sharding routes on features (``"hash"`` or ``"cluster"``; there is
    no integer label column to key ``"label"`` routing on).
    """

    _compose_store_fields = {"_features": "features", "_targets": "target"}
    _compose_state_fields = ("_clusters",)
    _compose_label_key = "_clusters"

    def _compose_experts(self):
        """The expert list whose scores the compose layer carries."""
        return self.prom.score_functions

    def _compose_n_labels(self) -> int:
        """The grouping-label space size (fitted cluster count)."""
        return self.prom.clusterer_.k_

    def __init__(
        self,
        prom=None,
        capacity: int = 1000,
        eviction="fifo",
        seed: int = 0,
        n_shards: int = 1,
        router="hash",
        parallel: int | None = None,
    ):
        self.prom = prom or PromRegressor(calibration_residuals="true")
        self.store = ShardedCalibrationStore(
            capacity,
            n_shards,
            router=router,
            policy=eviction,
            seed=seed,
            label_column=None,
        )
        self.parallel = parallel
        self._shard_states = []
        self._epoch = 0
        self._init_compose()

    @property
    def is_calibrated(self) -> bool:
        """Whether the wrapped detector has been calibrated (hook-free)."""
        return self.prom.is_calibrated

    @property
    def calibration_size(self) -> int:
        """Number of calibration samples backing the detector.

        Counted from the current bundle, so reading it never
        materializes the flat state (the value is always the store
        size).
        """
        return self.prom.calibration_size

    # -- lifecycle ----------------------------------------------------------------
    def calibrate(
        self, features, predictions, targets, priority=None, extra=None
    ) -> "StreamingPromRegressor":
        """Reset the store to this batch and fully calibrate (fits clusters)."""
        features, predictions, targets = _check_calibration_inputs(
            features, predictions, targets
        )
        # Apply any pending lazy composition before the rebuild
        # overwrites the detector (see _materialize_composed).
        self._materialize_composed()
        # Staged swap, as in the classifier: a calibration failure must
        # not leave store and detector desynced.
        staged = self.store.clone_empty()
        staged.add(
            priority=priority,
            features=features,
            prediction=predictions.astype(float).ravel(),
            target=np.asarray(targets, dtype=float).ravel(),
            **_as_columns(extra),
        )
        self.prom.calibrate(
            staged.column("features"),
            staged.column("prediction"),
            staged.column("target"),
        )
        self.store = staged
        self._rebuild_shard_states()
        self._bump_epoch()
        return self

    def _full_calibrate(self):
        """Recalibrate from the store (fits clusters) and rebuild state."""
        self._materialize_composed()
        self.prom.calibrate(
            self.store.column("features"),
            self.store.column("prediction"),
            self.store.column("target"),
        )
        self._rebuild_shard_states()
        self._bump_epoch()

    def _rebuild_shard_states(self) -> None:
        """Slice the detector's freshly calibrated state into per-shard
        states and seed the compose bundle (see the classifier's
        :meth:`StreamingPromClassifier._rebuild_shard_states`)."""
        prom = self.prom
        states = []
        for _, start, stop in self._shard_blocks():
            clusters = prom._clusters[start:stop]
            scores = [expert[start:stop] for expert in prom._scores]
            states.append(
                _ShardState(
                    scores=scores,
                    layouts=[
                        group_scores_by_label(s, clusters, prom.clusterer_.k_)
                        for s in scores
                    ],
                    clusters=clusters,
                )
            )
        self._shard_states = states
        self._build_bundle(fresh=True)

    def update(
        self,
        features,
        predictions,
        targets,
        priority=None,
        extra=None,
        retune_tau: bool = True,
    ) -> StoreUpdate:
        """Fold a micro-batch into the calibration state.

        Incremental when the detector uses per-sample (``"true"``)
        residuals — touching only the shards the batch routed to;
        ``"loo"`` falls back to recomputing all residuals
        (fitted clusterer kept — only :meth:`refresh` re-clusters).
        """
        self.prom._require_calibrated()
        features, predictions, targets = _check_calibration_inputs(
            features, predictions, targets
        )
        predictions = predictions.astype(float).ravel()
        targets = np.asarray(targets, dtype=float).ravel()
        if features.shape[1] != self._feature_dim:
            raise CalibrationError(
                f"feature dimensionality mismatch: calibrated with "
                f"{self._feature_dim}, got {features.shape[1]}"
            )
        columns = dict(
            features=features,
            prediction=predictions,
            target=targets,
            **_as_columns(extra),
        )
        if self.prom.calibration_residuals != "true":
            update = self.store.add(priority=priority, **columns)
            self.refresh(refit_clusters=False, retune_tau=retune_tau)
            return update

        prom = self.prom
        new_clusters = np.asarray(prom.clusterer_.assign(features), dtype=int)
        new_scores = [
            function.score(predictions, targets) for function in prom.score_functions
        ]
        update = self.store.add(priority=priority, **columns)
        self._fold(update, new_scores, new_clusters, retune_tau)
        self._bump_epoch()
        return update

    def evict(self, positions, retune_tau: bool = True) -> StoreUpdate:
        """Remove calibration samples by (global) store position."""
        self.prom._require_calibrated()
        _check_leaves_survivors(self.store, positions)
        update = self.store.evict(positions)
        if self.prom.calibration_residuals != "true":
            self.refresh(refit_clusters=False, retune_tau=retune_tau)
            return update
        empty = [np.zeros(0)] * len(self.prom.score_functions)
        no_clusters = np.zeros(0, dtype=int)
        self._fold(update, empty, no_clusters, retune_tau)
        self._bump_epoch()
        return update

    def _fold(self, update, new_scores, new_clusters, retune_tau: bool):
        """Fold the batch into the touched shards, then recompose."""

        def fold(shard_id):
            state = self._shard_states[shard_id]
            sub = update.shard_updates[shard_id]
            routed = update.shard_batches[shard_id]
            state.layouts = [
                update_label_groups(
                    layout,
                    sub.keep_mask,
                    scores[routed],
                    new_clusters[routed],
                    order=sub.order,
                )
                for layout, scores in zip(state.layouts, new_scores)
            ]
            state.scores = [layout.scores for layout in state.layouts]
            state.clusters = np.concatenate(
                [state.clusters, new_clusters[routed]]
            )[sub.order]
            state.tau = None  # stale; shard_taus recomputes on read

        self._map_shards(update.touched, fold, parallel=False)
        self._compose_global(retune_tau)

    def recalibrate_shards(
        self, shard_ids=None, retune_tau: bool = True
    ) -> "StreamingPromRegressor":
        """Fully rescore the given shards from their store contents.

        Shard-local scoring needs per-sample residuals; a ``"loo"``
        detector couples scores across shards, so it falls back to the
        global ``refresh(refit_clusters=False)``.
        """
        self.prom._require_calibrated()
        if self.prom.calibration_residuals != "true":
            return self.refresh(refit_clusters=False, retune_tau=retune_tau)
        prom = self.prom
        if shard_ids is None:
            shard_ids = range(self.store.n_shards)

        def rescore(shard_id):
            shard = self.store.shards[shard_id]
            state = self._shard_states[shard_id]
            if len(shard) == 0:
                state.scores = [np.zeros(0) for _ in prom.score_functions]
                state.layouts = [
                    group_scores_by_label(
                        np.zeros(0), np.zeros(0, dtype=int), prom.clusterer_.k_
                    )
                    for _ in prom.score_functions
                ]
                state.clusters = np.zeros(0, dtype=int)
                state.tau = None
                return
            features = shard.column("features")
            predictions = shard.column("prediction")
            targets = shard.column("target")
            state.clusters = np.asarray(
                prom.clusterer_.assign(features), dtype=int
            )
            state.scores = [
                function.score(predictions, targets)
                for function in prom.score_functions
            ]
            state.layouts = [
                group_scores_by_label(s, state.clusters, prom.clusterer_.k_)
                for s in state.scores
            ]
            state.tau = None

        self._map_shards(shard_ids, rescore)
        self._compose_global(retune_tau)
        self._bump_epoch()
        return self

    def refresh(
        self, refit_clusters: bool = True, retune_tau: bool = True
    ) -> "StreamingPromRegressor":
        """Full recalibration from the current store contents.

        ``refit_clusters=False`` keeps the fitted pseudo-labeller and
        recomputes everything else (scores, assignments, tau, layouts)
        from scratch — the batch-path reference that the incremental
        ``update()`` is property-tested against.  ``retune_tau=False``
        keeps the current tau (only honored with
        ``refit_clusters=False``; a full ``calibrate()`` always
        re-resolves it).
        """
        if refit_clusters:
            self._full_calibrate()
            return self
        prom = self.prom
        prom._require_calibrated()
        self._materialize_composed()
        features = self.store.column("features")
        predictions = self.store.column("prediction")
        targets = self.store.column("target")
        if prom.calibration_residuals == "loo":
            reference = prom._loo_targets(features, targets)
        else:
            reference = targets
        prom._features = features
        prom._targets = targets
        if retune_tau:
            prom.weighting.resolve_tau(features)
        prom._scores = [
            function.score(predictions, reference)
            for function in prom.score_functions
        ]
        prom._clusters = np.asarray(prom.clusterer_.assign(features), dtype=int)
        prom._layouts = [
            group_scores_by_label(scores, prom._clusters, prom.clusterer_.k_)
            for scores in prom._scores
        ]
        self._rebuild_shard_states()
        self._bump_epoch()
        return self

    def replace_outputs(self, features, predictions, targets) -> None:
        """Swap derived columns after a model update, then recalibrate.

        Keeps membership and the fitted clusterer is re-fit as part of
        the full recalibration (the model's feature space moved, so the
        old pseudo-labels are stale too).  A store of several shards
        re-routes on the new features first (see the classifier's
        :meth:`~StreamingPromClassifier.replace_outputs`).
        """
        features, predictions, targets = _check_calibration_inputs(
            features, predictions, targets
        )
        self.store.replace_column("features", features)
        self.store.replace_column("prediction", predictions.astype(float).ravel())
        self.store.replace_column(
            "target", np.asarray(targets, dtype=float).ravel()
        )
        self.store.rebalance(refit_router=True)
        self._full_calibrate()

    # -- deployment (delegation) --------------------------------------------------
    def evaluate(self, features, predictions, chunk_size=None):
        """Batch-evaluate via the wrapped detector (see
        :meth:`~repro.core.prom.PromRegressor.evaluate`); reads the
        current bundle's view and leaves any pending lazy composition
        pending."""
        return self.prom.evaluate(features, predictions, chunk_size)

    def evaluate_one(self, feature, prediction):
        """Evaluate one prediction (see
        :meth:`~repro.core.prom.PromRegressor.evaluate_one`)."""
        return self.prom.evaluate_one(feature, prediction)

    def __repr__(self) -> str:
        return f"StreamingPromRegressor(store={self.store!r})"
