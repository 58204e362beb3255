"""Segment-aware composition of per-shard calibration state (DESIGN.md §6).

PR 3 sharded calibration *maintenance*: an ``update()`` folds only into
the shards its batch touched.  But the detector still consumed one flat
array per state field (features, labels, per-expert scores), so every
fold ended with an ``O(n)`` concatenation memcpy to rebuild them — and
the async serving plane (PR 4) paid the same ``O(n)`` *again* per
snapshot publish, deep-copying every store-aliased array so lock-free
readers could never observe an in-place rewrite.

This module replaces both copies with a **segment compose layer**:

* :class:`SegmentedField` — one logical calibration column held as an
  ordered tuple of immutable per-shard blocks, with the flat
  concatenation materialized lazily (and cached) only when a consumer
  actually needs it;
* :class:`SegmentBundle` — the full composed detector state (every
  field, every expert's scores, the integer-exact summed group counts),
  built in ``O(touched shards)`` after a mutation because untouched
  shards contribute the *same block objects* as the previous bundle;
* :class:`ComposedStateAttr` — the descriptor the Prom detectors use
  for their flat state attributes, so any flat read (the per-sample
  reference loop, a test poking ``prom._features``) transparently
  materializes the current bundle first.  Writes behave like plain
  attribute assignment.  ``evaluate()`` never reads them: it reads the
  bundle's :class:`EvaluationView` (:func:`current_bundle`);
* :class:`BundleComposeHook` — the one-shot materializer installed on
  frozen detector snapshots, giving the serving plane
  **structural-sharing publishes**: a snapshot references the live
  bundle's blocks instead of deep-copying them, so publish cost drops
  from ``O(store)`` to ``O(touched shards)`` and consecutive snapshots
  share (``np.shares_memory``) every untouched shard's blocks.

The safety contract is copy-on-write: a block handed to a bundle is
never mutated in place — folds and rescores *replace* a shard's blocks
with fresh arrays, and store-backed blocks are owned copies taken at
the segment cache (:meth:`~repro.core.sharding.ShardedCalibrationStore.
column_segment`), not views of the slot-reused buffers.  Under that
discipline sharing blocks between the live detector and any number of
published snapshots is free.

Materialization is idempotent and tolerates benign races: concurrent
first readers of one snapshot may each build the flat arrays, but every
build produces equal values from the same immutable blocks, attribute
stores are atomic under the GIL, and the done flag is only set after a
full apply — so a reader either materializes for itself or observes a
completed apply, never a torn one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import (
    SEGMENT_DIRECT_MIN_ROWS,
    BlockColumn,
    segment_direct_supported,
)
from .pvalue import LabelGroupedScores
from .weighting import TAU_MAX_ROWS, TAU_SEED


class ComposedStateAttr:
    """Data descriptor for a lazily composable detector state attribute.

    Reads first invoke the instance's ``_compose_hook`` (when one is
    set), letting a compose layer install the current flat arrays on
    first access after a mutation; without a hook, reads and writes
    behave exactly like a plain instance attribute, including raising
    ``AttributeError`` before the first assignment (``calibrate()``).
    """

    def __set_name__(self, owner, name):
        self._name = name
        self._slot = "_composed" + name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        hook = instance.__dict__.get("_compose_hook")
        if hook is not None:
            hook()
        try:
            return instance.__dict__[self._slot]
        except KeyError:
            raise AttributeError(self._name) from None

    def __set__(self, instance, value):
        instance.__dict__[self._slot] = value

    def __delete__(self, instance):
        instance.__dict__.pop(self._slot, None)


class SegmentedField:
    """An ordered tuple of immutable array blocks for one state field.

    ``segments`` holds one block per shard (empty blocks for empty
    shards), in global exposed order.  :meth:`flat` materializes the
    concatenation lazily and caches it; because blocks are immutable,
    the cached flat array is itself immutable and may be shared freely
    between the live detector and published snapshots.
    """

    __slots__ = ("segments", "_flat")

    def __init__(self, segments, flat: np.ndarray | None = None):
        self.segments = tuple(segments)
        self._flat = flat

    def __len__(self) -> int:
        return sum(len(segment) for segment in self.segments)

    @property
    def trailing_shape(self) -> tuple:
        """Per-row shape of the field (``()`` for scalar columns)."""
        return self.segments[0].shape[1:] if self.segments else ()

    @property
    def cached_flat(self) -> np.ndarray | None:
        """The materialized concatenation, or ``None`` when not built yet."""
        return self._flat

    def flat(self) -> np.ndarray:
        """The flat concatenation of the segments (materialized once).

        A single-segment field returns its block directly — the block
        is immutable, so no defensive copy is needed.
        """
        flat = self._flat
        if flat is None:
            if not self.segments:
                flat = np.zeros(0)
            elif len(self.segments) == 1:
                flat = self.segments[0]
            else:
                flat = np.concatenate(self.segments)
            self._flat = flat
        return flat

    def same_segments(self, segments) -> bool:
        """Whether ``segments`` are exactly this field's blocks (by identity)."""
        segments = tuple(segments)
        return len(self.segments) == len(segments) and all(
            mine is theirs for mine, theirs in zip(self.segments, segments)
        )


def make_field(segments, previous: SegmentedField | None = None) -> SegmentedField:
    """Build a :class:`SegmentedField`, reusing ``previous`` when unchanged.

    Reuse is by block identity: when every segment is the same object as
    in the previous field, the previous field itself is returned — which
    carries its materialized flat cache across the mutation for free
    (e.g. a shard rescoring leaves the feature field's flat array
    valid).
    """
    segments = tuple(segments)
    if previous is not None and previous.same_segments(segments):
        return previous
    return SegmentedField(segments)


def gather_rows(segments, rows) -> np.ndarray:
    """Gather global rows from a segment list without the flat concat.

    Bit-identical to ``np.concatenate(segments)[rows]`` (row order
    preserved, negative indices wrap like NumPy's): the
    :class:`~repro.core.blocks.BlockColumn` gather.

    Raises:
        ValueError: on an empty segment list.
        IndexError: when any row index is outside ``[-n, n)`` — the
            same contract as indexing the concatenation.
    """
    return BlockColumn([np.asarray(segment) for segment in segments])[
        np.asarray(rows, dtype=np.int64)
    ]


def tau_feature_sample(
    field: SegmentedField, max_rows: int = TAU_MAX_ROWS, seed: int = TAU_SEED
) -> np.ndarray:
    """The feature rows ``resolve_tau`` would subsample, gathered per segment.

    ``median_pairwise_tau`` draws ``max_rows`` rows with
    ``default_rng(seed).choice`` when the set is larger; reproducing the
    identical draw here and gathering only those rows keeps the resolved
    tau bit-identical to the flat path while tau resolution costs
    ``O(max_rows * d)`` instead of forcing the ``O(n)`` flat
    materialization on every update.
    """
    flat = field.cached_flat
    if flat is not None:
        return flat
    n = len(field)
    if n <= max_rows:
        return field.flat()
    rows = np.random.default_rng(seed).choice(n, size=max_rows, replace=False)
    return gather_rows(field.segments, rows)


@dataclass(frozen=True)
class SegmentLayout:
    """Per-expert calibration-score view for segment-direct evaluation.

    The block-backed stand-in for
    :class:`~repro.core.pvalue.LabelGroupedScores` on the evaluate hot
    path: the p-value kernel only reads ``scores`` (gathered at the
    selected positions) and ``n_labels``, so the view carries exactly
    those — scores as a :class:`~repro.core.blocks.BlockColumn`, never
    flattened.
    """

    scores: BlockColumn
    n_labels: int


@dataclass(frozen=True)
class EvaluationView:
    """The one calibration state the evaluate kernels read.

    Every column is a :class:`~repro.core.blocks.BlockColumn`, built by
    :meth:`SegmentBundle.evaluation_view`: the per-shard blocks
    themselves, or a single block over each field's flat array (small
    sets, a BLAS that failed the runtime probe, and a plain
    ``calibrate()``, whose bundle has one shard).  ``labels`` is the
    p-value grouping column (class labels or cluster pseudo-labels);
    ``targets`` is present for regression only.  ``shard_ids`` maps
    each block position to its shard id — the contract the candidate
    pruner (:mod:`repro.core.pruning`) keys on; it is empty for a
    one-block view over a concatenation of several shards, which has
    no shard structure left to prune.
    """

    features: BlockColumn
    labels: BlockColumn
    layouts: tuple
    n_labels: int
    targets: BlockColumn | None = None
    shard_ids: tuple = ()

    def prewarm(self) -> None:
        """Build every cache a first evaluate would otherwise pay for.

        GEMM panels and row norms of the feature column, and the flat
        gather bases of the scalar columns.  Called from the serving
        maintenance plane right after a snapshot is built
        (:meth:`~repro.core.serving.AsyncServingLoop._build_snapshot`),
        so the repair work a publish leaves behind — re-gathering the
        panels that overlap the touched shard — runs on the worker
        thread and the first decision after the publish lands on a hot
        view.  Idempotent; every cache build is also safe (and merely
        redundant) if a decision thread races it.
        """
        self.features.panels()
        self.features.row_norms()
        scalar_columns = (self.labels, self.targets) + tuple(
            layout.scores for layout in self.layouts
        )
        for column in scalar_columns:
            if column is not None and len(column.segments) > 1:
                column.gather_base()

    def restrict(self, positions) -> "EvaluationView":
        """A view over the block subset at ``positions`` (ascending)."""
        positions = tuple(int(p) for p in positions)
        return EvaluationView(
            features=self.features.restrict(positions),
            labels=self.labels.restrict(positions),
            layouts=tuple(
                SegmentLayout(
                    scores=layout.scores.restrict(positions),
                    n_labels=layout.n_labels,
                )
                for layout in self.layouts
            ),
            n_labels=self.n_labels,
            targets=(
                None if self.targets is None else self.targets.restrict(positions)
            ),
            shard_ids=tuple(self.shard_ids[p] for p in positions),
        )


class SegmentBundle:
    """The composed per-shard detector state behind one immutable handle.

    Attributes:
        fields: detector attribute name (``"_features"``, ``"_labels"``,
            ``"_targets"``, ``"_clusters"``) -> :class:`SegmentedField`.
        score_fields: one :class:`SegmentedField` per expert's
            calibration scores.
        group_counts: per-expert ``(n_labels,)`` global group counts,
            summed integer-exactly over the per-shard layouts.
        label_key: which entry of ``fields`` plays the p-value grouping
            label (``"_labels"`` for classification, ``"_clusters"``
            for regression pseudo-labels).
        n_labels: number of candidate labels/clusters.

    A bundle is immutable once built; a mutation builds a *new* bundle
    whose untouched shards contribute the same block objects, so bundle
    identity comparisons (:meth:`shared_shards_with`) quantify the
    structural sharing between consecutive snapshots.
    """

    __slots__ = (
        "fields",
        "score_fields",
        "group_counts",
        "label_key",
        "n_labels",
        "_view",
        "_inherit_view",
    )

    def __init__(self, fields, score_fields, group_counts, label_key, n_labels):
        self.fields = dict(fields)
        self.score_fields = tuple(score_fields)
        self.group_counts = tuple(group_counts)
        self.label_key = label_key
        self.n_labels = int(n_labels)
        self._view = None
        self._inherit_view = None

    @classmethod
    def from_arrays(cls, fields, scores, group_counts, label_key, n_labels):
        """A one-shard bundle over freshly calibrated flat arrays.

        The state of a plain ``calibrate()``: ``fields`` maps detector
        attribute names to their arrays and ``scores`` holds one array
        per expert; each becomes a one-block field whose flat cache is
        the array itself.
        """

        def one_block(array):
            return SegmentedField((array,), flat=array)

        return cls(
            {name: one_block(array) for name, array in fields.items()},
            [one_block(array) for array in scores],
            group_counts,
            label_key,
            n_labels,
        )

    @property
    def n_shards(self) -> int:
        """Number of per-shard blocks each field carries."""
        return len(self.score_fields[0].segments) if self.score_fields else 0

    def iter_fields(self):
        """Yield every field (state fields first, then expert scores)."""
        yield from self.fields.values()
        yield from self.score_fields

    def apply(self, prom) -> None:
        """Materialize the bundle's flat arrays onto ``prom``.

        Sets every state attribute, the per-expert score arrays and the
        composed :class:`~repro.core.pvalue.LabelGroupedScores` layouts.
        Idempotent, and safe under the benign-race contract described in
        the module docstring: every write installs an array whose values
        are fully determined by the immutable blocks.
        """
        for name, field in self.fields.items():
            setattr(prom, name, field.flat())
        labels = self.fields[self.label_key].flat()
        scores = [field.flat() for field in self.score_fields]
        prom._scores = scores
        prom._layouts = [
            LabelGroupedScores(
                scores=expert_scores,
                labels=labels,
                group_counts=counts,
                n_labels=self.n_labels,
            )
            for expert_scores, counts in zip(scores, self.group_counts)
        ]

    def evaluation_view(self) -> EvaluationView:
        """The bundle's :class:`EvaluationView`, built once and cached.

        The columns are the per-shard blocks when the composed set holds
        at least :data:`~repro.core.blocks.SEGMENT_DIRECT_MIN_ROWS` rows
        and the local BLAS passed the runtime probe
        (:func:`~repro.core.blocks.segment_direct_supported`).
        Otherwise each column is one block over its field's
        :meth:`~SegmentedField.flat` array, which a later flat read
        shares; below the threshold the canonical GEMM partition is the
        historical single panel.  Either way the decisions are
        bit-identical to the flat arrays', and reading the view never
        fires the compose hook.

        The feature column's GEMM-panel cache is seeded from the
        field's materialized flat array when one exists (zero-copy
        views) and inherited from the predecessor bundle's view
        (``_inherit_view``, wired by the streaming compose) for panels
        whose blocks survived the mutation — so a publish touching one
        shard re-gathers only the panels overlapping that shard.
        """
        view = self._view
        if view is not None:
            return view
        feature_field = self.fields["_features"]
        segmented = (
            len(feature_field) >= SEGMENT_DIRECT_MIN_ROWS
            and segment_direct_supported()
        )

        def column(field):
            return BlockColumn(field.segments if segmented else (field.flat(),))

        view = EvaluationView(
            features=column(feature_field),
            labels=column(self.fields[self.label_key]),
            layouts=tuple(
                SegmentLayout(scores=column(field), n_labels=self.n_labels)
                for field in self.score_fields
            ),
            n_labels=self.n_labels,
            targets=(
                column(self.fields["_targets"])
                if "_targets" in self.fields
                else None
            ),
            shard_ids=tuple(range(len(feature_field.segments))) if segmented else (),
        )
        view.features.seed_flat(feature_field.cached_flat)
        inherited = self._inherit_view
        if inherited is not None:
            view.features.inherit_cache(inherited.features)
        self._inherit_view = None
        self._view = view
        return view

    def shared_shards_with(self, previous: "SegmentBundle | None") -> int:
        """Count shards whose every block is shared with ``previous``.

        Sharing is by object identity — the exact property the
        structural-sharing snapshot tests verify with
        ``np.shares_memory``.  Returns 0 when the bundles are not
        comparable (different fields or shard counts).
        """
        if previous is None:
            return 0
        if set(self.fields) != set(previous.fields):
            return 0
        if len(self.score_fields) != len(previous.score_fields):
            return 0
        n_shards = self.n_shards
        mine = list(self.iter_fields())
        theirs = [previous.fields[name] for name in self.fields]
        theirs += list(previous.score_fields)
        if any(len(field.segments) != n_shards for field in mine + theirs):
            return 0
        shared = 0
        for shard_id in range(n_shards):
            if all(
                a.segments[shard_id] is b.segments[shard_id]
                for a, b in zip(mine, theirs)
            ):
                shared += 1
        return shared


class BundleComposeHook:
    """One-shot compose hook for frozen detector snapshots.

    Installed as the frozen detector's ``_compose_hook``: the first
    state read applies the captured bundle (building the flat arrays —
    or reusing flats the live detector already materialized from the
    same blocks), later reads are a flag check.  ``done=True`` marks a
    snapshot frozen while the live detector's flat state already
    matched the bundle, so nothing needs rebuilding at all.
    """

    __slots__ = ("_prom", "_bundle", "_done")

    def __init__(self, prom, bundle: SegmentBundle, done: bool = False):
        self._prom = prom
        self._bundle = bundle
        self._done = done

    def __call__(self) -> None:
        if self._done:
            return
        self._bundle.apply(self._prom)
        self._done = True


def current_bundle(prom) -> SegmentBundle | None:
    """The :class:`SegmentBundle` ``prom`` evaluates against.

    ``None`` before the first calibration.  Hook-free — a plain
    attribute read that never fires the compose hook, so asking never
    materializes flat state.  ``calibrate()`` installs a one-shard
    bundle over its fresh arrays, a streaming wrapper installs every
    bundle it composes, and snapshots and pool workers carry the
    bundle they were built from.
    """
    return getattr(prom, "_segment_bundle", None)


def bundle_manifest(bundle: SegmentBundle, export) -> dict:
    """Serialize a bundle as a name-table manifest (parent side).

    ``export`` is the arena's block exporter
    (:meth:`~repro.core.shm.SharedSegmentArena.export`): every block of
    every field becomes a picklable ref, so the manifest is a few
    hundred bytes regardless of calibration size.  The per-expert group
    counts are tiny ``(n_labels,)`` integer arrays and ride embedded in
    the manifest itself rather than as shared segments.
    """
    return {
        "fields": {
            name: [export(block) for block in field.segments]
            for name, field in bundle.fields.items()
        },
        "score_fields": [
            [export(block) for block in field.segments]
            for field in bundle.score_fields
        ],
        "group_counts": [np.array(counts) for counts in bundle.group_counts],
        "label_key": bundle.label_key,
        "n_labels": bundle.n_labels,
    }


def manifest_refs(manifest: dict) -> list:
    """Every block ref a manifest references (with duplicates).

    The parent retains/releases exactly this list around a publish, so
    a ref shared by two fields is counted twice and survives as long
    as any field needs it.
    """
    refs = []
    for field_refs in manifest["fields"].values():
        refs.extend(field_refs)
    for field_refs in manifest["score_fields"]:
        refs.extend(field_refs)
    return refs


def bundle_from_manifest(manifest: dict, attach) -> SegmentBundle:
    """Rebuild a :class:`SegmentBundle` over mapped arrays (worker side).

    ``attach`` is the worker's ref resolver
    (:meth:`~repro.core.shm.SegmentAttacher.get`); the rebuilt bundle's
    blocks are read-only zero-copy views of the shared segments, so
    applying it — or evaluating segment-direct against it — touches the
    same physical pages the parent exported.
    """
    return SegmentBundle(
        fields={
            name: SegmentedField([attach(ref) for ref in refs])
            for name, refs in manifest["fields"].items()
        },
        score_fields=[
            SegmentedField([attach(ref) for ref in refs])
            for refs in manifest["score_fields"]
        ],
        group_counts=[np.array(counts) for counts in manifest["group_counts"]],
        label_key=manifest["label_key"],
        n_labels=manifest["n_labels"],
    )


class TauSketch:
    """Incremental, bit-identical automatic-tau resolution (DESIGN.md §9).

    ``resolve_tau`` subsamples :data:`~repro.core.weighting.TAU_MAX_ROWS`
    feature rows with a fixed-seed draw that depends only on the set
    size ``n``, then takes the median pairwise squared distance.  The
    sketch exploits that: across store mutations it caches the drawn
    row indices (per ``n``), the gathered sample, and the resolved tau.
    On each retune it re-gathers the sampled rows from the segments
    (``O(max_rows * d)``, no flat concat) and compares values — when no
    sampled row changed, the cached tau is adopted without recomputing
    the ``max_rows x max_rows`` distance GEMM and median; when anything
    changed (or ``n`` changed, which changes the draw itself), the full
    median kernel reruns on the fresh sample.  Partial GEMM updates are
    *never* attempted: BLAS row-splits are not bit-stable, so the full
    recompute is what keeps resolved taus bit-identical to a fresh
    ``calibrate()`` on the flat state.
    """

    __slots__ = ("max_rows", "seed", "_n", "_rows", "_sample", "_tau")

    def __init__(self, max_rows: int = TAU_MAX_ROWS, seed: int = TAU_SEED):
        self.max_rows = int(max_rows)
        self.seed = seed
        self._n = -1
        self._rows = None
        self._sample = None
        self._tau = None

    def resolve(self, weighting, field: SegmentedField) -> float:
        """Resolve ``weighting``'s tau against the segmented features.

        Bit-identical to ``weighting.resolve_tau(field.flat())`` in
        every case; the cache only ever short-circuits arithmetic whose
        inputs are verified (by value) to be unchanged.
        """
        if weighting.tau is not None:
            return weighting.resolve_tau(None)  # fixed tau: features unused
        n = len(field)
        if n != self._n:
            self._n = n
            if n > self.max_rows:
                self._rows = np.random.default_rng(self.seed).choice(
                    n, size=self.max_rows, replace=False
                )
            else:
                self._rows = None
            self._sample = None
        if self._rows is None:
            sample = field.flat()
        else:
            sample = gather_rows(field.segments, self._rows)
        if self._sample is not None and np.array_equal(sample, self._sample):
            return weighting.adopt_tau(self._tau)
        self._sample = sample
        self._tau = weighting.resolve_tau(sample)
        return self._tau
