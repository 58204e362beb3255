"""Segment-direct evaluate kernels + router-aware shard pruning (ISSUE 8).

PR 5 made the snapshot *publish* zero-copy, but every decision still
paid for the whole store twice over: the first evaluate after a publish
materialized the flat concat of all segment blocks before its first
GEMM, and the distance kernel scored all n calibration rows even though
the router already knows which shard a test sample lands in.  This
bench measures both fixes at the ISSUE 8 acceptance scale (12k
calibration rows x 16 shards, 48 features, 32 classes):

* **first_decision_after_publish** — the decision that lands right
  behind a single-touched-shard publish, segment-direct (the bundle
  stays pending; the evaluate iterates the canonical GEMM panels over
  the blocks) vs the pre-ISSUE-8 path (fire the compose hook, pay the
  flat concat, then evaluate).  Asserts the segment-direct first
  decision improves on the flat-path first decision by at least **2x**
  and sits within **1.2x** of the warm-path figure — the flat-concat
  tax is gone from the decision path, not merely reduced; and
* **pruned evaluate** — ``CandidatePruner(spill=0)`` restricts each
  test sample's distance GEMM and p-value gather to its own shard's
  blocks.  Asserts the pruned evaluate beats the full-store evaluate by
  at least **3x** at 16 shards.  Exactness is *not* claimed here — the
  companion ``coverage_vs_spill`` study quantifies what the speedup
  costs: decision agreement with the unpruned path per router as the
  spill fraction sweeps 0 -> 1 (``spill=1.0`` must be bit-identical,
  asserted).

Results go to ``out/BENCH_segment_eval.json``; ``--smoke`` runs a
seconds-long, perf-assertion-free pass for CI (the ``spill=1.0``
bit-identity tripwire still applies — it is deterministic).
"""

import argparse
import json
import time

import numpy as np

from repro.core import (
    AsyncServingLoop,
    CandidatePruner,
    ModelInterface,
    StreamingPromClassifier,
)
from repro.core.blocks import SEGMENT_DIRECT_MIN_ROWS, segment_direct_supported
from repro.core.segments import current_bundle

from conftest import update_bench_json

#: acceptance floor (ISSUE 8): the segment-direct first decision after a
#: publish vs the flat-materializing first decision, same snapshot state
FIRST_DECISION_SPEEDUP_FLOOR = 2.0

#: acceptance ceiling (ISSUE 8): the segment-direct first decision may
#: cost at most this multiple of a warm decision on the same snapshot
WARM_RATIO_CEILING = 1.2

#: acceptance floor (ISSUE 8): pruned evaluate vs full-store evaluate
#: at ``n_shards`` shards, ``spill=0``
PRUNED_SPEEDUP_FLOOR = 3.0

FULL_SCALE = dict(
    n_calibration=12_000,
    n_classes=32,
    n_features=48,
    n_shards=16,
    decision_batch=2,
    pruned_batch=256,
    fold_batch=32,
    rounds=7,
)

SMOKE_SCALE = dict(
    # the calibration set must clear SEGMENT_DIRECT_MIN_ROWS or the
    # view falls back to flat and the smoke run measures nothing
    n_calibration=SEGMENT_DIRECT_MIN_ROWS + 600,
    n_classes=8,
    n_features=16,
    n_shards=4,
    decision_batch=2,
    pruned_batch=64,
    fold_batch=16,
    rounds=3,
)

#: the coverage study's spill sweep (1.0 last: asserted bit-identical)
SPILL_SWEEP = (0.0, 0.25, 0.5, 1.0)


class _ProjectionModel:
    """Deterministic softmax projection: no training noise in the bench.

    Deliberately *narrow* (unlike the async-serving bench's wide MLP):
    the costs under measurement are the detector's evaluate kernels and
    the flat-materialization tax, so the model forward pass is kept to
    a rounding error.
    """

    def __init__(self, n_features, n_classes, hidden=64, seed=0):
        generator = np.random.default_rng(seed)
        self._hidden = generator.normal(size=(n_features, hidden))
        self._head = generator.normal(size=(hidden, n_classes))
        self.classes_ = np.arange(n_classes)

    def fit(self, X, y):
        return self

    def partial_fit(self, X, y, epochs: int = 1):
        return self

    def predict_proba(self, X):
        activations = np.tanh(np.asarray(X, dtype=float) @ self._hidden)
        logits = activations @ self._head
        logits -= logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        return exp / exp.sum(axis=1, keepdims=True)


class _ServingInterface(ModelInterface):
    def feature_extraction(self, X):
        return np.asarray(X)


def _batch(n, n_features, seed=0, shift=0.0):
    generator = np.random.default_rng(seed)
    return generator.normal(size=(n, n_features)) + shift


def _make_interface(scale, seed=0):
    model = _ProjectionModel(scale["n_features"], scale["n_classes"], seed=seed)
    interface = _ServingInterface(
        model,
        max_calibration=scale["n_calibration"],
        seed=seed,
        n_shards=scale["n_shards"],
        router="hash",
    )
    X_cal = _batch(scale["n_calibration"], scale["n_features"], seed=seed)
    generator = np.random.default_rng(seed + 1)
    y_cal = generator.integers(0, scale["n_classes"], scale["n_calibration"])
    interface.model.fit(X_cal, y_cal)
    interface.calibrate(X_cal, y_cal)
    return interface


def _single_shard_fold(interface, scale, seed=0):
    """A fold batch the hash router sends to exactly one shard."""
    generator = np.random.default_rng(seed + 7)
    candidates = _batch(4096, scale["n_features"], seed=42)
    routes = interface.streaming.store.router.route(candidates)
    single = candidates[routes == 0][: scale["fold_batch"]]
    y_single = generator.integers(0, scale["n_classes"], len(single))
    return single, y_single


def measure_first_decision(scale, seed=0) -> dict:
    """First decision behind a publish: segment-direct vs flat concat.

    Each round publishes a fresh single-touched-shard snapshot and
    times the first evaluate against it, alternating the two worlds on
    identical state:

    * *segment-direct* — evaluate with the compose bundle pending; the
      kernels iterate the canonical GEMM panels over the blocks, and
      the bundle **stays pending afterwards** (verified each round);
    * *flat* — the pre-ISSUE-8 behaviour, reproduced by firing the
      snapshot's compose hook inside the timed region (the ``O(n)``
      concat of every column) before the same evaluate.  Evaluate
      reads the bundle's view whether or not the flat state exists, so
      ``first_decision_flat_ms`` measures the deferred concat plus the
      same view evaluate; there is no separate flat-array kernel path.

    Decision traffic keeps flowing against the *previous* snapshot
    while each publish drains — the steady-serving regime, so the
    allocator and CPU caches are in their production-hot state when
    the first decision lands (an idle gap before the first decision
    inflates both worlds equally and measures the gap, not the tax).

    ``warm_decision_ms`` is the same batch again on the segment-direct
    snapshot — the steady-state decision cost that
    ``first_decision_segment_ms`` must stay within 1.2x of.  All three
    figures are **medians over rounds** rather than the other benches'
    best-of: the flat-concat tax under measurement varies with
    allocator state, and a best-of-42-warm vs best-of-7-first
    comparison is biased by sample count alone — medians over equal
    per-round draws are the symmetric estimator.
    """
    interface = _make_interface(scale, seed=seed)
    X_eval = _batch(scale["decision_batch"], scale["n_features"], seed=77)
    proba = interface.model.predict_proba(X_eval)
    fold_X, fold_y = _single_shard_fold(interface, scale, seed=seed)

    segment_ms, flat_ms, warm_ms = [], [], []
    stayed_pending = True
    with AsyncServingLoop(interface) as loop:
        loop.predict(X_eval)  # warm the initial snapshot
        for round_id in range(scale["rounds"]):
            # --- segment-direct first decision ---
            previous = loop.snapshot.interface.prom
            loop.submit_fold(fold_X, fold_y)
            loop.drain(timeout=300)
            for _ in range(4):
                previous.evaluate(X_eval, proba)  # steady traffic
            prom = loop.snapshot.interface.prom
            started = time.perf_counter()
            prom.evaluate(X_eval, proba)
            segment_ms.append((time.perf_counter() - started) * 1e3)
            stayed_pending &= current_bundle(prom).fields["_features"].cached_flat is None
            for _ in range(6):
                started = time.perf_counter()
                prom.evaluate(X_eval, proba)
                warm_ms.append((time.perf_counter() - started) * 1e3)

            # --- flat-materializing first decision, next publish ---
            previous = prom
            loop.submit_fold(fold_X, fold_y)
            loop.drain(timeout=300)
            for _ in range(4):
                previous.evaluate(X_eval, proba)
            prom = loop.snapshot.interface.prom
            started = time.perf_counter()
            prom._compose_hook()  # the pre-ISSUE-8 flat concat
            prom.evaluate(X_eval, proba)
            flat_ms.append((time.perf_counter() - started) * 1e3)
        prewarm_ms = loop.stats.total_prewarm_seconds * 1e3 / max(
            1, loop.stats.snapshots_published
        )

    med_segment = float(np.median(segment_ms))
    med_flat = float(np.median(flat_ms))
    med_warm = float(np.median(warm_ms))
    return {
        "n_calibration": scale["n_calibration"],
        "n_shards": scale["n_shards"],
        "n_features": scale["n_features"],
        "decision_batch": scale["decision_batch"],
        "segment_direct_supported": segment_direct_supported(),
        "first_decision_segment_ms": round(med_segment, 4),
        "first_decision_flat_ms": round(med_flat, 4),
        "warm_decision_ms": round(med_warm, 4),
        "first_decision_speedup": round(med_flat / med_segment, 2),
        "first_decision_vs_warm_ratio": round(med_segment / med_warm, 3),
        "view_prewarm_per_publish_ms": round(prewarm_ms, 4),
        "bundle_stayed_pending": stayed_pending,
    }


def measure_pruned_evaluate(scale, seed=0) -> dict:
    """Full-store evaluate vs ``CandidatePruner(spill=0)``, same state.

    The pruner restricts each test sample's distance GEMM and p-value
    gather to its primary shard's blocks, so the kernel scores
    ~``1/n_shards`` of the calibration set.  Both paths run against the
    same pending-bundle snapshot, warmed first so the view, panel and
    candidate-restriction caches are populated (the steady-state
    serving regime); best-of-rounds each.
    """
    interface = _make_interface(scale, seed=seed)
    X_eval = _batch(scale["pruned_batch"], scale["n_features"], seed=88)
    proba = interface.model.predict_proba(X_eval)
    fold_X, fold_y = _single_shard_fold(interface, scale, seed=seed)

    with AsyncServingLoop(interface) as loop:
        loop.predict(X_eval[:1])
        loop.submit_fold(fold_X, fold_y)  # leave a bundle pending
        loop.drain(timeout=300)
        prom = loop.snapshot.interface.prom
        pruner = CandidatePruner(
            router=interface.streaming.store.router, spill=0.0
        )

        prom.evaluate(X_eval, proba)  # warm the unpruned path
        prom._pruner = pruner
        pruned_batch = prom.evaluate(X_eval, proba)  # warm the pruned path
        del prom._pruner

        unpruned_ms, pruned_ms = [], []
        for _ in range(scale["rounds"]):
            started = time.perf_counter()
            prom.evaluate(X_eval, proba)
            unpruned_ms.append((time.perf_counter() - started) * 1e3)
            prom._pruner = pruner
            started = time.perf_counter()
            prom.evaluate(X_eval, proba)
            pruned_ms.append((time.perf_counter() - started) * 1e3)
            del prom._pruner
        n_store = len(interface.streaming.store)

    best_unpruned = min(unpruned_ms)
    best_pruned = min(pruned_ms)
    total_candidates = scale["pruned_batch"] * n_store
    return {
        "n_calibration": n_store,
        "n_shards": scale["n_shards"],
        "pruned_batch": scale["pruned_batch"],
        "spill": 0.0,
        "unpruned_ms": round(best_unpruned, 4),
        "pruned_ms": round(best_pruned, 4),
        "pruned_speedup": round(best_unpruned / best_pruned, 2),
        "candidates_scored_fraction": round(
            pruned_batch.n_candidates_scored / total_candidates, 4
        ),
        "shards_pruned_per_sample": round(
            pruned_batch.n_shards_pruned / scale["pruned_batch"], 2
        ),
    }


def measure_coverage_vs_spill(n_test=200, seed=0) -> dict:
    """Decision agreement vs the unpruned path as spill sweeps 0 -> 1.

    The honest side of the pruning trade: on a clustered, drifted
    stream (the regime pruning is *for*), how many of the unpruned
    path's accept/reject decisions survive each spill setting, per
    router.  The two routers fail differently — a hash shard is an
    unbiased ``1/n_shards`` random subsample of the calibration set,
    so its pruned p-values degrade gracefully; a cluster shard is the
    test sample's *local* neighbourhood, which under drift is exactly
    the region the sample no longer belongs to, so low spill depresses
    p-values and acceptance much harder (measured at spill=0: ~0.78
    agreement for hash vs ~0.55 for cluster, acceptance 0.52 vs 0.25
    against 0.70 unpruned).  ``spill=1.0`` must reproduce the unpruned
    decisions bit-identically (asserted by the caller, smoke included).
    """
    n_calibration = SEGMENT_DIRECT_MIN_ROWS + 352
    n_shards = 4

    def clustered(n, sweep_seed, shift=0.0):
        g = np.random.default_rng(sweep_seed)
        centers = g.normal(size=(n_shards, 8)) * 6.0
        assignment = g.integers(0, n_shards, n)
        features = centers[assignment] + g.normal(size=(n, 8)) * 0.5 + shift
        raw = g.random((n, n_shards)) + 0.05
        return features, raw / raw.sum(axis=1, keepdims=True), assignment

    outcome = {}
    for router in ("cluster", "hash"):
        streaming = StreamingPromClassifier(
            capacity=n_calibration + 400,
            eviction="fifo",
            n_shards=n_shards,
            router=router,
            seed=seed,
        )
        streaming.calibrate(*clustered(n_calibration, sweep_seed=11))
        streaming.update(*clustered(60, sweep_seed=12, shift=1.5))
        features, proba, _ = clustered(n_test, sweep_seed=13, shift=1.5)
        unpruned = streaming.evaluate(features, proba)
        total = n_test * len(streaming.store)
        agreement, scored, acceptance = [], [], []
        for spill in SPILL_SWEEP:
            streaming.prom._pruner = CandidatePruner(
                router=streaming.store.router, spill=spill
            )
            pruned = streaming.evaluate(features, proba)
            agreement.append(
                round(float(np.mean(pruned.accepted == unpruned.accepted)), 4)
            )
            scored.append(round(pruned.n_candidates_scored / total, 4))
            acceptance.append(round(float(np.mean(pruned.accepted)), 4))
        del streaming.prom._pruner
        outcome[router] = {
            "n_calibration": len(streaming.store),
            "n_shards": n_shards,
            "n_test": n_test,
            "spills": list(SPILL_SWEEP),
            "agreement_with_unpruned": agreement,
            "candidates_scored_fraction": scored,
            "acceptance_rate": acceptance,
            "unpruned_acceptance_rate": round(
                float(np.mean(unpruned.accepted)), 4
            ),
        }
    return outcome


def _assert_exact_at_full_spill(coverage: dict) -> None:
    """``spill=1.0`` is the exact mode: agreement must be 1.0."""
    for router, study in coverage.items():
        full_spill = study["agreement_with_unpruned"][-1]
        assert full_spill == 1.0, (
            f"prune_spill=1.0 disagreed with the unpruned path on the "
            f"{router} router (agreement {full_spill}) — the exact-mode "
            f"contract is broken"
        )


def test_first_decision_after_publish():
    """ISSUE 8 acceptance: flat-concat tax gone from the decision path."""
    outcome = measure_first_decision(FULL_SCALE)
    update_bench_json("BENCH_segment_eval.json", {"first_decision": outcome})
    assert outcome["bundle_stayed_pending"], (
        "segment-direct evaluate materialized the flat state — the "
        "deferred concat fired on the decision path"
    )
    assert outcome["first_decision_speedup"] >= FIRST_DECISION_SPEEDUP_FLOOR, (
        f"segment-direct first decision only "
        f"{outcome['first_decision_speedup']:.2f}x faster than the "
        f"flat-materializing path (floor {FIRST_DECISION_SPEEDUP_FLOOR}x)"
    )
    assert outcome["first_decision_vs_warm_ratio"] <= WARM_RATIO_CEILING, (
        f"first decision after publish costs "
        f"{outcome['first_decision_vs_warm_ratio']:.2f}x a warm decision "
        f"(ceiling {WARM_RATIO_CEILING}x)"
    )


def test_pruned_evaluate_speedup():
    """ISSUE 8 acceptance: pruned evaluate >= 3x at 16 shards."""
    outcome = measure_pruned_evaluate(FULL_SCALE)
    update_bench_json("BENCH_segment_eval.json", {"pruned_evaluate": outcome})
    assert outcome["pruned_speedup"] >= PRUNED_SPEEDUP_FLOOR, (
        f"shard-pruned evaluate only {outcome['pruned_speedup']:.2f}x "
        f"faster than the full-store evaluate at "
        f"{outcome['n_shards']} shards (floor {PRUNED_SPEEDUP_FLOOR}x)"
    )


def test_coverage_vs_spill():
    """The documented trade: agreement per spill setting, per router."""
    outcome = measure_coverage_vs_spill()
    update_bench_json("BENCH_segment_eval.json", {"coverage_vs_spill": outcome})
    _assert_exact_at_full_spill(outcome)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes, no perf assertions, nothing written to out/",
    )
    args = parser.parse_args()
    if args.smoke:
        coverage = measure_coverage_vs_spill(n_test=60)
        summary = {
            "smoke": True,
            "first_decision": measure_first_decision(SMOKE_SCALE),
            "pruned_evaluate": measure_pruned_evaluate(SMOKE_SCALE),
            "coverage_vs_spill": coverage,
        }
        # exact-mode bit-identity is deterministic, not a perf figure:
        # it holds at any scale, so the smoke pass keeps the tripwire
        _assert_exact_at_full_spill(coverage)
        print(json.dumps(summary, indent=2, sort_keys=True))
        return
    test_first_decision_after_publish()
    test_pruned_evaluate_speedup()
    test_coverage_vs_spill()
    print("BENCH_segment_eval.json updated")


if __name__ == "__main__":
    main()
