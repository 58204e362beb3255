"""The three deployment workloads of the benchmark and their metrics.

Every workload runs ``repro.deploy`` as a closed loop with one client
(the stream is consumed in arrival order, the next batch is served
once the previous step returned) over the same deployment:

* a synthetic 32-class Gaussian-mixture "code feature" generator with
  48 features, seeded by the workload seed — the paper's task corpora
  hold a few hundred samples, too few for a 12k-row calibration store;
* a ``repro.ml.MLPClassifier`` (its ``partial_fit`` really retrains);
* a calibration store of 12k rows in 16 hash shards.

The seed draws the calibration set and :attr:`Scale.n_streams`
independent streams.  A run is a sequence of *episodes*.  Each episode
sets up a fresh interface from the fitted model (the set-up the
``setup_s`` metric times) and deploys one whole stream, so every episode
of a synchronous workload on a stream is an exact replay of the first
one on it.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import hashlib
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from repro import (
    CheckpointConfig,
    LoopConfig,
    ModelInterface,
    ProcessPoolConfig,
    ProcessServingPool,
    ServingConfig,
    deploy,
)
from repro.ml import MLPClassifier

from tracing import LAYER_NAMES, Patches, ServeProbe, Tracer


@dataclass(frozen=True)
class Scale:
    """Deployment size: store, generator and stream lengths."""

    n_classes: int
    n_features: int
    n_train: int
    n_calibration: int
    n_shards: int
    n_probe: int
    #: independent streams a run deploys in turn: the metrics average
    #: over them instead of hanging on a single stream's trigger history
    n_streams: int
    stream_divisor: int = 1


FULL = Scale(
    n_classes=32, n_features=48, n_train=6000, n_calibration=12_000, n_shards=16, n_probe=4000,
    n_streams=4,
)
#: seconds-long pass for the benchmark's own test
SMOKE = Scale(
    n_classes=8,
    n_features=16,
    n_train=800,
    n_calibration=1500,
    n_shards=4,
    n_probe=200,
    n_streams=2,
    stream_divisor=8,
)

#: the class geometry, the deployed model and the drifted probe it is
#: scored on are the deployment's task and stay fixed; the workload seed
#: draws the calibration set and the stream
GEOMETRY_SEED = 0
#: centroid spread of the mixture: ~92% in-distribution accuracy
SEPARATION = 0.6
#: share of the way each class moves toward another class's centroid
#: once the drift sets in: the model's accuracy falls to about a third
#: and the default trigger (window 100, threshold 0.3) fires on most
#: drifted batches
DRIFT = 0.5
#: share of a drift stream served before the shift.  With the last three
#: eighths drifted, about a third of the steps carry a model update and
#: calibration rebuild: the step p50 falls among the plain steps and the
#: p90 among the rebuilds, away from the rank where a percentile would
#: flip from one mode to the other between runs
DRIFT_ONSET = 0.625
#: the model's Adam step: small enough that a partial_fit on a handful
#: of relabelled samples adjusts the model instead of overwriting it
LEARNING_RATE = 0.0005
#: rows of the fixed batch the pooled decisions are checked on
POOL_CHECK_ROWS = 64


@dataclass(frozen=True)
class Workload:
    """One closed-loop deployment set-up."""

    name: str
    batch: int
    batches: int
    #: share of the stream served before the drift sets in (1.0: none)
    drift_onset: float
    pooled: bool
    #: mutations (sync) or publishes (async) between checkpoints; None: off
    checkpoint_every: int | None

    def serving(self) -> ServingConfig:
        if self.pooled:
            return ServingConfig(pool=ProcessPoolConfig(workers=1))
        return ServingConfig(asynchronous=False)


WORKLOADS = {
    # Evaluate kernels do nearly all the work: folds are a few rows per
    # batch and the trigger stays quiet.
    "serve_steady": Workload("serve_steady", 256, 16, 1.0, False, None),
    # Maintenance beside reads: once the stream drifts the trigger fires,
    # and partial_fit, calibration rebuilds and a checkpoint every fourth
    # mutation run inline with the decisions.  (A checkpoint after every
    # mutation makes the run-to-run spread about twice as wide: its fsyncs
    # add the disk's noise to every step.)
    "drift_feedback": Workload("drift_feedback", 64, 64, DRIFT_ONSET, False, 4),
    # Small batches through a 1-worker evaluator process while the
    # maintenance thread folds, rebuilds, publishes and checkpoints.
    "async_pool": Workload("async_pool", 16, 128, DRIFT_ONSET, True, 4),
}


class BenchInterface(ModelInterface):
    """The generator's features are the model's own inputs."""

    def feature_extraction(self, X):
        return np.asarray(X, dtype=float)


@dataclass
class Deployment:
    """Everything an episode needs, built once per run from the seed."""

    scale: Scale
    workload: Workload
    model: MLPClassifier
    X_cal: np.ndarray
    y_cal: np.ndarray
    #: ``(X, y)`` of each stream
    streams: tuple
    X_probe: np.ndarray
    y_probe: np.ndarray
    work_dir: str


def build_deployment(scale: Scale, workload: Workload, seed: int, work_dir: str) -> Deployment:
    """Generate the seed's data and fit the model."""
    geometry = np.random.default_rng(GEOMETRY_SEED)
    centroids = geometry.normal(size=(scale.n_classes, scale.n_features)) * SEPARATION
    # each class moves part of the way toward another class's centroid
    shift = DRIFT * (centroids[geometry.permutation(scale.n_classes)] - centroids)

    def draw(rng, n, drifted):
        labels = rng.integers(0, scale.n_classes, n)
        means = centroids + shift if drifted else centroids
        return means[labels] + rng.normal(size=(n, scale.n_features)), labels

    model = MLPClassifier(
        hidden_sizes=(64,),
        learning_rate=LEARNING_RATE,
        epochs=20,
        batch_size=64,
        seed=GEOMETRY_SEED,
    )
    model.fit(*draw(geometry, scale.n_train, False))
    X_probe, y_probe = draw(geometry, scale.n_probe, True)
    rng = np.random.default_rng(seed)
    X_cal, y_cal = draw(rng, scale.n_calibration, False)
    n_stream = workload.batch * max(2, workload.batches // scale.stream_divisor)
    n_head = int(n_stream * workload.drift_onset)
    streams = []
    for _ in range(scale.n_streams):
        X_head, y_head = draw(rng, n_head, False)
        X_tail, y_tail = draw(rng, n_stream - n_head, True)
        streams.append((np.concatenate([X_head, X_tail]), np.concatenate([y_head, y_tail])))
    return Deployment(
        scale, workload, model, X_cal, y_cal, tuple(streams), X_probe, y_probe, work_dir
    )


@dataclass
class Episode:
    """One set-up plus one deploy call over a whole stream."""

    stream: int
    traced: bool
    setup_s: float
    serve_wall_s: float
    deploy_wall_s: float
    serve_ms: list
    step_ms: list
    n_samples: int
    digest: str
    mispredicted: int
    mispredicted_flagged: int
    correct: int
    correct_flagged: int
    relabelled: int
    post_update_accuracy: float
    result: object = field(repr=False)
    checks: dict = field(default_factory=dict)


def _predict_equal(a, b) -> bool:
    """Whether two ``(predictions, decisions)`` pairs are bit-identical."""
    return (
        np.array_equal(a[0], b[0])
        and np.array_equal(a[1].accepted, b[1].accepted)
        and np.array_equal(a[1].credibility, b[1].credibility)
        and np.array_equal(a[1].confidence, b[1].confidence)
    )


def run_episode(dep: Deployment, stream: int, tracer: Tracer | None = None) -> Episode:
    """Set up a fresh interface and deploy stream ``stream`` through it.

    With ``tracer`` every layer of :data:`tracing.LAYERS` is wrapped
    for the duration of the deploy call; without it the serving call's
    timestamps are the only probe.
    """
    workload, scale = dep.workload, dep.scale
    X_stream, y_stream = dep.streams[stream]
    # earlier episodes leave reference cycles behind: without a collection
    # the peak RSS, and the heap an evaluator process forks from, grow
    # with the number of episodes a run fits
    gc.collect()
    started = time.perf_counter()
    interface = BenchInterface(
        copy.deepcopy(dep.model),
        max_calibration=scale.n_calibration,
        n_shards=scale.n_shards,
        router="hash",
    )
    interface.calibrate(dep.X_cal, dep.y_cal)
    calibrated = time.perf_counter()

    probe = ServeProbe()
    pool_check = {}
    # unwrapped, so the check below is not probed
    pool_predict = ProcessServingPool.predict
    interface_predict = ModelInterface.predict

    def checked_close(close):
        # the deploy call closes its pool once the loop drained and the
        # workers synced: the last moment the pool serves final state
        def close_after_check(pool):
            if not pool_check:
                X = dep.X_probe[:POOL_CHECK_ROWS]
                check_started = time.perf_counter()
                with tracer.paused() if tracer is not None else contextlib.nullcontext():
                    pool_check["matches"] = _predict_equal(
                        pool_predict(pool, X), interface_predict(interface, X)
                    )
                pool_check["seconds"] = time.perf_counter() - check_started
            return close(pool)

        return close_after_check

    checkpointing = CheckpointConfig()
    if workload.checkpoint_every is not None:
        checkpointing = CheckpointConfig(
            directory=tempfile.mkdtemp(prefix="ckpt-", dir=dep.work_dir),
            every=workload.checkpoint_every,
        )
    try:
        with Patches() as patches:
            if tracer is not None:
                tracer.install(patches)
            if workload.pooled:
                patches.wrap(ProcessServingPool, "predict", probe.wrap)
                patches.wrap(ProcessServingPool, "close", checked_close)
            else:
                patches.wrap(ModelInterface, "predict", probe.wrap)
            deploy_started = time.perf_counter()
            result = deploy(
                interface,
                X_stream,
                y_stream,
                loop=LoopConfig(batch_size=workload.batch),
                serving=workload.serving(),
                checkpointing=checkpointing,
            )
            deploy_ended = time.perf_counter()
    finally:
        if checkpointing.directory is not None:
            shutil.rmtree(checkpointing.directory, ignore_errors=True)

    calls = probe.calls
    first_serve = calls[0][0]
    check_s = pool_check.get("seconds", 0.0)
    checks = {}
    if pool_check:
        checks["pool_matches_in_process"] = pool_check["matches"]
    predictions = np.concatenate([np.asarray(c[2][0]) for c in calls])
    drifting = np.concatenate([c[2][1].drifting for c in calls])
    credibility = np.concatenate([np.asarray(c[2][1].credibility, dtype=float) for c in calls])
    digest = hashlib.sha256()
    for array in (predictions, drifting, credibility):
        digest.update(np.ascontiguousarray(array).tobytes())
    n = len(X_stream)
    checks["stream_served"] = (
        len(predictions) == n
        and len(drifting) == n
        and result.n_samples == n
        and len(result.steps) == len(calls)
        and all(len(c[2][0]) == len(c[2][1]) for c in calls)
    )
    checks["credibility_in_unit_interval"] = bool(
        np.all(np.isfinite(credibility)) and np.all((credibility >= 0) & (credibility <= 1))
    )
    checks["store_consistent"] = (
        0 < result.final_calibration_size <= scale.n_calibration
        and sum(result.final_shard_sizes) == result.final_calibration_size
        and len(result.final_shard_sizes) == scale.n_shards
    )
    wrong = predictions != y_stream
    probe_predictions = interface.model.classes_[
        np.argmax(interface.model.predict_proba(dep.X_probe), axis=1)
    ]
    return Episode(
        stream=stream,
        traced=tracer is not None,
        setup_s=(calibrated - started) + (first_serve - deploy_started),
        serve_wall_s=deploy_ended - first_serve - check_s,
        deploy_wall_s=deploy_ended - deploy_started - check_s,
        serve_ms=[(end - start) * 1000.0 for start, end, _ in calls],
        step_ms=[(b[0] - a[0]) * 1000.0 for a, b in zip(calls, calls[1:])],
        n_samples=n,
        digest=digest.hexdigest(),
        mispredicted=int(wrong.sum()),
        mispredicted_flagged=int((wrong & drifting).sum()),
        correct=int((~wrong).sum()),
        correct_flagged=int((~wrong & drifting).sum()),
        relabelled=result.n_relabelled,
        post_update_accuracy=float(np.mean(probe_predictions == dep.y_probe)),
        result=result,
        checks=checks,
    )


def operations(episode: Episode) -> tuple:
    """``(attempted, failed)`` operations of one episode.

    Operations are served batches, maintenance jobs and checkpoints.
    Failures are recorded errors (failed or dead-lettered jobs, failed
    checkpoints) plus jobs refused by a full queue.
    """
    result = episode.result
    served = len(result.steps)
    failed = len(result.errors)
    if result.serving is not None:
        attempted = served + result.serving.jobs_submitted
        failed += result.serving.jobs_dropped
    else:
        maintenance = sum(1 for step in result.steps if step.n_relabelled)
        checkpoint_failures = sum(1 for e in result.errors if e.kind == "checkpoint")
        attempted = served + maintenance + result.checkpoint_generations + checkpoint_failures
    return attempted, failed


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else float("nan")


def end_to_end_metrics(episodes, pooled: bool) -> dict:
    """The end-to-end metric values of the untraced episodes.

    Timings pool every episode.  The quality metrics come from the
    first episode on each stream, so a run's quality depends on its
    seed alone, not on how many replays fit in it.
    """
    firsts = list({e.stream: e for e in reversed(episodes)}.values())
    serve_ms = [ms for e in episodes for ms in e.serve_ms]
    step_ms = [ms for e in episodes for ms in e.step_ms]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if pooled:
        # the evaluator process, reaped when its pool closed
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": statistics.median(e.setup_s for e in episodes),
        "decisions_per_s": statistics.median(e.n_samples / e.serve_wall_s for e in episodes),
        "step_p50_ms": float(np.percentile(step_ms, 50)),
        "step_p90_ms": float(np.percentile(step_ms, 90)),
        "serve_p50_ms": float(np.percentile(serve_ms, 50)),
        "serve_p90_ms": float(np.percentile(serve_ms, 90)),
        "peak_rss_mb": rss_kb / 1024.0,
        "mispred_recall": _ratio(
            sum(e.mispredicted_flagged for e in firsts), sum(e.mispredicted for e in firsts)
        ),
        "false_alarm_rate": _ratio(
            sum(e.correct_flagged for e in firsts), sum(e.correct for e in firsts)
        ),
        "relabel_frac": _ratio(
            sum(e.relabelled for e in firsts), sum(e.n_samples for e in firsts)
        ),
        "post_update_accuracy": statistics.fmean(e.post_update_accuracy for e in firsts),
    }


def per_layer_metrics(tracer: Tracer, traced, untraced) -> dict:
    """Per-layer calls, self time and share, counters and trace cost."""
    calls, self_s, main_s = tracer.totals()
    wall = sum(e.deploy_wall_s for e in traced)
    metrics = {}
    for layer in LAYER_NAMES:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_ms"] = self_s[layer] * 1000.0
        metrics[f"{layer}.share"] = self_s[layer] / wall
    results = [e.result for e in traced]
    stats = [r.serving for r in results if r.serving is not None]
    exported = sum(s.shm_blocks_exported for s in stats)
    reused = sum(s.shm_blocks_reused for s in stats)
    metrics.update(
        {
            "serving.snapshots_published": sum(s.snapshots_published for s in stats),
            "serving.max_staleness": max((s.max_staleness for s in stats), default=0),
            "serving.jobs_coalesced": sum(s.jobs_coalesced for s in stats),
            "serving.decisions_during_maintenance": sum(
                s.decisions_during_maintenance for s in stats
            ),
            "shm.bytes_exported": sum(s.shm_bytes_exported for s in stats),
            "shm.reuse_ratio": reused / (exported + reused) if exported + reused else 0.0,
            "durability.generations": sum(r.checkpoint_generations for r in results),
            "triggers.fires": sum(r.n_trigger_fires for r in results),
            "streaming.rows_folded": sum(
                step.n_relabelled
                for r in results
                for step in r.steps
                if not step.model_updated and not step.n_lost_to_backpressure
            ),
            "trace.coverage": main_s / wall,
            "trace.untraced_decisions_per_s": sum(e.n_samples for e in untraced)
            / sum(e.serve_wall_s for e in untraced),
            "trace.traced_decisions_per_s": sum(e.n_samples for e in traced)
            / sum(e.serve_wall_s for e in traced),
        }
    )
    metrics["trace.overhead"] = (
        metrics["trace.untraced_decisions_per_s"] / metrics["trace.traced_decisions_per_s"] - 1.0
    )
    return metrics
