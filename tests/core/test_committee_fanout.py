"""Row fan-out: the rows of one evaluate chunk are split across the lanes
of a process-wide thread pool (DESIGN.md §2).

The chunk's distance GEMMs keep their shapes (one per canonical panel
over all of the chunk's rows, the panels dealt out to the lanes), and
every later step — selection, label binning, the experts and the vote —
works row by row on a lane's contiguous slice, so the decisions must be
**bit-identical** whichever lane width runs them.  The width is forced
by monkeypatching ``_fan_out_width`` and ``_FAN_OUT_MIN_CELLS`` (no
config field or environment variable exists for either), and width 1,
the one-lane run on the calling thread, is the oracle.  The grid covers
chunks with fewer rows than lanes, uneven splits with a one-row lane,
``keep == n`` selections, multiply-mode and two-tailed experts,
``prediction_region_batch``, the regressor and a shard-pruned runtime.
Spies on ``argpartition``, the binning and the p-value kernel prove the
wide runs really left the calling thread.  On top of that: a forked
child rebuilds the pool instead of waiting on the dead one it
inherited, evaluator processes spawned after the parent fanned out stay
bit-identical to in-process ``predict``, and two threads evaluating one
snapshot at once agree with a one-lane evaluate.
"""

import multiprocessing
import threading

import numpy as np
import pytest

import repro.core.prom as prom_module
from repro.core import (
    ModelInterface,
    ProcessServingPool,
    PromClassifier,
    PromRegressor,
    StreamingPromClassifier,
)
from repro.core.pruning import CandidatePruner
from repro.core.segments import current_bundle
from repro.core.weighting import UniformWeighting
from repro.ml import MLPClassifier

from ..conftest import make_blobs

N_CAL = 2400
#: 256 test rows x 1200 selected cells clears the one-lane cutoff
N_TEST = 256
#: seconds a forked evaluate may take before it counts as hung
FORK_TIMEOUT = 60
#: forced lane widths compared against the one-lane oracle
WIDTHS = (2, 3)
#: (test rows, chunk_size): fewer rows than lanes at width 3, a one-row
#: lane at width 3, an uneven split, and five chunks whose last holds 3
BATCHES = ((2, None), (4, None), (7, None), (23, 5))


def _classification(n, seed, n_classes=5, n_features=8):
    g = np.random.default_rng(seed)
    raw = g.random((n, n_classes)) + 0.05
    return (
        g.normal(size=(n, n_features)),
        raw / raw.sum(axis=1, keepdims=True),
        g.integers(0, n_classes, n),
    )


def _regression(n, seed, n_features=6):
    g = np.random.default_rng(seed)
    features = g.normal(size=(n, n_features))
    targets = 2.0 * features[:, 0] + np.sin(features[:, 1])
    return features, targets + g.normal(scale=0.2, size=n), targets


def _assert_decisions_identical(a, b):
    for field in (
        "accepted",
        "credibility",
        "confidence",
        "expert_credibility",
        "expert_confidence",
        "expert_set_size",
        "expert_accept",
        "n_candidates_scored",
        "n_shards_pruned",
    ):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


@pytest.fixture
def lanes(monkeypatch):
    """Force the lane width; record the thread of every spied kernel call.

    ``force(width)`` also drops the one-lane cutoff unless
    ``cutoff_kept=True``, so chunks of any size really fan out.
    """
    threads = {"argpartition": [], "binning": [], "pvalues": []}

    def spy(name, kernel):
        def record(*args, **kwargs):
            threads[name].append(threading.current_thread().name)
            return kernel(*args, **kwargs)

        return record

    monkeypatch.setattr(np, "argpartition", spy("argpartition", np.argpartition))
    monkeypatch.setattr(
        prom_module,
        "bin_subset_by_label",
        spy("binning", prom_module.bin_subset_by_label),
    )
    monkeypatch.setattr(
        prom_module,
        "pvalues_from_binning",
        spy("pvalues", prom_module.pvalues_from_binning),
    )
    cutoff = prom_module._FAN_OUT_MIN_CELLS

    def force(width, cutoff_kept=False):
        for calls in threads.values():
            calls.clear()
        monkeypatch.setattr(
            prom_module, "_fan_out_width", lambda n_rows: min(n_rows, width)
        )
        monkeypatch.setattr(
            prom_module, "_FAN_OUT_MIN_CELLS", cutoff if cutoff_kept else 0
        )
        return threads

    return force


def _pooled(names):
    return sum(name.startswith("prom-lane") for name in names)


@pytest.fixture(scope="module")
def classifier():
    features, probabilities, labels = _classification(N_CAL, seed=1)
    return PromClassifier().calibrate(features, probabilities, labels)


@pytest.fixture(scope="module")
def segmented_classifier():
    streaming = StreamingPromClassifier(capacity=N_CAL, n_shards=4, router="hash", seed=0)
    streaming.calibrate(*_classification(N_CAL - 200, seed=2))
    for round_id in range(3):
        streaming.update(*_classification(80, seed=10 + round_id))
    assert len(current_bundle(streaming.prom).evaluation_view().features.segments) == 4
    return streaming


def _calibrated(**kwargs):
    return PromClassifier(**kwargs).calibrate(*_classification(N_CAL, seed=1))


def _pruned_runtime():
    streaming = StreamingPromClassifier(
        capacity=N_CAL, n_shards=4, router="cluster", seed=0
    )
    streaming.calibrate(*_classification(N_CAL, seed=3))
    streaming.prom._pruner = CandidatePruner(
        router=streaming.store.router, spill=0.4
    )
    return streaming


def _regressor():
    features, predictions, targets = _regression(N_CAL, seed=3)
    regressor = PromRegressor(calibration_residuals="true", n_clusters=4)
    return regressor.calibrate(features, predictions, targets)


#: name -> (detector factory, evaluate(detector, n_rows, chunk_size))
CASES = {
    "classifier": (
        lambda: _calibrated(),
        lambda prom, n, chunk: prom.evaluate(*_classification(n, 7)[:2], chunk_size=chunk),
    ),
    "multiply_mode": (
        lambda: _calibrated(weight_mode="multiply"),
        lambda prom, n, chunk: prom.evaluate(*_classification(n, 7)[:2], chunk_size=chunk),
    ),
    "uniform_keep_all": (
        lambda: _calibrated(weighting=UniformWeighting()),
        lambda prom, n, chunk: prom.evaluate(*_classification(n, 7)[:2], chunk_size=chunk),
    ),
    "below_min_samples": (
        lambda: _calibrated(min_calibration=N_CAL + 1),
        lambda prom, n, chunk: prom.evaluate(*_classification(n, 7)[:2], chunk_size=chunk),
    ),
    "prediction_region": (
        lambda: _calibrated(),
        lambda prom, n, chunk: prom.prediction_region_batch(
            *_classification(n, 9)[:2], chunk_size=chunk
        ),
    ),
    "regressor": (
        _regressor,
        lambda prom, n, chunk: prom.evaluate(*_regression(n, 4)[:2], chunk_size=chunk),
    ),
    "pruned_runtime": (
        _pruned_runtime,
        lambda runtime, n, chunk: runtime.prom.evaluate(
            *_classification(n, 8)[:2], chunk_size=chunk
        ),
    ),
}


@pytest.fixture(scope="module")
def detectors():
    """One detector per case, built on first use and shared by the grid."""
    built = {}

    def get(name):
        if name not in built:
            built[name] = CASES[name][0]()
        return built[name]

    return get


def _assert_identical(a, b):
    if isinstance(a, np.ndarray):
        assert np.array_equal(a, b)
    else:
        _assert_decisions_identical(a, b)


class TestWidthIdentity:
    @pytest.mark.parametrize("n_rows,chunk_size", BATCHES)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_forced_widths_match_one_lane(
        self, lanes, detectors, case, n_rows, chunk_size
    ):
        detector = detectors(case)
        run = CASES[case][1]
        lanes(1)
        oracle = run(detector, n_rows, chunk_size)
        for width in WIDTHS:
            threads = lanes(width)
            wide = run(detector, n_rows, chunk_size)
            _assert_identical(oracle, wide)
            assert _pooled(threads["binning"]) > 0

    def test_segment_direct_evaluate(self, lanes, segmented_classifier):
        features, probabilities, _ = _classification(N_TEST, seed=8)
        lanes(1)
        serial = segmented_classifier.evaluate(features, probabilities)
        for width in WIDTHS:
            threads = lanes(width, cutoff_kept=True)
            wide = segmented_classifier.evaluate(features, probabilities)
            assert _pooled(threads["pvalues"]) == (width - 1) * 4
            _assert_decisions_identical(serial, wide)
        view = current_bundle(segmented_classifier.prom).evaluation_view()
        assert len(view.features.segments) == 4

    def test_wide_runs_leave_the_calling_thread(self, lanes, classifier):
        features, probabilities, _ = _classification(N_TEST, seed=7)
        threads = lanes(2, cutoff_kept=True)
        classifier.evaluate(features, probabilities)
        caller = threading.current_thread().name
        for kernel in ("argpartition", "binning", "pvalues"):
            names = threads[kernel]
            # lane 0 is the calling thread, lane 1 a pool thread
            assert _pooled(names) > 0, kernel
            assert caller in names, kernel
            assert set(names) <= {caller} | {n for n in names if n.startswith("prom-lane")}
        # one binning per lane, four experts on each
        assert len(threads["binning"]) == 2
        assert _pooled(threads["pvalues"]) == len(classifier.functions)

    def test_small_chunks_stay_on_the_calling_thread(self, lanes, classifier):
        features, probabilities, _ = _classification(8, seed=5)
        threads = lanes(4, cutoff_kept=True)
        classifier.evaluate(features, probabilities)
        for names in threads.values():
            assert names and _pooled(names) == 0

    def test_evaluator_processes_run_serially(self, monkeypatch):
        monkeypatch.setattr(prom_module, "_serial_committee", False)
        assert prom_module._fan_out_width(4) >= 1
        assert prom_module._fan_out_width(1) == 1
        prom_module.use_serial_committee()
        assert prom_module._fan_out_width(4) == 1


class BlobInterface(ModelInterface):
    def feature_extraction(self, X):
        return np.asarray(X)


def _evaluate_in_child(writer, prom, features, probabilities, threads):
    threads.clear()
    decisions = prom.evaluate(features, probabilities)
    writer.send((decisions.accepted, decisions.expert_credibility, list(threads)))
    writer.close()


class TestFork:
    def test_forked_child_rebuilds_the_pool(self, lanes, classifier):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        features, probabilities, _ = _classification(N_TEST, seed=11)
        threads = lanes(2, cutoff_kept=True)["pvalues"]
        parent = classifier.evaluate(features, probabilities)
        assert _pooled(threads) > 0
        assert prom_module._lane_pool.cache_info().currsize == 1
        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)
        child = ctx.Process(
            target=_evaluate_in_child,
            args=(writer, classifier, features, probabilities, threads),
        )
        child.start()
        writer.close()
        try:
            if not reader.poll(FORK_TIMEOUT):
                pytest.fail("forked evaluate hung on the inherited lane pool")
            accepted, expert_credibility, child_threads = reader.recv()
        finally:
            child.kill()
            child.join()
        assert _pooled(child_threads) > 0
        assert np.array_equal(accepted, parent.accepted)
        assert np.array_equal(expert_credibility, parent.expert_credibility)

    def test_process_pool_after_parent_fan_out(self, lanes):
        interface = BlobInterface(
            MLPClassifier(epochs=10, seed=0), max_calibration=N_CAL, seed=0
        )
        interface.train(*make_blobs(400, seed=0))
        interface.calibrate(*make_blobs(N_CAL, seed=1))
        X, _ = make_blobs(N_TEST, shift=1.0, seed=2)
        threads = lanes(2, cutoff_kept=True)["pvalues"]
        interface.predict(X)
        assert _pooled(threads) > 0
        expected = interface.predict(X)
        pool = ProcessServingPool(interface, n_workers=1, start_method="fork")
        replies = []
        request = threading.Thread(
            target=lambda: replies.append(pool.predict(X)), daemon=True
        )
        request.start()
        request.join(FORK_TIMEOUT)
        if request.is_alive():
            for process, _ in pool._workers:
                process.kill()
            pytest.fail("evaluator process hung after the parent fanned out")
        pool.close()
        predictions, decisions = replies[0]
        assert np.array_equal(predictions, expected[0])
        _assert_decisions_identical(decisions, expected[1])


@pytest.mark.concurrency
def test_two_threads_evaluate_one_snapshot(lanes, segmented_classifier):
    snapshot = segmented_classifier.detector_snapshot()
    features, probabilities, _ = _classification(N_TEST, seed=12)
    lanes(1)
    expected = snapshot.evaluate(features, probabilities)
    threads = lanes(2, cutoff_kept=True)["pvalues"]
    results = [None, None]
    barrier = threading.Barrier(2)

    def evaluate(slot):
        barrier.wait()
        results[slot] = snapshot.evaluate(features, probabilities)

    workers = [threading.Thread(target=evaluate, args=(slot,)) for slot in range(2)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(FORK_TIMEOUT)
    assert not any(worker.is_alive() for worker in workers)
    # each evaluate runs one of its two lanes on the pool
    assert _pooled(threads) == 2 * len(snapshot.functions)
    for result in results:
        _assert_decisions_identical(result, expected)
