"""Committee fan-out: the conformal experts of one evaluate chunk run on a
process-wide thread pool (DESIGN.md §2).

Each expert's p-values and verdict are computed on their own, so the
decisions must be **bit-identical** whichever lane width runs them.
The width is forced by monkeypatching ``_fan_out_width`` (no config
field or environment variable exists for it), and a spy on the p-value
kernel proves the wide runs really left the calling thread.  On top of
that: a forked child rebuilds the pool instead of waiting on the dead
one it inherited, evaluator processes spawned after the parent fanned
out stay bit-identical to in-process ``predict``, and two threads
evaluating one snapshot at once agree with a serial evaluate.
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
from repro.ml import MLPClassifier

from ..conftest import make_blobs

N_CAL = 2400
#: 256 test rows x 1200 selected cells clears the serial cutoff
N_TEST = 256
#: seconds a forked evaluate may take before it counts as hung
FORK_TIMEOUT = 60


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
    ):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


@pytest.fixture
def lanes(monkeypatch):
    """Force the lane width; record the thread of every p-value call."""
    threads = []
    kernel = prom_module.pvalues_from_binning

    def spy(*args, **kwargs):
        threads.append(threading.current_thread().name)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(prom_module, "pvalues_from_binning", spy)

    def force(width):
        threads.clear()
        monkeypatch.setattr(
            prom_module, "_fan_out_width", lambda n_experts: min(n_experts, width)
        )
        return threads

    return force


def _pooled(threads):
    return sum(name.startswith("prom-committee") for name in threads)


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
    assert prom_module._segment_view(streaming.prom) is not None
    return streaming


class TestWidthIdentity:
    def test_classifier_evaluate(self, lanes, classifier):
        features, probabilities, _ = _classification(N_TEST, seed=7)
        lanes(1)
        serial = classifier.evaluate(features, probabilities)
        threads = lanes(2)
        wide = classifier.evaluate(features, probabilities)
        assert _pooled(threads) == len(classifier.functions)
        _assert_decisions_identical(serial, wide)

    def test_segment_direct_evaluate(self, lanes, segmented_classifier):
        features, probabilities, _ = _classification(N_TEST, seed=8)
        lanes(1)
        serial = segmented_classifier.evaluate(features, probabilities)
        threads = lanes(3)
        wide = segmented_classifier.evaluate(features, probabilities)
        assert _pooled(threads) == 4
        assert prom_module._segment_view(segmented_classifier.prom) is not None
        _assert_decisions_identical(serial, wide)

    def test_prediction_region_batch(self, lanes, classifier):
        features, probabilities, _ = _classification(N_TEST, seed=9)
        lanes(1)
        serial = classifier.prediction_region_batch(features, probabilities)
        threads = lanes(2)
        wide = classifier.prediction_region_batch(features, probabilities)
        assert _pooled(threads) == len(classifier.functions)
        assert np.array_equal(serial, wide)

    def test_regressor_evaluate(self, lanes):
        features, predictions, targets = _regression(N_CAL, seed=3)
        regressor = PromRegressor(calibration_residuals="true", n_clusters=4)
        regressor.calibrate(features, predictions, targets)
        test_features, test_predictions, _ = _regression(N_TEST, seed=4)
        lanes(1)
        serial = regressor.evaluate(test_features, test_predictions)
        threads = lanes(2)
        wide = regressor.evaluate(test_features, test_predictions)
        assert _pooled(threads) == len(regressor.score_functions)
        _assert_decisions_identical(serial, wide)

    def test_small_chunks_stay_on_the_calling_thread(self, lanes, classifier):
        features, probabilities, _ = _classification(8, seed=5)
        threads = lanes(4)
        classifier.evaluate(features, probabilities)
        assert threads and _pooled(threads) == 0

    def test_evaluator_processes_run_serially(self, monkeypatch):
        monkeypatch.setattr(prom_module, "_serial_committee", False)
        assert prom_module._fan_out_width(4) >= 1
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
        threads = lanes(2)
        parent = classifier.evaluate(features, probabilities)
        assert _pooled(threads) > 0
        assert prom_module._expert_pool.cache_info().currsize == 1
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
                pytest.fail("forked evaluate hung on the inherited committee pool")
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
        threads = lanes(2)
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
    threads = lanes(2)
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
    assert _pooled(threads) == 2 * len(snapshot.functions)
    for result in results:
        _assert_decisions_identical(result, expected)
