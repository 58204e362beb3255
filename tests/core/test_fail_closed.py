"""Calibration inputs fail closed on NaN and inf.

Every path that writes calibration state (``calibrate``, streaming
``update``/``replace_outputs``; ``refresh`` re-reads the store, which
can then only hold finite rows) validates its batch before anything
changes, so a non-finite feature, model output or target raises
``ValidationError`` and leaves store, tau and decisions as they were.
"""

import numpy as np
import pytest

from repro.core import (
    PromClassifier,
    PromRegressor,
    StreamingPromClassifier,
    StreamingPromRegressor,
    ValidationError,
)

N_CALIBRATION = 300
COLUMNS = {"features": 0, "outputs": 1, "targets": 2}


def _classification(n, seed):
    g = np.random.default_rng(seed)
    raw = g.random((n, 4)) + 0.05
    return g.normal(size=(n, 6)), raw / raw.sum(axis=1, keepdims=True), g.integers(0, 4, n)


def _regression(n, seed):
    g = np.random.default_rng(seed)
    features = g.normal(size=(n, 5))
    targets = features[:, 0] + np.sin(features[:, 1])
    return features, targets + g.normal(scale=0.2, size=n), targets


def _poisoned(batch, column, value):
    """``batch`` as float copies with one cell of ``column`` set to ``value``."""
    batch = [np.array(array, dtype=float) for array in batch]
    batch[column].reshape(-1)[1] = value
    return batch


def _runtime(kind):
    if kind == "classifier":
        streaming = StreamingPromClassifier(capacity=400, n_shards=2, seed=0)
        streaming.calibrate(*_classification(N_CALIBRATION, seed=0))
        return streaming, _classification
    streaming = StreamingPromRegressor(capacity=400, n_shards=2, seed=0)
    streaming.calibrate(*_regression(N_CALIBRATION, seed=0))
    return streaming, _regression


def _decisions(streaming, make_batch):
    features, outputs, _ = make_batch(25, seed=9)
    return streaming.evaluate(features, outputs)


def test_nan_feature_row_is_not_folded():
    # the fail-open case this guards: the row used to be folded (store
    # 300 -> 305), the resolved tau became NaN, and every later
    # decision carried NaN credibility
    streaming, make_batch = _runtime("classifier")
    tau = streaming.prom.weighting.effective_tau
    batch = _poisoned(make_batch(5, seed=1), COLUMNS["features"], np.nan)
    with pytest.raises(ValidationError):
        streaming.update(*batch)
    assert len(streaming.store) == N_CALIBRATION
    assert streaming.prom.weighting.effective_tau == tau
    assert np.isfinite(_decisions(streaming, make_batch).credibility).all()


@pytest.mark.parametrize("kind", ["classifier", "regressor"])
@pytest.mark.parametrize("path", ["calibrate", "update", "replace_outputs"])
@pytest.mark.parametrize("column", sorted(COLUMNS))
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_streaming_paths_reject_non_finite(kind, path, column, value):
    streaming, make_batch = _runtime(kind)
    before = _decisions(streaming, make_batch)
    n = 5 if path == "update" else N_CALIBRATION
    batch = _poisoned(make_batch(n, seed=1), COLUMNS[column], value)
    with pytest.raises(ValidationError):
        getattr(streaming, path)(*batch)
    assert len(streaming.store) == N_CALIBRATION
    after = _decisions(streaming, make_batch)
    assert np.array_equal(before.accepted, after.accepted)
    assert np.array_equal(before.credibility, after.credibility)


@pytest.mark.parametrize(
    "detector, make_batch",
    [(PromClassifier, _classification), (PromRegressor, _regression)],
)
@pytest.mark.parametrize("column", sorted(COLUMNS))
def test_plain_calibrate_rejects_non_finite(detector, make_batch, column):
    batch = _poisoned(make_batch(N_CALIBRATION, seed=0), COLUMNS[column], np.nan)
    prom = detector()
    with pytest.raises(ValidationError):
        prom.calibrate(*batch)
    assert not prom.is_calibrated
