"""The evaluate boundary fails closed on misaligned and out-of-range inputs.

The evaluate kernels split every chunk's rows across lanes and slice
each input by row, so a batch whose feature rows, model outputs and
predicted labels disagree in length — or whose predicted labels fall
outside the calibrated label space — raises ``ValidationError`` before
any kernel runs, instead of a bare ``ValueError``/``IndexError`` from
deep inside, or a silent wrap-around of label ``-1`` to the last class.
"""

import numpy as np
import pytest

from repro.core import (
    PromClassifier,
    PromRegressor,
    StreamingPromClassifier,
    ValidationError,
)

N_CLASSES = 4
N_TEST = 10


def _classification(n, seed):
    g = np.random.default_rng(seed)
    raw = g.random((n, N_CLASSES)) + 0.05
    return (
        g.normal(size=(n, 6)),
        raw / raw.sum(axis=1, keepdims=True),
        g.integers(0, N_CLASSES, n),
    )


def _regression(n, seed):
    g = np.random.default_rng(seed)
    features = g.normal(size=(n, 5))
    targets = features[:, 0] + np.sin(features[:, 1])
    return features, targets + g.normal(scale=0.2, size=n), targets


@pytest.fixture(scope="module")
def classifier():
    return PromClassifier().calibrate(*_classification(300, seed=0))


@pytest.fixture(scope="module")
def regressor():
    return PromRegressor(n_clusters=3).calibrate(*_regression(300, seed=0))


@pytest.fixture(scope="module")
def test_batch():
    return _classification(N_TEST, seed=1)


@pytest.mark.parametrize("label", [-1, N_CLASSES])
@pytest.mark.parametrize("method", ["evaluate", "evaluate_serial"])
def test_out_of_range_labels_rejected(classifier, test_batch, method, label):
    features, probabilities, _ = test_batch
    with pytest.raises(ValidationError, match="predicted labels"):
        getattr(classifier, method)(features, probabilities, np.full(N_TEST, label))


def test_one_bad_label_in_a_batch_rejected(classifier, test_batch):
    features, probabilities, labels = test_batch
    labels = labels.copy()
    labels[3] = N_CLASSES + 2
    with pytest.raises(ValidationError):
        classifier.evaluate(features, probabilities, labels)


@pytest.mark.parametrize(
    "n_features,n_probabilities,n_labels",
    [(N_TEST, N_TEST - 3, N_TEST), (N_TEST - 3, N_TEST, N_TEST), (N_TEST, N_TEST, 7), (N_TEST, N_TEST, 12)],
)
def test_misaligned_rows_rejected(classifier, test_batch, n_features, n_probabilities, n_labels):
    features, probabilities, labels = test_batch
    labels = np.resize(labels, n_labels)
    with pytest.raises(ValidationError, match="rows"):
        classifier.evaluate(features[:n_features], probabilities[:n_probabilities], labels)


def test_prediction_region_rejects_misaligned_rows(classifier, test_batch):
    features, probabilities, _ = test_batch
    with pytest.raises(ValidationError, match="rows"):
        classifier.prediction_region_batch(features, probabilities[:-1])


def test_streaming_wrapper_rejects_bad_labels(test_batch):
    streaming = StreamingPromClassifier(capacity=400, n_shards=2, seed=0)
    streaming.calibrate(*_classification(300, seed=0))
    features, probabilities, _ = test_batch
    with pytest.raises(ValidationError):
        streaming.evaluate(features, probabilities, np.full(N_TEST, -1))


@pytest.mark.parametrize("n_predictions", [7, 12])
@pytest.mark.parametrize("method", ["evaluate", "evaluate_serial"])
def test_regressor_misaligned_predictions_rejected(regressor, method, n_predictions):
    features, predictions, _ = _regression(N_TEST, seed=2)
    with pytest.raises(ValidationError, match="rows"):
        getattr(regressor, method)(features, np.resize(predictions, n_predictions))


def test_valid_inputs_still_evaluate(classifier, regressor, test_batch):
    features, probabilities, labels = test_batch
    labels = labels.copy()
    labels[:2] = (0, N_CLASSES - 1)
    assert len(classifier.evaluate(features, probabilities, labels)) == N_TEST
    assert len(classifier.evaluate(features[:0], probabilities[:0])) == 0
    features, predictions, _ = _regression(N_TEST, seed=2)
    assert len(regressor.evaluate(features, predictions)) == N_TEST
