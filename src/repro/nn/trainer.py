"""A tiny trainable network for end-to-end accuracy experiments.

The paper reports ImageNet / GLUE accuracy of models compressed with BBS,
BitWave and PTQ.  We cannot evaluate those datasets offline, so the accuracy
experiments in this reproduction use (a) the paper's own distribution-level
proxy (KL divergence, Figure 6) and (b) a real — if small — end-to-end
measurement provided by this module: a multi-layer perceptron trained with
plain numpy on a synthetic non-linearly-separable classification task, whose
per-channel-quantized weights are then compressed by each method and whose
test accuracy is re-measured.  The *ordering* of the methods and the shape of
the accuracy-vs-compression trade-off are the quantities being reproduced;
absolute accuracies obviously differ from ImageNet.

The MLP uses manual backpropagation (no autograd dependency) with Adam, and
is deliberately over-parameterized for the task so that, like the paper's
8-bit baselines, INT8 quantization itself costs essentially no accuracy and
any degradation is attributable to the compression method under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import functional as F
from ..quant.ptq import quantize_per_channel

__all__ = [
    "ClassificationDataset",
    "make_classification_dataset",
    "MLPClassifier",
    "accuracy_under_compression",
]


@dataclass
class ClassificationDataset:
    """A train/test split of a synthetic classification problem."""

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray

    @property
    def num_features(self) -> int:
        return self.train_x.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.train_y.max()) + 1


def make_classification_dataset(
    num_samples: int = 4000,
    num_features: int = 64,
    num_classes: int = 10,
    test_fraction: float = 0.25,
    seed: int = 0,
) -> ClassificationDataset:
    """Build a non-linearly-separable Gaussian-cluster classification task.

    Each class is a mixture of two Gaussian clusters pushed through a fixed
    random rotation and a mild non-linearity, so a linear model underfits but
    a small MLP reaches high accuracy — leaving headroom for compression to
    visibly hurt.
    """
    rng = np.random.default_rng(seed)
    samples_per_class = num_samples // num_classes
    xs = []
    ys = []
    rotation = rng.normal(0, 1.0, size=(num_features, num_features)) / np.sqrt(num_features)
    for label in range(num_classes):
        for _ in range(2):  # two clusters per class
            center = rng.normal(0, 2.0, size=num_features)
            cluster = rng.normal(0, 1.0, size=(samples_per_class // 2, num_features)) + center
            xs.append(cluster)
            ys.append(np.full(cluster.shape[0], label))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    x = np.tanh(x @ rotation) + 0.1 * x

    order = rng.permutation(len(x))
    x, y = x[order], y[order]
    split = int(len(x) * (1.0 - test_fraction))
    return ClassificationDataset(
        train_x=x[:split], train_y=y[:split], test_x=x[split:], test_y=y[split:]
    )


class MLPClassifier:
    """A small fully-connected classifier trained with Adam + backprop."""

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        hidden_sizes: tuple[int, ...] = (256, 256, 128),
        seed: int = 0,
    ):
        self.sizes = (num_features, *hidden_sizes, num_classes)
        rng = np.random.default_rng(seed)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:], strict=True):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
            self.biases.append(np.zeros(fan_out))

    # ------------------------------------------------------------------ forward
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Logits for a batch of inputs."""
        hidden = inputs
        last = len(self.weights) - 1
        for index, (weight, bias) in enumerate(zip(self.weights, self.biases, strict=True)):
            hidden = F.linear(hidden, weight, bias)
            if index != last:
                hidden = F.relu(hidden)
        return hidden

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward(inputs).argmax(axis=-1)

    def evaluate(self, inputs: np.ndarray, labels: np.ndarray) -> float:
        """Top-1 accuracy in percent."""
        return float((self.predict(inputs) == labels).mean() * 100.0)

    # ------------------------------------------------------------------- training
    def train(
        self,
        dataset: ClassificationDataset,
        epochs: int = 30,
        batch_size: int = 128,
        learning_rate: float = 1e-3,
        seed: int = 0,
        verbose: bool = False,
    ) -> float:
        """Train with Adam and return the final test accuracy (percent).

        Training updates this classifier's weights and biases in place and
        is deterministic in its arguments and the starting weights.  It is
        not memoized itself: figure 11, its only caller in the experiments,
        memoizes its whole MLP study instead (see :mod:`repro.core.memo`).
        ``verbose`` prints the test accuracy after every epoch.
        """
        return self._train(dataset, epochs, batch_size, learning_rate, seed, verbose)

    def _train(
        self,
        dataset: ClassificationDataset,
        epochs: int,
        batch_size: int,
        learning_rate: float,
        seed: int,
        verbose: bool,
    ) -> float:
        rng = np.random.default_rng(seed)
        m_w = [np.zeros_like(w) for w in self.weights]
        v_w = [np.zeros_like(w) for w in self.weights]
        m_b = [np.zeros_like(b) for b in self.biases]
        v_b = [np.zeros_like(b) for b in self.biases]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0

        for epoch in range(epochs):
            order = rng.permutation(len(dataset.train_x))
            for start in range(0, len(order), batch_size):
                batch = order[start : start + batch_size]
                x = dataset.train_x[batch]
                y = dataset.train_y[batch]
                grads_w, grads_b = self._backward(x, y)
                step += 1
                for i in range(len(self.weights)):
                    m_w[i] = beta1 * m_w[i] + (1 - beta1) * grads_w[i]
                    v_w[i] = beta2 * v_w[i] + (1 - beta2) * grads_w[i] ** 2
                    m_b[i] = beta1 * m_b[i] + (1 - beta1) * grads_b[i]
                    v_b[i] = beta2 * v_b[i] + (1 - beta2) * grads_b[i] ** 2
                    m_w_hat = m_w[i] / (1 - beta1**step)
                    v_w_hat = v_w[i] / (1 - beta2**step)
                    m_b_hat = m_b[i] / (1 - beta1**step)
                    v_b_hat = v_b[i] / (1 - beta2**step)
                    self.weights[i] -= learning_rate * m_w_hat / (np.sqrt(v_w_hat) + eps)
                    self.biases[i] -= learning_rate * m_b_hat / (np.sqrt(v_b_hat) + eps)
            if verbose:
                acc = self.evaluate(dataset.test_x, dataset.test_y)
                print(f"epoch {epoch + 1:3d}: test accuracy {acc:.2f}%")
        return self.evaluate(dataset.test_x, dataset.test_y)

    def _backward(
        self, inputs: np.ndarray, labels: np.ndarray
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Cross-entropy gradients for one batch (manual backprop)."""
        activations = [inputs]
        pre_activations = []
        hidden = inputs
        last = len(self.weights) - 1
        for index, (weight, bias) in enumerate(zip(self.weights, self.biases, strict=True)):
            pre = F.linear(hidden, weight, bias)
            pre_activations.append(pre)
            hidden = F.relu(pre) if index != last else pre
            activations.append(hidden)

        batch = inputs.shape[0]
        probabilities = F.softmax(activations[-1], axis=-1)
        delta = probabilities
        delta[np.arange(batch), labels] -= 1.0
        delta /= batch

        grads_w: list[np.ndarray] = [np.empty(0)] * len(self.weights)
        grads_b: list[np.ndarray] = [np.empty(0)] * len(self.biases)
        for index in range(len(self.weights) - 1, -1, -1):
            grads_w[index] = delta.T @ activations[index]
            grads_b[index] = delta.sum(axis=0)
            if index > 0:
                delta = (delta @ self.weights[index]) * (pre_activations[index - 1] > 0)
        return grads_w, grads_b

    # ------------------------------------------------------------------ weights
    def weight_matrices(self) -> dict[str, np.ndarray]:
        """Weights in GEMM layout keyed by layer name (``fc0``, ``fc1``, ...)."""
        return {f"fc{i}": w.copy() for i, w in enumerate(self.weights)}

    def with_weight_matrices(self, matrices: dict[str, np.ndarray]) -> "MLPClassifier":
        """Return a copy of the classifier with replaced weights."""
        clone = MLPClassifier(self.sizes[0], self.sizes[-1], tuple(self.sizes[1:-1]))
        clone.weights = [w.copy() for w in self.weights]
        clone.biases = [b.copy() for b in self.biases]
        for index in range(len(clone.weights)):
            name = f"fc{index}"
            if name in matrices:
                replacement = np.asarray(matrices[name], dtype=np.float64)
                if replacement.shape != clone.weights[index].shape:
                    raise ValueError(
                        f"{name}: expected shape {clone.weights[index].shape}, "
                        f"got {replacement.shape}"
                    )
                clone.weights[index] = replacement
        return clone


def accuracy_under_compression(
    model: MLPClassifier,
    dataset: ClassificationDataset,
    compress_int_weights,
    skip_last_layer: bool = True,
) -> float:
    """Accuracy (percent) of the model after compressing its INT8 weights.

    ``compress_int_weights(name, int_weights, scales)`` receives each layer's
    per-channel-quantized INT8 weight matrix and must return the compressed
    integer weights (same shape, same scale interpretation).  The classifier
    head (last layer) is kept at 8 bits by default, mirroring standard
    practice (and the paper's sensitive-channel protection of small critical
    layers).
    """
    matrices = model.weight_matrices()
    names = list(matrices)
    replacement: dict[str, np.ndarray] = {}
    for index, name in enumerate(names):
        float_weights = matrices[name]
        quantized = quantize_per_channel(float_weights, bits=8)
        if skip_last_layer and index == len(names) - 1:
            new_int = quantized.values
        else:
            new_int = compress_int_weights(name, quantized.values, quantized.scales)
        replacement[name] = new_int.astype(np.float64) * quantized.scales[:, None]
    compressed = model.with_weight_matrices(replacement)
    return compressed.evaluate(dataset.test_x, dataset.test_y)
