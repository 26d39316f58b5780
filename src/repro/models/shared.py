"""Shared neural-network primitives and helpers for the end-to-end models."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING, Tuple

import numpy as np

if TYPE_CHECKING:
    from ..graph import CompiledGraph


@dataclass
class CompiledForward:
    """A model forward pass lowered to a :class:`~repro.graph.CompiledGraph`.

    Calling the wrapper runs the compiled graph — fused kernels, cached
    builds — and returns the single model output as an array.  ``features``
    overrides the graph input captured at compile time; omit it to rerun on
    the captured default.
    """

    compiled: "CompiledGraph"
    input_name: str
    output_name: str

    def __call__(self, features: Optional[np.ndarray] = None) -> np.ndarray:
        feeds = {} if features is None else {self.input_name: features}
        return self.compiled.run(feeds)[self.output_name]

    @property
    def num_kernel_launches(self) -> int:
        return self.compiled.num_kernel_launches


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray) -> np.ndarray:
    return (x > 0.0).astype(np.float32)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its gradient with respect to the logits."""
    probabilities = softmax(logits)
    n = logits.shape[0]
    eps = 1e-12
    loss = float(-np.log(probabilities[np.arange(n), labels] + eps).mean())
    grad = probabilities.copy()
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad.astype(np.float32)
