import numpy as np
import pytest

from obgcs import GeneratorNetwork, synth_generator


@pytest.fixture
def small_net():
    """Deterministic 3-layer net used by several gradient/Lipschitz tests."""
    return synth_generator(k=4, n=12, hidden_dims=[10, 8], seed=11)


def identity_generator(n):
    """The trivial generator G(z) = z on R^n (a no-prior baseline)."""
    return GeneratorNetwork([n, n], [np.eye(n)], [np.zeros(n)])


def preacts_away_from_kinks(net, z, margin=1e-3):
    """True when every pre-activation that meets a ReLU (the hidden ones, and
    the output's under a ReLU output) clears the given margin."""
    h = np.asarray(z, dtype=np.float64)
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = w @ h + b
        if i < len(net.weights) - 1 or net.final_activation == "relu":
            if np.min(np.abs(h)) < margin:
                return False
            h = np.maximum(h, 0.0)
    return True


def dense_weight(w):
    """The dense matrix of a 2-D weight or a (blocks, rows, cols) block stack."""
    if w.ndim == 2:
        return w
    blocks, rows, cols = w.shape
    out = np.zeros((blocks * rows, blocks * cols))
    for i, block in enumerate(w):
        out[i * rows:(i + 1) * rows, i * cols:(i + 1) * cols] = block
    return out
