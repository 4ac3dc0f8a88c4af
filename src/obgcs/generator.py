"""ReLU multilayer generators: evaluation, latent gradients, Lipschitz bounds.

A generator maps a low-dimensional latent vector to a high-dimensional signal
through affine layers with ReLU activations on every hidden layer and an
identity or ReLU final activation. Networks are treated as immutable after
construction; the only mutation is the one-time caching of the Lipschitz
bound.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .util import as_count

ACTIVATIONS = ("identity", "relu")


@dataclass
class GeneratorNetwork:
    """Layered affine+ReLU map from latent space R^k to signal space R^n.

    ``layer_dims`` is ``[k, d1, ..., n]``; ``weights[i]`` has shape
    ``(layer_dims[i+1], layer_dims[i])`` and ``biases[i]`` has shape
    ``(layer_dims[i+1],)``. Hidden layers use ReLU; the output layer applies
    ``final_activation``.

    A weight may instead be 3-D, ``(blocks, rows, cols)`` with
    ``blocks * rows == layer_dims[i+1]`` and ``blocks * cols == layer_dims[i]``:
    the block-diagonal matrix whose b-th diagonal block is ``weights[i][b]``
    (output units ``b*rows ...``, input units ``b*cols ...``). It is applied
    block by block and never materialised densely; a matrix is read as one
    block, and a one-block stack is stored as its matrix.
    """

    layer_dims: list
    weights: list
    biases: list
    final_activation: str = "identity"
    lipschitz_bound: float | None = field(default=None, compare=False)

    def __post_init__(self):
        dims = [as_count(d, "layer_dims entry", ShapeError) for d in self.layer_dims]
        if len(dims) < 2:
            raise ShapeError(f"layer_dims must hold >= 2 positive sizes, got {dims}")
        if self.final_activation not in ACTIVATIONS:
            raise ShapeError(f"unknown final activation {self.final_activation!r}")
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise ShapeError("need one weight matrix and one bias per layer transition")
        ws, bs = [], []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            w = np.asarray(w, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64)
            stack = w[None] if w.ndim == 2 else w  # a matrix is one block
            blocks, rows, cols = stack.shape if stack.ndim == 3 else (0, 0, 0)
            if (blocks * rows, blocks * cols) != (dims[i + 1], dims[i]):
                raise ShapeError(f"layer {i}: weight shape {w.shape} does not tile "
                                 f"{(dims[i + 1], dims[i])}")
            if b.shape != (dims[i + 1],):
                raise ShapeError(f"layer {i}: bias shape {b.shape} != {(dims[i + 1],)}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ShapeError(f"layer {i}: non-finite entries")
            ws.append(stack[0] if blocks == 1 else stack)
            bs.append(b)
        self.layer_dims = dims
        self.weights = ws
        self.biases = bs

    @property
    def latent_dim(self):
        return self.layer_dims[0]

    @property
    def signal_dim(self):
        return self.layer_dims[-1]


def _as_column(net, z):
    """A single latent vector as a one-column (k, 1) batch."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (net.latent_dim,):
        raise ShapeError(f"latent shape {z.shape} != expected {(net.latent_dim,)}")
    return z[:, None]


def _as_latent_batch(net, zs):
    zs = np.asarray(zs, dtype=np.float64)
    if zs.ndim != 2 or zs.shape[0] != net.latent_dim:
        raise ShapeError(f"batch must be (k, batch) with k={net.latent_dim}")
    return zs


def _apply_final(net, h):
    return np.maximum(h, 0.0) if net.final_activation == "relu" else h


def forward(net, z):
    """Evaluate the generator at a single latent vector, as a one-column batch."""
    return _apply_final(net, _preacts(net, _as_column(net, z), keep=False)[-1])[:, 0]


def forward_batch(net, zs):
    """Evaluate the generator column-wise on a (k, batch) array."""
    return _apply_final(net, _preacts(net, _as_latent_batch(net, zs), keep=False)[-1])


def _preacts(net, h, keep=True):
    """Every layer's pre-activation; only the last one unless ``keep``."""
    preacts = []
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = (w @ h if w.ndim == 2 else _block_apply(w, h)) + b[:, None]
        if i < last:
            if keep:
                preacts.append(h)
            h = np.maximum(h, 0.0)
    preacts.append(h)
    return preacts


def _block_apply(w, h):
    """Block-diagonal product: ``w`` is (blocks, rows, cols) and ``h`` is
    (blocks*cols, batch); one batched matmul."""
    blocks, _, cols = w.shape
    return np.matmul(w, h.reshape(blocks, cols, -1)).reshape(-1, h.shape[1])


def forward_with_preacts(net, zs):
    """``forward_batch`` that also returns every layer's pre-activation.

    The list is what ``vjp_from_preacts`` needs, so a caller that wants both
    G(Z) and J(Z)^T V runs the network forward once.
    """
    preacts = _preacts(net, _as_latent_batch(net, zs))
    return _apply_final(net, preacts[-1]), preacts


def latent_vjp(net, z, cotangent):
    """Transpose-Jacobian product J(z)^T v with the convention relu'(0) = 0,
    run as a one-column batch."""
    z = _as_column(net, z)
    v = np.asarray(cotangent, dtype=np.float64)
    if v.shape != (net.signal_dim,):
        raise ShapeError(f"cotangent shape {v.shape} != {(net.signal_dim,)}")
    return vjp_from_preacts(net, _preacts(net, z), v[:, None])[:, 0]


def latent_vjp_batch(net, zs, cotangents):
    """Column-wise transpose-Jacobian products for (k, batch) and (n, batch)."""
    zs = _as_latent_batch(net, zs)
    vs = np.asarray(cotangents, dtype=np.float64)
    if vs.shape != (net.signal_dim, zs.shape[1]):
        raise ShapeError("cotangent batch must be (n, batch)")
    return vjp_from_preacts(net, _preacts(net, zs), vs)


def vjp_from_preacts(net, preacts, g):
    """Column-wise J^T g at the points whose pre-activations ``preacts`` came
    from a forward pass (``forward_with_preacts``); ``g`` is (n, batch)."""
    if net.final_activation == "relu":
        g = g * (preacts[-1] > 0)
    for i in range(len(net.weights) - 1, -1, -1):
        w = net.weights[i]
        g = w.T @ g if w.ndim == 2 else _block_apply(np.swapaxes(w, -1, -2), g)
        if i > 0:
            g = g * (preacts[i - 1] > 0)
    return g


def lipschitz_upper_bound(net):
    """Product of layer spectral norms; caches the value on the network.

    Valid as a Lipschitz upper bound because every activation (identity,
    relu) is 1-Lipschitz.
    """
    if net.lipschitz_bound is not None:
        return net.lipschitz_bound
    # exact largest singular values (SVD): an iterative estimate converges
    # from below and would make the product fall short of the true bound; a
    # block-diagonal matrix's norm is its largest block's
    net.lipschitz_bound = float(np.prod([np.linalg.norm(w, 2, axis=(-2, -1)).max()
                                         for w in net.weights]))
    return net.lipschitz_bound


def dense_rows(w):
    """A weight's dense matrix, one block row at a time in one reused array."""
    blocks = w.reshape(-1, *w.shape[-2:])
    _, rows, cols = blocks.shape
    chunk = np.zeros((rows, len(blocks) * cols))
    for i, block in enumerate(blocks):
        chunk[:, i * cols:(i + 1) * cols] = block
        yield chunk
        chunk[:, i * cols:(i + 1) * cols] = 0.0


def split_output_layer(net):
    """The net as G(z) = W h(z) + b: ``(body, W, b)``, with ``body`` the net
    up to its last ReLU (its output h has width d) and ``W`` the dense (n, d)
    output weight, whatever its form. None unless the final activation is
    the identity, there is a hidden layer, and d < n: only then is a
    quadratic form in h smaller than the same form in x.
    """
    d, n = net.layer_dims[-2:]
    if net.final_activation != "identity" or len(net.weights) < 2 or d >= n:
        return None
    body = GeneratorNetwork(net.layer_dims[:-1], net.weights[:-1], net.biases[:-1],
                            final_activation="relu")
    return body, np.vstack([rows.copy() for rows in dense_rows(net.weights[-1])]), net.biases[-1]


def synth_generator(k, n, hidden_dims=(), seed=0, final_activation="identity"):
    """Random dense generator with Gaussian weights of std 1/sqrt(fan_in).

    Biases are zero, which makes the map positively homogeneous: scaling the
    latent by a > 0 scales the output by a, so the image is a cone that is
    closed under positive rescaling. Deterministic in ``seed``.
    """
    dims = ([as_count(k, "k", ShapeError)]
            + [as_count(d, "hidden_dims entry", ShapeError) for d in hidden_dims]
            + [as_count(n, "n", ShapeError)])
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.standard_normal((fan_out, fan_in)) * (1.0 / np.sqrt(fan_in)))
        biases.append(np.zeros(fan_out))
    return GeneratorNetwork(dims, weights, biases, final_activation=final_activation)


def architecture_summary(net):
    """Independent structural accounting of a network's size.

    Returns a dict with ``affine_layers`` (the number of weight matrices,
    i.e. depth counted in affine transformations), ``hidden_layers``, and
    ``max_width`` (largest hidden layer size; 0 if there are none).
    """
    hidden = net.layer_dims[1:-1]
    return {
        "affine_layers": len(net.weights),
        "hidden_layers": len(hidden),
        "max_width": max(hidden) if hidden else 0,
    }
