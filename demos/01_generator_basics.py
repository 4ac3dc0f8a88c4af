#!/usr/bin/env python3
"""Tour of the generator type: evaluation, gradients, Lipschitz bounds, files.

Builds a small random ReLU generator, checks its latent gradient against
finite differences, samples Lipschitz ratios against the spectral-norm
bound, and round-trips the network through the weight-file format.
"""

import tempfile

import numpy as np

from obgcs import (forward, forward_batch, latent_vjp, lipschitz_upper_bound,
                   load_generator, save_generator, synth_generator)

net = synth_generator(k=4, n=24, hidden_dims=[16, 12], seed=7)
print(f"layer dims: {net.layer_dims}")

z = np.array([0.5, -1.0, 0.25, 0.8])
x = forward(net, z)
print(f"G(z) first coords: {np.round(x[:4], 4)}  |G(z)| = {np.linalg.norm(x):.4f}")

# latent gradient vs central finite differences of <G(z), v>
v = np.random.default_rng(0).standard_normal(24)
grad = latent_vjp(net, z, v)
fd = np.zeros(4)
for j in range(4):
    e = np.zeros(4)
    e[j] = 1e-6
    fd[j] = (forward(net, z + e) @ v - forward(net, z - e) @ v) / 2e-6
print(f"vjp vs finite differences, max abs gap: {np.max(np.abs(grad - fd)):.2e}")

# product-of-spectral-norms bound dominates all sampled difference ratios
bound = lipschitz_upper_bound(net)
rng = np.random.default_rng(1)
Z1 = rng.standard_normal((4, 5000))
Z2 = rng.standard_normal((4, 5000))
ratios = (np.linalg.norm(forward_batch(net, Z1) - forward_batch(net, Z2), axis=0)
          / np.linalg.norm(Z1 - Z2, axis=0))
print(f"Lipschitz bound {bound:.3f}; largest sampled ratio {ratios.max():.3f}")

# the weight file holds the weights bit for bit
with tempfile.TemporaryDirectory() as tmp:
    save_generator(net, f"{tmp}/net.bin")
    loaded = load_generator(f"{tmp}/net.bin")
    same = all(np.array_equal(a, b) for a, b in zip(loaded.weights, net.weights))
    print(f"round trip via the weight file: weights identical = {same}")

# zero biases make the image a cone: G(a z) = a G(z) for a > 0
print(f"|G(3z) - 3 G(z)| = {np.linalg.norm(forward(net, 3 * z) - 3 * x):.2e}")
