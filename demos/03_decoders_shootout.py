#!/usr/bin/env python3
"""Latent least squares against the sparse baselines on one problem.

Draws a compressible ground truth from a ReLU-output generator, observes it
through 250 one-bit measurements with noise and 3% sign flips, and compares
the latent least-squares decoder with binary iterative hard thresholding and
the convex sign-correlation program.
"""

import time

import numpy as np

from obgcs import (CovarianceSpec, LsDecoderConfig, biht_decode,
                   estimation_error, ls_decode, observe, pv_convex_decode,
                   sample_ensemble, sigma_norm, synth_generator)
from obgcs.generator import forward

k, n, m = 5, 100, 250
sigma, q = 0.1, 0.97
net = synth_generator(k=k, n=n, hidden_dims=[64], seed=0,
                      final_activation="relu")
cov = CovarianceSpec.toeplitz(n, 0.3)

rng = np.random.default_rng(1)
x_star = forward(net, rng.standard_normal(k))
x_star /= sigma_norm(cov, x_star)
print(f"ground truth: {int(np.sum(x_star > 0))}/{n} active coordinates")

ens = sample_ensemble(m, cov, sigma, q, seed=2)
obs = observe(ens, x_star, seed=3)
print(f"observed {m} signs, {int(np.sum(obs.eta < 0))} adversarially flipped\n")

decoders = {
    "latent least squares": lambda: ls_decode(
        obs, ens, net, LsDecoderConfig(seed=4)).x_hat,
    "biht (s=50)": lambda: biht_decode(obs, ens, s=50, iters=100),
    "convex program (s=5)": lambda: pv_convex_decode(obs, ens, s_ell1=5.0),
}
print(f"{'decoder':<22} {'|x-cx*|':>8} {'cosine':>8} {'seconds':>8}")
for name, run in decoders.items():
    start = time.perf_counter()
    x_hat = run()
    elapsed = time.perf_counter() - start
    err = estimation_error(x_hat, x_star, sigma, q)
    print(f"{name:<22} {err['l2_err_vs_c_xstar']:>8.4f} "
          f"{err['cosine']:>8.4f} {elapsed:>8.2f}")
