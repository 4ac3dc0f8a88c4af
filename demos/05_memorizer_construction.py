#!/usr/bin/env python3
"""Exact memorization with constructed ReLU networks.

Builds the two constructions: the bit-table memorizer, an interpolating
fitter fused with a bit-selection pipeline, and the multi-output generator
that reproduces ell-bit truncations of target vectors at spike anchors.
All networks are plain layered affine+ReLU weights; queries below run
through the exported weights.
"""

import numpy as np

from obgcs import (architecture_summary, build_indexed_memorizer,
                   build_theorem_generator, recall_bit)

rng = np.random.default_rng(0)

# bit-table memorizer: width 4W+6, depth 3*ell+1, exact 0/1 outputs
bits = rng.integers(0, 2, (16, 4))
anchors = rng.standard_normal((16, 2))  # full capacity W^2*ell = 16
table = build_indexed_memorizer(list(zip(anchors, bits)), 2, 4)
wrong = sum(recall_bit(table, z, j) != float(row[j - 1])
            for z, row in zip(anchors, bits) for j in range(1, 5))
arch = architecture_summary(table.net)
print(f"bit-table memorizer: {wrong} recall errors over 64 queries, "
      f"width {arch['max_width']} (= 4*2+6), depth {arch['affine_layers']} (= 3*4+1)")
print(f"  anchor 1 row {bits[0].tolist()} recalled as "
      f"{[int(recall_bit(table, anchors[0], j)) for j in range(1, 5)]}\n")

# anchor generator: s targets in [0,1]^n reproduced to ell bits at z = e1/(i n)
targets = rng.random((5, 8))
gen = build_theorem_generator(targets, tau=0.25)
print(f"anchor generator: ell={gen.ell}, width {gen.width}, depth {gen.depth}")
for i, (anchor, target) in enumerate(zip(gen.anchors, targets)):
    out = gen.evaluate(anchor)
    inf_gap = float(np.max(np.abs(out - gen.targets_truncated[i])))
    l2_gap = float(np.linalg.norm(out - target))
    print(f"  anchor {i + 1} (z1 = {anchor[0]:.4f}): truncation gap {inf_gap}, "
          f"distance to target {l2_gap:.4f} <= tau")
