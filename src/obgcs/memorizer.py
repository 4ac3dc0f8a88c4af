"""Constructive ReLU networks that memorize binary-coded samples exactly.

Two constructions, each exported as plain layered affine+ReLU weights (the
generator module's network type) so that recall is always evaluated through
the exported weights, never through side tables:

* a bit-table memorizer: an interpolating fitter (piecewise-linear nodal
  hats laid out across depth) fused with a bit-selection pipeline, recalling
  bit j of anchor i's table row, and
* a multi-output generator that reproduces ell-bit truncations of target
  vectors at scaled spike anchors, within a prescribed L2 tolerance.

Depth is counted in affine transformations (weight matrices); width is the
largest hidden layer, and every hidden layer is allocated at the declared
width, its unused units dead, so the exported architecture equals the
declared one.

Bit decisions are made by clipped ramps with half-grid separation margins,
then re-saturated through a second clipped pair where upstream float dust
could otherwise leak into outputs; accumulator updates touch at most two
nonzero weights per row, keeping them exact in float64 regardless of dot
product evaluation order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ObgcsError, ShapeError
from .generator import GeneratorNetwork, forward, forward_batch
from .util import as_count

# The most bits a build accepts. Up to it every row of the bit pipelines sums
# to the same float in any order: the threshold rows add terms up to
# 2^(2 ell + 1) on a grid of 1/2 (the re-summing rows up to 2^(ell + 1) on a
# grid of 2^-(ell + 1)), and both stay exact while 2 ell + 2 <= 53. So one
# batched pass over the query columns certifies every evaluation order.
MAX_BITS = 25


@dataclass
class MemorizerNet:
    """A constructed network plus its declared size and recall metadata."""

    net: GeneratorNetwork
    width: int
    depth: int
    ell: int
    cap_w: int = 0
    anchors: np.ndarray | None = None
    targets_truncated: np.ndarray | None = None

    def evaluate(self, x):
        """Run the exported weights on an input vector."""
        return forward(self.net, np.atleast_1d(np.asarray(x, dtype=np.float64)))


# --------------------------------------------------------------- layer stack

class _Stack:
    """Hidden layers of ``blocks`` parallel single-output nets, ``width`` units each.

    Rows are (coeffs dict {prev_unit_index: weight}, bias) pairs. A weight is
    a number, the same in every block, or a (blocks,) vector, one per block.
    Every layer is allocated at ``width``; the rows a layer leaves unused are
    the dead units that pad it to the declared width.
    """

    def __init__(self, input_dim, width, blocks=1):
        self.input_dim = input_dim
        self.width = width
        self.blocks = blocks
        self.layers = []  # list of (W (blocks, width, in_dim), b (blocks, width))
        self.top_width = input_dim  # rows the top layer uses

    def add_layer(self, rows):
        """rows: list of (coeffs dict {prev_unit_index: weight}, bias)."""
        if len(rows) > self.width:
            raise CapacityError(f"layer {len(self.layers)} needs {len(rows)} units "
                                f"> width {self.width}")
        in_dim = self.width if self.layers else self.input_dim
        W = np.zeros((self.blocks, self.width, in_dim))
        b = np.zeros((self.blocks, self.width))
        for r, (coeffs, bias) in enumerate(rows):
            for idx, val in coeffs.items():
                W[:, r, idx] = val
            b[:, r] = bias
        self.layers.append((W, b))
        self.top_width = len(rows)

    def finish(self, readout):
        """The GeneratorNetwork with one output per block read by ``readout``.

        Layer 0 is the row stack of the blocks, since they all read the same
        input; every later layer is block-diagonal, held as its (blocks, rows,
        cols) stack, or as a plain matrix when there is one block.
        """
        R = np.zeros((self.blocks, 1, self.width))
        for idx, val in readout.items():
            R[:, 0, idx] = val
        W0 = self.layers[0][0]
        weights = [W0.reshape(-1, W0.shape[2])] + [W for W, _ in self.layers[1:]] + [R]
        if self.blocks == 1:
            weights[1:] = [W[0] for W in weights[1:]]
        biases = [b.ravel() for _, b in self.layers] + [np.zeros(self.blocks)]
        dims = [self.input_dim] + [b.size for b in biases]
        return GeneratorNetwork(dims, weights, biases)


# ------------------------------------------------------------ fitter machinery

def _separating_projection(anchors):
    """Deterministic 1-D projection making anchor images distinct."""
    count, k = anchors.shape
    if count == 1:
        return np.ones(k), anchors @ np.ones(k)
    rng = np.random.default_rng(0xF117)
    best = None
    for attempt in range(64):
        w = rng.standard_normal(k)
        t = anchors @ w
        ts = np.sort(t)
        gaps = np.diff(ts)
        if gaps.min() <= 0.0:
            continue
        quality = gaps.min() / max(ts[-1] - ts[0], 1e-300)
        if best is None or quality > best[0]:
            best = (quality, w, t)
        if attempt >= 7 and best is not None:
            break
    if best is None:
        raise ObgcsError("could not find a projection separating the anchors")
    return best[1], best[2]


def _interpolant_knots(ts_sorted, vals_sorted, lo, hi):
    """Ramp knots and slope-change coefficients for one consecutive chunk.

    The piecewise-linear bump passes through (t_i, v_i) for chunk members,
    is zero at the neighboring sample positions (or one unit beyond the
    extremes), and is identically zero outside that support, so it never
    disturbs any other sample. ``vals_sorted`` holds one column of values
    per block, and the gammas one column per block.
    """
    u = ts_sorted[lo:hi]
    v = vals_sorted[lo:hi]
    left = ts_sorted[lo - 1] if lo > 0 else u[0] - 1.0
    right = ts_sorted[hi] if hi < len(ts_sorted) else u[-1] + 1.0
    knots = np.concatenate([[left], u, [right]])
    zero = np.zeros((1, v.shape[1]))
    nodal = np.concatenate([zero, v, zero])
    slopes = np.diff(nodal, axis=0) / np.diff(knots)[:, None]
    gammas = np.empty((len(knots), v.shape[1]))
    gammas[0] = slopes[0]
    gammas[1:-1] = np.diff(slopes, axis=0)
    gammas[-1] = -slopes[-1]
    return knots, gammas


def _fitter_part(stack, anchors, values, max_chunk, num_layers, carry_j=False):
    """Append interpolation stages to ``stack``; returns the readout row dict.

    ``values`` is a (count, blocks) array, one column of anchor values per
    block of the stack. Each stage hosts one chunk of consecutive (in
    projected order) anchors as a nodal-hat bump; an accumulator channel
    folds finished bumps forward. Stages beyond the last chunk pass state
    through. With ``carry_j`` the final input coordinate rides along through
    every layer.
    """
    count = anchors.shape[0]
    chunks = [(i, min(i + max_chunk, count)) for i in range(0, count, max_chunk)]
    if len(chunks) > num_layers:
        raise CapacityError(
            f"{count} anchors need {len(chunks)} interpolation stages, "
            f"budget is {num_layers}")
    w, t = _separating_projection(anchors)
    shift = 1.0 - t.min()
    ts = t + shift
    order = np.argsort(ts, kind="stable")
    ts_sorted = ts[order]
    vals_sorted = values[order]

    k = stack.input_dim - (1 if carry_j else 0)
    pend_ramps = None  # (indices, gammas) awaiting fold into the accumulator
    for s in range(num_layers):
        rows = []
        first = s == 0
        if first:
            tc = {i: w[i] for i in range(k)}
            rows.append((tc, shift))                      # t channel
            rows.append(({}, 0.0))                        # accumulator = 0
        else:
            rows.append(({0: 1.0}, 0.0))                  # pass t
            acc = {1: 1.0}
            if pend_ramps is not None:
                for idx, g in zip(*pend_ramps):
                    acc[idx] = g
            rows.append((acc, 0.0))                       # fold previous bump
        if s < len(chunks):
            lo, hi = chunks[s]
            knots, gammas = _interpolant_knots(ts_sorted, vals_sorted, lo, hi)
            ramp_idx = []
            for knot in knots:
                if first:
                    rows.append(({i: w[i] for i in range(k)}, shift - knot))
                else:
                    rows.append(({0: 1.0}, -knot))
                ramp_idx.append(len(rows) - 1)
            pend_ramps = (ramp_idx, gammas)
        else:
            pend_ramps = None
        if carry_j:
            # the j channel rides at the top index of every layer
            j_src = stack.input_dim - 1 if first else stack.top_width - 1
            rows.append(({j_src: 1.0}, 0.0))
        stack.add_layer(rows)
    readout = {1: 1.0}
    if pend_ramps is not None:
        for idx, g in zip(*pend_ramps):
            readout[idx] = g
    return readout


def _anchors(samples):
    """The checked (count, k) anchor array of (anchor, payload) samples."""
    anchors = np.array([np.atleast_1d(np.asarray(z, dtype=np.float64)) for z, _ in samples])
    if anchors.ndim != 2:
        raise ShapeError("anchors must form a (count, k) array")
    if not np.all(np.isfinite(anchors)):
        raise ValueError("anchors must be finite")
    if len(np.unique(anchors, axis=0)) < len(anchors):
        raise ValueError("duplicate anchors are not allowed")
    return anchors


# ------------------------------------------------------------ bit selection

# unit slots that open every bit-selection layer
P1, P2, E1, E2, E3, XP = range(6)


def _threshold_pair(ell, t, x_row):
    """The two clipped ramps deciding bit t of the affine row ``x_row``.

    Ramp s = 2^(ell+1) x - 2^(ell+1-t) + offset, at offsets 1.5 and 0.5.
    """
    scale = math.ldexp(1.0, ell + 1)
    row = {i: scale * c for i, c in x_row.items()}
    return [(row, -math.ldexp(1.0, ell + 1 - t) + offset) for offset in (1.5, 0.5)]


def _selection_rows(ell, t, x_row=None, j_idx=None):
    """The rows P1..XP of bit t: threshold pair, ramps relu(j - 0, 1, 2), residual x.

    The first layer reads x from ``x_row`` and j from unit ``j_idx``; later
    layers (the defaults) read the residual x minus the bit just decided,
    and the j ramp E2 = relu(j - 1) of the layer below.
    """
    if x_row is None:
        step = math.ldexp(1.0, -(t - 1))
        x_row = {XP: 1.0, P1: -step, P2: step}
    j = E2 if j_idx is None else j_idx
    return (_threshold_pair(ell, t, x_row)
            + [({j: 1.0}, 0.0), ({j: 1.0}, -1.0), ({j: 1.0}, -2.0), (dict(x_row), 0.0)])


# -------------------------------------------------- composed memorizer (G3)

def _extractor_part(stack, ell, x_row, j_idx):
    """Append an exactified bit-selection pipeline reading x from an affine
    row over the current top layer and j from unit ``j_idx``.

    Uses saturation pairs so every selected-bit contribution is exactly 0.0
    or 1.0 even when x carries interpolation dust below the half-grid
    margin; accumulator rows touch two units only, keeping them order-exact.
    Returns the readout row dict. Appends ell+2 layers.
    """
    # slots after the selection rows, dead (zero) in the first layer: 6 ap, 7 a1, 8 a2, 9 as
    AP, A1, A2, AS = range(6, 10)
    and_pair = [({P1: 2.0, P2: -2.0, E1: 2.0, E2: -4.0, E3: 2.0}, bias) for bias in (-2.5, -3.5)]
    saturated_and = ({A1: 1.0, A2: -1.0}, 0.0)
    accumulate = ({AP: 1.0, AS: 1.0}, 0.0)  # two-term, exact
    stack.add_layer(_selection_rows(ell, 1, x_row, j_idx))
    for t in range(2, ell + 1):
        stack.add_layer(_selection_rows(ell, t) + [accumulate] + and_pair + [saturated_and])
    stack.add_layer(and_pair + [saturated_and, accumulate])  # a1, a2 of bit ell; as of ell-1
    stack.add_layer([
        ({0: 1.0, 1: -1.0}, 0.0),   # saturated last bit
        ({3: 1.0, 2: 1.0}, 0.0),    # accumulator + previous saturated bit
    ])
    return {0: 1.0, 1: 1.0}


def build_indexed_memorizer(samples, cap_w, ell):
    """Width 4W+6, depth 3*ell+1 network with net(z_i, j) = bits_i[j-1].

    ``samples`` is a list of (anchor, bits) pairs, one bit row of length ell
    per anchor. The network composes an interpolating fitter with the bit
    selection pipeline; outputs are exactly 0.0 or 1.0. Needs ell >= 2 (a
    one-bit table has no depth budget for the composition). Capacity is
    W^2 ell, additionally bounded by the 4W(2 ell - 2) ramp units of its stages.
    """
    cap_w, ell = as_count(cap_w, "cap_w"), as_count(ell, "ell", most=MAX_BITS)
    if ell < 2:
        raise ValueError(f"need ell >= 2, got {ell}")
    anchors = _anchors(samples)
    rows = [np.asarray(bits, dtype=np.float64) for _, bits in samples]
    if any(r.shape != (ell,) or not np.all((r == 0.0) | (r == 1.0)) for r in rows):
        raise ValueError(f"each sample needs {ell} bits valued 0/1")
    table = np.array(rows) == 1.0  # (count, ell)
    count = anchors.shape[0]
    if count > cap_w * cap_w * ell:
        raise CapacityError(f"{count} anchors exceed capacity W^2*ell = {cap_w * cap_w * ell}")
    values = table @ np.ldexp(1.0, -np.arange(1, ell + 1))  # exact for ell <= MAX_BITS

    width = 4 * cap_w + 6
    k = anchors.shape[1]
    stack = _Stack(k + 1, width)
    x_row = _fitter_part(stack, anchors, values[:, None], max_chunk=4 * cap_w,
                         num_layers=2 * ell - 2, carry_j=True)
    j_idx = stack.top_width - 1
    net = stack.finish(_extractor_part(stack, ell, x_row, j_idx))
    mem = MemorizerNet(net=net, width=width, depth=3 * ell + 1, ell=ell, cap_w=cap_w,
                       anchors=anchors)
    # one column (z_i, j) per table entry, in row-major order of the table
    queries = np.vstack([np.repeat(anchors.T, ell, axis=1),
                         np.tile(np.arange(1.0, ell + 1), count)])
    want = table.ravel()
    got = forward_batch(net, queries)[0]
    bad = np.flatnonzero(got != want)
    if bad.size:
        i = bad[0]
        raise ObgcsError(f"composed recall certification failed at j={i % ell + 1}: "
                         f"{float(got[i])} != {int(want[i])}")
    return mem


def recall_bit(mem, z, j):
    """Convenience wrapper: evaluate a composed memorizer at (z, j)."""
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    return float(mem.evaluate(np.concatenate([z, [float(j)]]))[0])


# ------------------------------------------------- anchor generator (G, Thm)

def _reassembly_part(stack, ell, x_row):
    """Append layers re-extracting and re-summing ell bits of an affine x.

    Two layers per bit (threshold pair, then residual update plus a
    saturation pair) and one final merge layer; 2*ell+1 layers in all. The
    running sum only ever adds an exact power of two times an exactly
    saturated bit through two-term rows, so the final unit holds the exact
    ell-bit truncation of x whenever x's dust is below the half-grid margin.
    Returns the readout row dict.
    """
    # A-layer slots: 0 p1, 1 p2, 2 xp, 3 acc, 4 bsat(prev)
    # B-layer slots: 0 xnext, 1 q1, 2 q2, 3 accm
    stack.add_layer(_threshold_pair(ell, 1, x_row) + [(dict(x_row), 0.0)])
    for t in range(1, ell + 1):
        step = math.ldexp(1.0, -t)
        stack.add_layer([
            ({2: 1.0, 0: -step, 1: step}, 0.0),   # residual minus extracted bit
            ({0: 2.0, 1: -2.0}, -0.5),            # saturation pair for bit t
            ({0: 2.0, 1: -2.0}, -1.5),
            ({3: 1.0, 4: math.ldexp(1.0, -(t - 1))}, 0.0),  # fold previous bit
        ])
        if t < ell:
            stack.add_layer(_threshold_pair(ell, t + 1, {0: 1.0}) + [
                ({0: 1.0}, 0.0),
                ({3: 1.0}, 0.0),
                ({1: 1.0, 2: -1.0}, 0.0),         # saturated bit t
            ])
    stack.add_layer([
        ({3: 1.0}, 0.0),            # accumulated bits 1..ell-1
        ({1: 1.0, 2: -1.0}, 0.0),   # saturated bit ell
    ])
    return {0: 1.0, 1: math.ldexp(1.0, -ell)}


def build_theorem_generator(targets, tau, latent_dim=1):
    """Generator reproducing ell-bit truncations of targets at spike anchors.

    Given s target vectors in [0, 1]^n and a tolerance tau in (0, 1), sets
    ell = ceil(log2(2n/tau)) + 1, anchors z_i = e1 / (i * n), and builds one
    block per output coordinate: an interpolating fitter followed by the
    bit re-extraction pipeline. All blocks share the anchors, so they are
    built in one pass and differ only in the fitter's value-dependent fold
    weights, held per block. The assembled network has depth 3*ell+2 and
    width (4*ceil(sqrt(s*n/ell)) + 6) * n; at every anchor the output equals
    the truncated target exactly (coordinatewise), hence lies within tau in
    L2. Certified at build time.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if targets.ndim != 2 or targets.size == 0:
        raise ShapeError(f"targets must form a non-empty (s, n) array, not shape {targets.shape}")
    if not np.all((targets >= 0.0) & (targets <= 1.0)):
        raise ValueError("targets must lie in the unit cube")
    tau = float(tau)
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    s, n = targets.shape
    ell = int(math.ceil(math.log2(2.0 * n / tau))) + 1
    if ell > MAX_BITS:
        raise CapacityError(f"tau={tau} needs {ell} bits per coordinate "
                            f"(> {MAX_BITS} accepted)")
    cap_w = int(math.ceil(math.sqrt(s * n / ell)))
    k = as_count(latent_dim, "latent_dim")

    anchors = np.zeros((s, k))
    anchors[:, 0] = 1.0 / (np.arange(1, s + 1) * n)
    # the first ell binary digits of every entry: 1.0 gives 1 - 2^-ell, -0.0 gives 0.0
    trunc_vals = np.ldexp(np.minimum(np.ldexp(targets, ell).astype(np.int64), (1 << ell) - 1),
                          -ell)

    block_width = 4 * cap_w + 6
    stack = _Stack(k, block_width, blocks=n)
    x_row = _fitter_part(stack, anchors, trunc_vals, max_chunk=4 * cap_w, num_layers=ell)
    net = stack.finish(_reassembly_part(stack, ell, x_row))
    mem = MemorizerNet(net=net, width=block_width * n, depth=3 * ell + 2, ell=ell,
                       cap_w=cap_w, anchors=anchors, targets_truncated=trunc_vals)
    outs = forward_batch(net, anchors.T)
    worst_inf = float(np.max(np.abs(outs - trunc_vals.T)))
    if worst_inf != 0.0:
        raise ObgcsError(f"anchor reproduction is not exact (max dev {worst_inf:.3e})")
    gap = max(float(np.linalg.norm(trunc_vals[i] - targets[i])) for i in range(s))
    if gap > tau:
        raise ObgcsError(f"truncation distance {gap:.3e} exceeds tau={tau}")
    return mem
