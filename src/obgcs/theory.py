"""Empirical validators for the analysis machinery behind the decoder.

Everything here is a seeded Monte-Carlo check, not a proof, except the
covering nets, lattices of pitch 2 epsilon/sqrt(k) proven to cover (k <= 8):
restricted-eigenvalue sampling over generator images, random-projection
distortion tests, Gaussian mean-width estimation, and concentration
diagnostics for the empirical covariance.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DegenerateConeError, ShapeError
from .generator import forward, forward_batch, lipschitz_upper_bound, split_output_layer
from .util import as_count

_LATTICE_BUDGET = 2_000_000
_CHUNK_ENTRIES = 1 << 16  # entries of one _min_dists product (512 KB; 2 MB timed slower)
_CHECK_SAMPLES = 10_000  # uniform ball points a coverage check measures


@dataclass
class EpsNet:
    """Finite subset of the radius-r ball meant to cover it to within epsilon."""

    points: np.ndarray
    epsilon: float
    r: float

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2:
            raise ShapeError("net points must form a (count, dim) array")
        norms = np.linalg.norm(self.points, axis=1)
        if np.any(norms > self.r * (1 + 1e-9) + 1e-12):
            raise ValueError("net contains points outside the ball")

    def __len__(self):
        return self.points.shape[0]

    def covering_radius_sampled(self, seed=0):
        """Max distance from _CHECK_SAMPLES random ball points to the net; +inf
        for an empty net, which covers nothing."""
        rng = np.random.default_rng(seed)
        test = _uniform_ball(rng, _CHECK_SAMPLES, self.points.shape[1], self.r)
        return float(_min_dists(test, self.points).max(initial=0.0))


def _uniform_ball(rng, count, dim, radius):
    g = rng.standard_normal((count, dim))
    g /= np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
    u = rng.random(count) ** (1.0 / dim)
    return g * (radius * u)[:, None]


def _min_dists(points, net):
    """Each point's distance to its nearest net point; +inf for an empty net.

    Uses |x - p|^2 = |x|^2 + (|p|^2 - 2 x.p): the bracket for a chunk of rows
    is the one product [x, 1] @ [-2 p^T; |p|^2], its row minimum is taken, and
    |x|^2 is added after (rounding is monotone, so adding before or after the
    minimum gives the same value). Chunks hold about _CHUNK_ENTRIES entries.
    """
    lifted_net = np.vstack([-2.0 * net.T, np.sum(net * net, axis=1)])
    lifted = np.hstack([points, np.ones((points.shape[0], 1))])
    rows = max(1, _CHUNK_ENTRIES // max(net.shape[0], 1))
    out = np.empty(points.shape[0])
    for start in range(0, points.shape[0], rows):
        bracket = lifted[start:start + rows] @ lifted_net
        out[start:start + rows] = np.min(bracket, axis=1, initial=np.inf)
    out += np.sum(points * points, axis=1)
    return np.sqrt(np.maximum(out, 0.0))


def _lattice_points(k, pitch, radius):
    """All lattice points (multiples of pitch) with norm <= radius, in
    lexicographic order: each pass extends every coordinate prefix by the
    multiples of pitch its remaining squared-norm budget allows.

    More than _LATTICE_BUDGET points is a CapacityError, decided before any
    coordinates are built: by a volume bound (the cubes of side pitch around
    the points cover the ball whose radius is the cube half-diagonal short of
    ``radius``, so there are at least its volume / pitch^k points), then by
    a first sweep that extends the prefix norms alone.
    """
    inner = max(radius - pitch * math.sqrt(k) / 2, 0.0)
    least = math.pi ** (k / 2) / math.gamma(k / 2 + 1) * (inner / pitch) ** k
    for build in (False, True):
        pts, norm2 = np.zeros((1, 0)), np.zeros(1)
        for _ in range(k):
            budget = radius * radius - norm2
            top = np.floor(np.sqrt(np.maximum(budget, 0.0)) / pitch).astype(np.int64)
            counts = np.where(budget >= 0, 2 * top + 1, 0)
            total = int(counts.sum())
            if max(total, least) > _LATTICE_BUDGET:
                raise CapacityError(f"the k={k} lattice of pitch {pitch:.3g} exceeds "
                                    f"{_LATTICE_BUDGET} points; use a larger epsilon")
            first = np.repeat(np.cumsum(counts) - counts + top, counts)
            coord = (np.arange(total) - first) * pitch
            if build:
                pts = np.hstack([np.repeat(pts, counts, axis=0), coord[:, None]])
            norm2 = np.repeat(norm2, counts) + coord ** 2
    return pts


def build_eps_net(k, r, epsilon):
    """An epsilon-net of the radius-r ball in R^k, for k <= 8.

    The net is the axis-aligned grid of pitch 2 epsilon/sqrt(k) inside the
    radius-(r + epsilon) ball, its points outside the radius-r ball projected
    onto the sphere. A grid cell's half-diagonal is epsilon, so each x in the
    ball lies within epsilon of a grid point p, and |p| <= r + epsilon;
    projection onto the ball moves p no farther from x. Points on one ray can
    meet or nearly meet on the sphere (8 pairs 1e-9 apart at k=4,
    epsilon=0.5); a net with repeats still covers, so they stay.

    For larger k the lattice blows up, and no other net here is proven to
    cover, so k > 8 is a CapacityError.
    """
    k = as_count(k, "k")
    r = float(r)
    epsilon = float(epsilon)
    if not r > 0:
        raise ValueError("need r > 0")
    if not 0 < epsilon <= 2 * r:
        raise ValueError("need 0 < epsilon <= 2r")
    if k > 8:
        raise CapacityError(f"no proven epsilon-net for k={k}: the lattice net "
                            "is built for k <= 8")
    # 1e-9 below 2 epsilon/sqrt(k): at exactly that, cell corners measured epsilon (1 + 1.1e-14)
    pitch = 2.0 * epsilon / math.sqrt(k) * (1.0 - 1e-9)
    pts = _lattice_points(k, pitch, r + epsilon)
    norms = np.linalg.norm(pts, axis=1)
    outside = norms > r
    pts[outside] *= (r / norms[outside])[:, None]
    return EpsNet(points=pts, epsilon=epsilon, r=r)


@dataclass
class SrecReport:
    """Outcome of sampling the restricted-eigenvalue inequality over pairs."""

    violations: int
    min_ratio: float


def check_srec(ens, net, gamma, delta, num_pairs, seed):
    """Sample latent pairs from the unit ball and test
    (1/m)||A(x1-x2)||^2 >= gamma ||x1-x2||^2 - delta.

    Pairs whose generator images are closer than 1e-9 are skipped in the
    ratio statistic (0/0); ``min_ratio`` is the smallest observed
    ((1/m)||A d||^2 + delta) / ||d||^2. ValueError unless gamma and delta
    are finite.

    When ``split_output_layer`` splits the net as x = W h + b, both sides
    are quadratic forms in dh = h1 - h2, the bias cancelling:
    (1/m)||A d||^2 = dh^T (W^T H W) dh with H = A^T A / m, and
    ||d||^2 = dh^T (W^T W) dh. The pairs then never reach the n-wide output
    or an m x pairs product.
    """
    if not (math.isfinite(gamma) and math.isfinite(delta)):
        raise ValueError(f"gamma and delta must be finite, got {gamma} and {delta}")
    num_pairs = as_count(num_pairs, "num_pairs")
    rng = np.random.default_rng(seed)
    k = net.latent_dim
    z1 = _uniform_ball(rng, num_pairs, k, 1.0).T
    z2 = _uniform_ball(rng, num_pairs, k, 1.0).T
    split = split_output_layer(net)
    if split is None:
        diff = forward_batch(net, z1) - forward_batch(net, z2)
        d2 = np.sum(diff * diff, axis=0)
        lhs = np.sum((ens.A @ diff) ** 2, axis=0) / ens.m
    else:  # x1 - x2 = W (h1 - h2): the bias cancels
        body, W, _ = split
        dh = forward_batch(body, z1) - forward_batch(body, z2)
        AW = ens.A @ W
        d2 = np.sum(dh * ((W.T @ W) @ dh), axis=0)
        lhs = np.sum(dh * ((AW.T @ AW / ens.m) @ dh), axis=0)
    violations = int(np.sum(lhs < gamma * d2 - delta))
    valid = d2 >= 1e-18
    if np.any(valid):
        min_ratio = float(np.min((lhs[valid] + delta) / d2[valid]))
    else:
        min_ratio = math.inf
    return SrecReport(violations=violations, min_ratio=min_ratio)


def check_jl(ens, point_set, epsilon):
    """Distortion of the whitened projection t -> (1/sqrt(m)) A L^(-T) t (L: Cholesky factor).

    Measures max over point pairs of |ratio - 1| where ratio compares image
    distance to original distance; passes when every ratio lies in
    [1-epsilon, 1+epsilon]. Pairs at identical points are skipped. ValueError
    unless epsilon is finite.
    """
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    T = np.asarray(point_set, dtype=np.float64)
    if T.ndim != 2 or T.shape[0] < 2:
        raise ShapeError("need a (count, n) point set with count >= 2")
    if T.shape[1] != ens.n:
        raise ShapeError(f"points have dim {T.shape[1]}, ensemble expects {ens.n}")
    images = (ens.cov.whiten(ens.A) @ T.T) / math.sqrt(ens.m)  # (m, count)
    count = T.shape[0]
    max_distortion = 0.0
    compared = 0
    for i in range(count):
        d_orig = np.linalg.norm(T[i + 1:] - T[i], axis=1)
        d_img = np.linalg.norm(images[:, i + 1:] - images[:, i:i + 1], axis=0)
        ok = d_orig > 1e-12
        if np.any(ok):
            ratios = d_img[ok] / d_orig[ok]
            max_distortion = max(max_distortion, float(np.max(np.abs(ratios - 1.0))))
            compared += int(np.sum(ok))
    if compared == 0:
        raise ValueError("all points coincide; no pairs to compare")
    return {"max_distortion": max_distortion, "pass": bool(max_distortion <= epsilon)}


@dataclass
class MeanWidthEstimate:
    """Monte-Carlo estimate of the Gaussian mean width of a direction set."""

    omega_hat: float
    std_err: float
    net_size: int
    theoretical_bound: float = math.nan


def mean_width_of_directions(directions, num_gaussians, seed):
    """E max over the given unit directions of <g, v>, g standard normal.

    The mean uses exact compensated summation so the reported value does not
    depend on reduction order beyond a final rounding.
    """
    D = np.asarray(directions, dtype=np.float64)
    if D.ndim != 2 or D.shape[0] < 1:
        raise DegenerateConeError("direction set is empty")
    num = as_count(num_gaussians, "num_gaussians")
    rng = np.random.default_rng(seed)
    maxima = []
    block = max(1, min(num, 20_000_000 // max(D.size, 1)))
    done = 0
    while done < num:
        take = min(block, num - done)
        G = rng.standard_normal((take, D.shape[1]))
        maxima.extend((G @ D.T).max(axis=1).tolist())
        done += take
    omega = math.fsum(maxima) / len(maxima)
    var = math.fsum((v - omega) ** 2 for v in maxima) / max(len(maxima) - 1, 1)
    bound = math.sqrt(2.0 * math.log(max(D.shape[0], 2)))
    return MeanWidthEstimate(omega_hat=float(omega),
                             std_err=math.sqrt(var / len(maxima)),
                             net_size=D.shape[0], theoretical_bound=bound)


def estimate_local_mean_width(net, z_bar, gamma_scale, num_gaussians, net_epsilon, seed):
    """Mean width of the normalized generator-difference cone around z_bar.

    Builds an epsilon-net of the unit latent ball, keeps directions
    (G(u) - G(z_bar)) / ||G(u) - G(z_bar)|| whose length clears gamma_scale,
    and Monte-Carlo estimates E sup <g, v>. The reported theoretical bound is
    sqrt(2k log(16 L / (gamma epsilon))) + sqrt(n) epsilon with L the
    generator's Lipschitz upper bound. ValueError naming the parameter
    unless 0 < gamma_scale < inf, net_epsilon > 0 and num_gaussians >= 2.
    """
    if not 0 < gamma_scale < math.inf:
        raise ValueError(f"gamma_scale must be finite and > 0, got {gamma_scale}")
    if not net_epsilon > 0:
        raise ValueError(f"net_epsilon must be > 0, got {net_epsilon}")
    if not num_gaussians >= 2:
        raise ValueError(f"num_gaussians must be >= 2, got {num_gaussians}")
    k = net.latent_dim
    u_net = build_eps_net(k, 1.0, net_epsilon)
    images = forward_batch(net, u_net.points.T)
    base = forward(net, np.asarray(z_bar, dtype=np.float64))
    diffs = images - base[:, None]
    lens = np.linalg.norm(diffs, axis=0)
    keep = lens >= gamma_scale
    if not np.any(keep):
        raise DegenerateConeError(
            "every net image lies within gamma of the base point; the "
            "direction cone is empty")
    directions = (diffs[:, keep] / lens[keep]).T
    est = mean_width_of_directions(directions, num_gaussians, seed)
    lip = lipschitz_upper_bound(net)
    arg = 16.0 * lip / (gamma_scale * net_epsilon)
    bound = math.sqrt(2.0 * k * math.log(arg)) if arg > 1.0 else 0.0
    bound += math.sqrt(net.signal_dim) * net_epsilon
    return MeanWidthEstimate(omega_hat=est.omega_hat, std_err=est.std_err,
                             net_size=len(u_net), theoretical_bound=float(bound))


def concentration_diagnostics(ens, obs):
    """Deviation statistics of the sampled ensemble from its population law.

    Returns ``linf_grad`` = || A^T y / m - E[a y] ||_inf (with E[a y] computed
    from the truth record), ``linf_cov`` = max-entry deviation of the
    empirical covariance, and ``spec_cov`` = its spectral-norm deviation
    (largest absolute eigenvalue, computed exactly).
    """
    A = ens.A
    m = ens.m
    sigma_mat = ens.cov.dense()
    x_star = obs.x_star
    sig_norm2 = float(x_star @ (sigma_mat @ x_star))
    # population mean of a*y for y = eta*sign(a.x* + eps):
    # (2q-1) sqrt(2/pi) Sigma x* / sqrt(||x*||_Sigma^2 + sigma^2)
    denom = math.sqrt(sig_norm2 + ens.sigma ** 2)
    if denom == 0.0:
        raise ValueError("ground truth has zero covariance norm and no noise")
    expected_ay = (2.0 * ens.q - 1.0) * math.sqrt(2.0 / math.pi) * (sigma_mat @ x_star) / denom
    linf_grad = float(np.max(np.abs(A.T @ obs.y / m - expected_ay)))
    dev = A.T @ A / m - sigma_mat
    return {
        "linf_grad": linf_grad,
        "linf_cov": float(np.max(np.abs(dev))),
        "spec_cov": float(np.max(np.abs(np.linalg.eigvalsh(dev)))),
    }
