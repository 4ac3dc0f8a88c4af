"""Decoders for one-bit measurements.

The main decoder searches latent space by gradient descent on the quadratic
sign-fitting loss f(z) = ||y - A G(z)||^2 / (2m), either with an L2 ball
constraint on z (enforced by radial projection) or with a ridge penalty
lambda ||z||^2. Two sparse baselines are included: binary iterative hard
thresholding, and the closed-form optimum of the convex program maximizing
<y, Ax>/m over the intersection of an L1 ball and the unit L2 ball.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, ShapeError
from .generator import forward, forward_with_preacts, lipschitz_upper_bound, vjp_from_preacts
from .measurement import scaling_constant, sign_pm1


@dataclass
class LsDecoderConfig:
    """Restart/step schedule for the latent least-squares decoder.

    ``mode`` is "lagrangian" (penalty ``lam * ||z||^2``) or "constrained"
    (projection onto the ball of radius ``radius`` after every step).
    ``step_size=None`` uses 0.1 / L^2 where L is the generator's cached
    Lipschitz upper bound (falling back to 0.1 if L is 0).
    """

    mode: str = "lagrangian"
    lam: float = 1e-3
    radius: float = 1.0
    restarts: int = 10
    steps_per_restart: int = 1000
    step_size: float | None = None
    seed: int = 0
    init_scale: float = 1.0

    def __post_init__(self):
        if self.mode not in ("lagrangian", "constrained"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "lagrangian" and self.lam < 0:
            raise ValueError("penalty weight must be >= 0")
        if self.mode == "constrained" and self.radius <= 0:
            raise ValueError("constraint radius must be > 0")
        if self.restarts < 1 or self.steps_per_restart < 1:
            raise ValueError("need at least one restart and one step")
        if self.step_size is not None and self.step_size <= 0:
            raise ValueError("step size must be positive")
        if self.init_scale <= 0:
            raise ValueError("init scale must be positive")


@dataclass
class DecoderResult:
    """Best latent point found, its signal, and the winning restart's trace."""

    z_hat: np.ndarray
    x_hat: np.ndarray
    objective: float
    loss_trace: list = field(repr=False)
    restart_index: int = 0
    iterations: int = 0


def _default_step(net):
    lip = lipschitz_upper_bound(net)
    return 0.1 / (lip * lip) if lip > 0 else 0.1


def ls_decode(obs, ens, net, cfg):
    """Best-of-restarts gradient descent on the latent sign-fitting loss.

    Each restart starts from z0 ~ N(0, init_scale^2 I) and runs a fixed
    number of fixed-size gradient steps; the endpoint with the smallest final
    objective wins, ties broken by lowest restart index. Deterministic in
    ``cfg.seed``. Raises DivergenceError naming the restart and step if the
    loss becomes non-finite.

    All restarts advance together, with one generator pass per step feeding
    both the loss and the gradient. The loss is quadratic in x = G(z): when
    m > n a one-off O(m n^2) build of H = A^T A / m, b = A^T y / m and
    c = |y|^2 / m makes every step O(n^2 R) for R restarts, independent of
    m; when m <= n the residual A x - y is the cheaper form and is used
    directly. The returned ``objective`` is always recomputed from the
    residual, so a near-zero loss is not lost to cancellation.
    """
    y = obs.y
    A = ens.A
    if y.shape[0] != A.shape[0]:
        raise ShapeError("observation length does not match measurement count")
    if net.signal_dim != A.shape[1]:
        raise ShapeError("generator output dimension does not match signal size")
    m, n = A.shape
    k = net.latent_dim
    steps = cfg.steps_per_restart
    step = cfg.step_size if cfg.step_size is not None else _default_step(net)
    lam = cfg.lam if cfg.mode == "lagrangian" else 0.0
    data_term = _gram_term(A, y) if m > n else _residual_term(A, y)

    rng = np.random.default_rng(cfg.seed)
    Z = cfg.init_scale * rng.standard_normal((k, cfg.restarts))
    if cfg.mode == "constrained":
        Z = _project_ball_cols(Z, cfg.radius)

    traces = np.empty((steps + 1, cfg.restarts))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps + 1):
            X, preacts = forward_with_preacts(net, Z)
            data_loss, cotangent = data_term(X)
            losses = data_loss + lam * np.sum(Z * Z, axis=0)
            if not np.all(np.isfinite(losses)):
                bad = int(np.flatnonzero(~np.isfinite(losses))[0])
                raise DivergenceError(
                    f"non-finite loss at restart {bad}, step {t}; reduce the step size",
                    restart=bad, step=t)
            traces[t] = losses
            if t == steps:
                break
            grad = vjp_from_preacts(net, preacts, cotangent) + 2.0 * lam * Z
            Z = Z - step * grad
            if cfg.mode == "constrained":
                Z = _project_ball_cols(Z, cfg.radius)

    best = int(np.argmin(losses))  # argmin returns the first (lowest) index on ties
    z_hat = Z[:, best].copy()
    x_hat = forward(net, z_hat)
    r = A @ x_hat - y
    objective = float(0.5 * (r @ r) / m + lam * float(z_hat @ z_hat))
    return DecoderResult(
        z_hat=z_hat,
        x_hat=x_hat,
        objective=objective,
        loss_trace=traces[:, best].tolist(),
        restart_index=best,
        iterations=steps,
    )


def _residual_term(A, y):
    """Per-column (|A x - y|^2 / 2m, A^T (A x - y) / m), from the residual."""
    m = A.shape[0]

    def term(X):
        resid = A @ X - y[:, None]
        return 0.5 * np.sum(resid * resid, axis=0) / m, (A.T @ resid) / m
    return term


def _gram_term(A, y):
    """The same pair as ``_residual_term`` from H = A^T A / m, b = A^T y / m."""
    m = A.shape[0]
    H = (A.T @ A) / m
    b = (A.T @ y) / m
    c = float(y @ y) / m

    def term(X):
        HX = H @ X
        return 0.5 * (np.sum(X * HX, axis=0) - 2.0 * (b @ X) + c), HX - b[:, None]
    return term


def _project_ball_cols(Z, radius):
    norms = np.linalg.norm(Z, axis=0)
    scale = np.where(norms > radius, radius / np.maximum(norms, 1e-300), 1.0)
    return Z * scale


def hard_threshold(x, s):
    """Keep the s largest-magnitude entries, ties broken by lowest index."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    s = int(s)
    if not 1 <= s <= n:
        raise ValueError(f"sparsity must lie in [1, {n}], got {s}")
    if s == n:
        return x.copy()
    order = np.argsort(-np.abs(x), kind="stable")
    out = np.zeros_like(x)
    keep = order[:s]
    out[keep] = x[keep]
    return out


def biht_decode(obs, ens, s, iters=100, step=1.0):
    """Binary iterative hard thresholding baseline.

    Iterates x <- H_s(x + (step/m) A^T (y - sign(Ax))) from zero and returns
    the final iterate rescaled to unit norm; the output is exactly s-sparse.
    """
    A = ens.A
    y = obs.y
    m = A.shape[0]
    x = np.zeros(A.shape[1])
    for _ in range(int(iters)):
        x = hard_threshold(x + (step / m) * (A.T @ (y - sign_pm1(A @ x))), s)
    nrm = np.linalg.norm(x)
    if nrm == 0.0:
        x[0] = 1.0  # degenerate all-zero iterate; return a fixed unit vector
        return x
    return x / nrm


def project_l1_ball(x, radius):
    """Exact Euclidean projection onto {v : ||v||_1 <= radius} (sort-based)."""
    if radius <= 0:
        raise ValueError("L1 radius must be positive")
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x)
    if a.sum() <= radius:
        return x.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, x.size + 1)
    rho = np.max(idx[u * idx > (css - radius)])
    theta = (css[rho - 1] - radius) / rho
    return np.sign(x) * np.maximum(a - theta, 0.0)


def pv_convex_decode(obs, ens, s_ell1):
    """Convex baseline: maximize <y, Ax>/m over {||x||_1 <= s, ||x||_2 <= 1}.

    The objective g^T x, g = A^T y / m, is linear, so the optimum is
    x = S_lam(g) / ||S_lam(g)||_2 with S_lam soft-thresholding and lam >= 0
    the smallest value with ||S_lam(g)||_1 <= s ||S_lam(g)||_2 (Plan &
    Vershynin 2013), found by a breakpoint search over the sorted |g|. If s^2
    is below the number t of entries tied for the largest |g_i| (always when
    s < 1), the optimum spreads L1 mass s evenly over those: the vertex
    s sign(g_i) e_i when t = 1. Zeros when g = 0.
    """
    s = float(s_ell1)
    if s <= 0:
        raise ValueError("L1 radius must be positive")
    g = (ens.A.T @ obs.y) / ens.m
    a = np.sort(np.abs(g))[::-1]
    if a[0] == 0.0:
        return np.zeros_like(g)
    t = int(np.count_nonzero(a == a[0]))
    if s * s < t:
        return s * np.sign(g) * (np.abs(g) == a[0]) / t
    # on lam in [a[j], a[j-1]] S_lam keeps the j largest |g_i|; ||S||_1 / ||S||_2
    # grows as lam falls: find the first j where it exceeds s at lam = a[j]
    j = np.arange(1, a.size + 1)
    A1, A2, b = np.cumsum(a), np.cumsum(a * a), np.append(a[1:], 0.0)
    over = (A1 - j * b) ** 2 > s * s * (A2 - 2.0 * b * A1 + j * b * b)
    over[:t] = False  # cannot hold there, as s^2 >= t
    if not over.any():
        return g / np.linalg.norm(g)
    j = int(np.argmax(over)) + 1
    # on that piece ||S_lam||_1 = s ||S_lam||_2 is a quadratic in lam
    A1, A2 = A1[j - 1], A2[j - 1]
    lam = (A1 - s * math.sqrt(max(j * A2 - A1 * A1, 0.0) / (j - s * s))) / j
    x = np.sign(g) * np.maximum(np.abs(g) - lam, 0.0)
    return x / np.linalg.norm(x)


def estimation_error(x_hat, x_star, sigma, q):
    """Error metrics against the scaled ground truth c * x_star.

    Returns ``l2_err_vs_c_xstar`` = ||x_hat - c x*||, ``per_pixel`` = that
    divided by sqrt(n), ``per_pixel_normalized`` = || x_hat/||x_hat|| -
    x*/||x*|| || / sqrt(n) (scale-free variant), and the cosine similarity.
    """
    x_hat = np.asarray(x_hat, dtype=np.float64)
    x_star = np.asarray(x_star, dtype=np.float64)
    if x_hat.shape != x_star.shape:
        raise ShapeError(f"shape mismatch {x_hat.shape} vs {x_star.shape}")
    nh = np.linalg.norm(x_hat)
    ns = np.linalg.norm(x_star)
    if nh == 0.0 or ns == 0.0:
        raise ZeroDivisionError("cosine undefined for a zero-norm vector")
    c = scaling_constant(sigma, q)
    n = x_hat.shape[0]
    l2 = float(np.linalg.norm(x_hat - c * x_star))
    return {
        "l2_err_vs_c_xstar": l2,
        "cosine": float((x_hat @ x_star) / (nh * ns)),
        "per_pixel": l2 / math.sqrt(n),
        "per_pixel_normalized": float(np.linalg.norm(x_hat / nh - x_star / ns)) / math.sqrt(n),
    }
