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
from .generator import forward, forward_with_preacts, split_output_layer, vjp_from_preacts
from .measurement import scaling_constant, sign_pm1
from .util import as_count


# The LS step rule: each restart takes Barzilai-Borwein (BB1) steps s's/s'y
# (Barzilai & Borwein 1988), every one checked by a monotone Armijo
# backtracking search (Nocedal & Wright, ch. 3).
_FIRST_STEP = 1.0        # first trial step of every restart
_ARMIJO_C1 = 1e-4        # sufficient-decrease constant
_MAX_GROWTH = 4.0        # a BB step is at most this multiple of the last accepted one
_MAX_BACKTRACKS = 60     # halvings before a search gives up
# stop once f_old - f_new <= _STOP_RTOL * (1 + |f_old|): L-BFGS-B's default
# moderate-accuracy factr = 1e7 (Zhu, Byrd, Lu & Nocedal, ACM TOMS 1997)
_STOP_RTOL = 1e7 * float(np.finfo(float).eps)
_BIHT_ITERS = 100        # BIHT steps at most; a fixed point stops it sooner


@dataclass
class LsDecoderConfig:
    """Restart/step schedule for the latent least-squares decoder.

    ``mode`` is "lagrangian" (penalty ``lam * ||z||^2``) or "constrained"
    (projection onto the ball of radius ``radius`` after every step).
    ``steps_per_restart`` caps the steps of each restart; ``ls_decode``
    gives the step rule and the other ways a restart stops.
    """

    mode: str = "lagrangian"
    lam: float = 1e-3
    radius: float = 1.0
    restarts: int = 10
    steps_per_restart: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("lagrangian", "constrained"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "lagrangian" and not 0 <= self.lam < math.inf:
            raise ValueError(f"penalty weight must be finite and >= 0, got {self.lam}")
        if self.mode == "constrained" and not self.radius > 0:
            raise ValueError(f"constraint radius must be > 0, got {self.radius}")
        self.restarts = as_count(self.restarts, "restarts")
        self.steps_per_restart = as_count(self.steps_per_restart, "steps_per_restart")


@dataclass
class DecoderResult:
    """Best latent point found, its signal, and the winning restart's diagnostics.

    ``iterations`` counts the steps the winning restart took, ``loss_trace``
    holds its loss at the start and after each of them, ``grad_norm`` is
    ||grad f|| at its endpoint, ``step`` its last accepted step (0.0 if it
    took none), ``restart_losses`` the final loss of every restart, and
    ``passes`` the batched generator passes the decode made, start included.
    """

    z_hat: np.ndarray
    x_hat: np.ndarray
    objective: float
    loss_trace: list = field(repr=False)
    restart_index: int = 0
    iterations: int = 0
    grad_norm: float = 0.0
    step: float = 0.0
    restart_losses: list = field(default_factory=list, repr=False)
    passes: int = 0


def ls_decode(obs, ens, net, cfg):
    """Best-of-restarts descent on the latent sign-fitting loss.

    Each restart starts from z0 ~ N(0, I) (projected onto the ball in
    constrained mode). Its steps are Barzilai-Borwein lengths s's / s'y, at
    most 4x its last accepted step, each accepted only when a
    backtracking search (halving) finds the Armijo decrease
    f(z+) <= f(z) + c1 <grad f(z), z+ - z>, with z+ projected in constrained
    mode. The loss never rises. A restart stops once a step lowers its loss
    by at most 1e7 eps (1 + |f|) (about 2.2e-9 relative; L-BFGS-B's default
    factr = 1e7), when a search finds no such decrease, or at
    ``steps_per_restart`` steps; a stopped restart stays where it is. The
    endpoint with the smallest final loss wins, ties broken by lowest
    restart index. Deterministic in ``cfg.seed``. Raises DivergenceError
    naming the restart and step if a restart's loss is non-finite at its
    start point, or every trial point of one of its searches is; when
    several restarts fail, it names the one whose search runs out first
    (the lowest index among those that run out in the same pass).

    Each pass evaluates one trial point per restart as one (k, R) batch, so
    every restart runs its own search and none waits for another's halvings;
    a stopped restart stays in the batch at a zero step, so the batch width
    and its rounding never change. One generator pass per trial point gives
    both its loss and its gradient. The step bookkeeping (Armijo test, BB
    step, stop rules) runs on plain floats over the running restarts only:
    on (R,) arrays numpy's cost per call exceeds the arithmetic. The loss is
    quadratic in x = G(z): when m > n a one-off O(m n^2) build of
    H = A^T A / m, b = A^T y / m and c = |y|^2 / m makes every trial
    O(n^2 R), independent of m; when m <= n the residual A x - y is the
    cheaper form. When m > n and the net ends in an identity layer
    x = W h + b whose input width d is below n (``split_output_layer``),
    the quadratic is taken in h instead: a one-off O(n^2 d) fold into
    P = W^T H W makes every trial O(d^2 R), and the passes run the net
    only up to its last ReLU. The returned
    ``objective`` is recomputed from the residual, so a near-zero loss is
    not lost to cancellation.
    """
    A, y = ens.A, _signs_of(obs, ens)
    if net.signal_dim != A.shape[1]:
        raise ShapeError("generator output dimension does not match signal size")
    m = A.shape[0]
    k = net.latent_dim
    lam = cfg.lam if cfg.mode == "lagrangian" else 0.0
    radius = cfg.radius if cfg.mode == "constrained" else None
    body, data_term = _data_term(net, A, y)

    def evaluate(Z):
        X, preacts = forward_with_preacts(body, Z)
        data_loss, cotangent = data_term(X)
        return (data_loss + lam * np.add.reduce(Z * Z, 0),
                vjp_from_preacts(body, preacts, cotangent) + 2.0 * lam * Z)

    rng = np.random.default_rng(cfg.seed)
    Z = rng.standard_normal((k, cfg.restarts))
    if radius is not None:
        Z = _project_ball_cols(Z, radius)

    with np.errstate(over="ignore", invalid="ignore"):
        f, G = evaluate(Z)
        if not np.all(np.isfinite(f)):
            bad = int(np.flatnonzero(~np.isfinite(f))[0])
            raise DivergenceError(f"non-finite loss at restart {bad}, step 0 (its start point)",
                                  restart=bad, step=0)
        f = f.tolist()
        a = [_FIRST_STEP] * cfg.restarts  # each restart's current trial step; 0.0 once stopped
        halvings = [0] * cfg.restarts  # in its current search
        finite = [False] * cfg.restarts  # its current search met a finite loss
        traces = [[(loss, 0.0)] for loss in f]  # (loss, step) at its start and each accepted step
        running = list(range(cfg.restarts))
        passes = 1
        while running:
            Zt = Z - np.array(a) * G
            if radius is not None:
                Zt = _project_ball_cols(Zt, radius)
            ft, Gt = evaluate(Zt)
            passes += 1
            S = Zt - Z
            ft = ft.tolist()
            gs = np.add.reduce(G * S, 0).tolist()
            sy = np.add.reduce(S * (Gt - G), 0).tolist()
            ss = np.add.reduce(S * S, 0).tolist()
            accepted, still = [], []
            for j in running:
                fj, tj, aj = f[j], ft[j], a[j]
                # 0.0 if gs >= 0 else gs: a NaN gs fails the test, as under np.minimum
                if math.isfinite(tj) and tj <= fj + _ARMIJO_C1 * (0.0 if gs[j] >= 0.0 else gs[j]):
                    accepted.append(j)
                    traces[j].append((tj, aj))
                    f[j], halvings[j], finite[j] = tj, 0, False
                    bb = ss[j] / sy[j] if sy[j] > 0 else math.inf
                    a[j] = _MAX_GROWTH * aj if _MAX_GROWTH * aj < bb else bb  # NaN bb stays NaN
                    stop = (fj - tj <= _STOP_RTOL * (1.0 + abs(fj))
                            or len(traces[j]) > cfg.steps_per_restart)
                else:
                    finite[j] = finite[j] or math.isfinite(tj)
                    halvings[j] += 1
                    a[j] = 0.5 * aj
                    stop = halvings[j] > _MAX_BACKTRACKS  # its search ran out of halvings
                    if stop and not finite[j]:
                        step = len(traces[j])
                        raise DivergenceError(f"no finite trial loss at restart {j}, "
                                              f"step {step}", restart=j, step=step)
                if stop:
                    a[j] = 0.0  # it tries a zero step from now on
                else:
                    still.append(j)
            running = still
            if len(accepted) == cfg.restarts:
                Z, G = Zt, Gt
            elif accepted:
                took = np.zeros(cfg.restarts, dtype=bool)
                took[accepted] = True
                Z, G = np.where(took, Zt, Z), np.where(took, Gt, G)

    best = f.index(min(f))  # the first (lowest) index on ties
    trace = traces[best]
    z_hat = Z[:, best].copy()
    x_hat = forward(net, z_hat)
    r = A @ x_hat - y
    objective = float(0.5 * (r @ r) / m + lam * float(z_hat @ z_hat))
    return DecoderResult(
        z_hat=z_hat,
        x_hat=x_hat,
        objective=objective,
        loss_trace=[loss for loss, _ in trace],
        restart_index=best,
        iterations=len(trace) - 1,
        grad_norm=float(np.linalg.norm(G[:, best])),
        step=trace[-1][1],
        restart_losses=f,
        passes=passes,
    )


def _signs_of(obs, ens):
    """The observation's signs, after checking there is one per ensemble row."""
    if obs.y.shape != (ens.A.shape[0],):
        raise ShapeError("observation length does not match measurement count")
    return obs.y


def _residual_term(A, y):
    """Per-column (|A x - y|^2 / 2m, A^T (A x - y) / m), from the residual."""
    m = A.shape[0]

    def term(X):
        resid = A @ X - y[:, None]
        return 0.5 * np.add.reduce(resid * resid, 0) / m, (A.T @ resid) / m
    return term


def _data_term(net, A, y):
    """The net an LS pass runs and the data term on its output, as the pair
    ``(net', term)``: the data loss at z and its cotangent are
    ``term(net'(z))``. The residual form when m <= n; else the Gram form,
    in x = G(z) or, when ``split_output_layer`` splits the net as
    x = W h + b, in its last hidden activation h: then the quadratic's
    P = W^T H W, q = W^T (g - H b) and c' = c - 2 g^T b + b^T H b, and a
    pass skips the output layer.
    """
    m, n = A.shape
    if m <= n:
        return net, _residual_term(A, y)
    H, g, c = (A.T @ A) / m, (A.T @ y) / m, float(y @ y) / m
    split = split_output_layer(net)
    if split is None:
        return net, _gram_term(H, g, c)
    body, W, b = split
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite fold fails at the start
        Hb = H @ b
        return body, _gram_term(W.T @ (H @ W), W.T @ (g - Hb),
                                c - 2.0 * float(g @ b) + float(b @ Hb))


def _gram_term(H, g, c):
    """The same pair as ``_residual_term`` from the quadratic
    (x^T H x - 2 g^T x + c) / 2, with H = A^T A / m, g = A^T y / m and
    c = |y|^2 / m."""

    def term(X):
        HX = H @ X
        return 0.5 * (np.add.reduce(X * HX, 0) - 2.0 * (g @ X) + c), HX - g[:, None]
    return term


def _project_ball_cols(Z, radius):
    norms = np.linalg.norm(Z, axis=0)
    scale = np.where(norms > radius, radius / np.maximum(norms, 1e-300), 1.0)
    return Z * scale


def hard_threshold(x, s):
    """Keep the s largest-magnitude entries, ties broken by lowest index."""
    x = np.asarray(x, dtype=np.float64)
    return _keep_largest(x, as_count(s, "sparsity s", most=x.shape[0]))


def _keep_largest(x, s):
    """``hard_threshold`` without its checks: a stable argsort on -|x|."""
    keep = np.argsort(-np.abs(x), kind="stable")[:s]
    out = np.zeros(x.shape)
    out[keep] = x[keep]
    return out


def biht_decode(obs, ens, s):
    """Binary iterative hard thresholding baseline.

    Iterates x <- H_s(x + (1/m) A^T (y - sign(Ax))) from zero,
    ``_BIHT_ITERS`` times or until an iterate repeats its predecessor byte
    for byte (a fixed point of this deterministic map, which the remaining
    steps would keep), and returns it at unit norm; the output is exactly
    s-sparse. If it is zero (every y_i = +1 leaves x = 0 fixed, as
    sign(0) = +1), it returns H_s(A^T y / m) at unit norm instead: the first
    step with sign(0) read as 0. Zeros if that is zero too. Raises ValueError before the first step
    unless ``s`` is an integer in [1, n].
    """
    A, y = ens.A, _signs_of(obs, ens)
    m, n = A.shape
    s = as_count(s, "sparsity s", most=n)
    x = np.zeros(n)
    for _ in range(_BIHT_ITERS):
        x_new = _keep_largest(x + (1.0 / m) * (A.T @ (y - sign_pm1(A @ x))), s)
        # bytes, not ==: stopping where only a zero's sign differs could flip it
        if x_new.tobytes() == x.tobytes():
            break
        x = x_new
    nrm = np.linalg.norm(x)
    if nrm == 0.0:
        x = _keep_largest((1.0 / m) * (A.T @ y), s)
        nrm = np.linalg.norm(x)
    return x / nrm if nrm > 0.0 else x


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
    if not s > 0:
        raise ValueError(f"L1 radius must be positive, got {s}")
    g = (ens.A.T @ _signs_of(obs, ens)) / ens.m
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
    divided by sqrt(n), and the cosine similarity.
    """
    x_hat = np.asarray(x_hat, dtype=np.float64)
    x_star = np.asarray(x_star, dtype=np.float64)
    if x_hat.shape != x_star.shape:
        raise ShapeError(f"shape mismatch {x_hat.shape} vs {x_star.shape}")
    nh = np.linalg.norm(x_hat)
    ns = np.linalg.norm(x_star)
    if nh == 0.0 or ns == 0.0:
        raise ZeroDivisionError("cosine undefined for a zero-norm vector")
    l2 = float(np.linalg.norm(x_hat - scaling_constant(sigma, q) * x_star))
    return {
        "l2_err_vs_c_xstar": l2,
        "cosine": float((x_hat @ x_star) / (nh * ns)),
        "per_pixel": l2 / math.sqrt(x_hat.shape[0]),
    }
