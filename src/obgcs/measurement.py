"""One-bit measurement model: correlated Gaussian sensing plus sign flips.

The observation of a signal x* is y = eta * sign(A x* + eps), where the rows
of A are i.i.d. N(0, Sigma), eps is N(0, sigma^2 I) pre-quantization noise,
and eta flips each sign independently (eta = +1 with probability q). The
convention sign(0) = +1 makes observations exactly reproducible.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteError, NotSpdError, ShapeError
from .generator import forward
from .util import as_count, rng_for


@dataclass
class CovarianceSpec:
    """Row covariance of the sensing matrix: toeplitz nu^|i-j|, the identity at nu = 0."""

    n: int
    nu: float = 0.0
    _dense: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _factor: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def identity(cls, n):
        return cls(n=as_count(n, "n"))

    @classmethod
    def toeplitz(cls, n, nu):
        nu = float(nu)
        if not -1.0 < nu < 1.0:
            raise ValueError(f"toeplitz correlation must lie in (-1, 1), got {nu}")
        return cls(n=as_count(n, "n"), nu=nu)

    def dense(self):
        """Sigma as a dense matrix, computed once and read-only."""
        if self._dense is None:
            idx = np.arange(self.n)
            self._dense = self.nu ** np.abs(idx[:, None] - idx[None, :])
            self._dense.flags.writeable = False
        return self._dense

    def cholesky(self):
        """Lower Cholesky factor of Sigma, computed once and read-only, or NotSpdError."""
        if self._factor is None:
            try:
                self._factor = np.linalg.cholesky(self.dense())
            except np.linalg.LinAlgError as exc:
                raise NotSpdError(f"covariance is not positive definite: {exc}") from exc
            self._factor.flags.writeable = False
        return self._factor


@dataclass
class MeasurementEnsemble:
    """A sampled sensing matrix together with its noise and flip parameters."""

    A: np.ndarray
    cov: CovarianceSpec
    sigma: float
    q: float
    seed: int

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        if self.A.ndim != 2:
            raise ShapeError("measurement matrix must be 2-D")
        if self.A.shape[0] < 1:
            raise ShapeError("need at least one measurement row")
        if self.A.shape[1] != self.cov.n:
            raise ShapeError(
                f"matrix has {self.A.shape[1]} columns but covariance is {self.cov.n}-dimensional")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"noise level must be finite and nonnegative, got {self.sigma}")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError("flip-keep probability must lie in [0, 1]")

    @property
    def m(self):
        return self.A.shape[0]

    @property
    def n(self):
        return self.A.shape[1]


@dataclass
class BinaryObservation:
    """Signs seen by the decoder plus the ground-truth record for scoring."""

    y: np.ndarray
    x_star: np.ndarray
    eta: np.ndarray
    eps: np.ndarray

    def __post_init__(self):
        for name in ("y", "x_star", "eta", "eps"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if not np.all(np.abs(self.y) == 1.0):
            raise ValueError("observed signs must all be +1 or -1")
        if self.eta.shape != self.y.shape or self.eps.shape != self.y.shape:
            raise ShapeError("eta and eps must match the observation length")


def sign_pm1(v):
    """Componentwise sign with sign(0) = +1, valued in {-1.0, +1.0}."""
    return np.where(np.asarray(v) >= 0, 1.0, -1.0)


def sample_ensemble(m, cov, sigma, q, seed):
    """Draw A = Z C^T with Z iid standard normal and C the Cholesky factor.

    Rows of A are then i.i.d. N(0, Sigma). At nu = 0 C is I, so A is the
    draw Z itself (bitwise what Z @ I gives), with no product and
    no second m x n array. Deterministic in ``seed``; the matrix uses
    sub-stream 0 of the seed so observation noise (sub-stream 1) and flips
    (sub-stream 2) can be varied independently.
    """
    m = as_count(m, "m")
    chol = cov.cholesky()
    rng = rng_for(seed, 0)
    A = rng.standard_normal((m, cov.n))
    if cov.nu != 0.0:
        A = A @ chol.T
    return MeasurementEnsemble(A=A, cov=cov, sigma=float(sigma), q=float(q), seed=int(seed))


def observe(ens, x_star, seed):
    """Generate y = eta * sign(A x* + eps) and keep the truth record.

    ``eps`` is N(0, sigma^2 I) from sub-stream 1 of ``seed`` and ``eta`` is
    +1 with probability q (else -1) from sub-stream 2, so the three
    randomness sources (matrix, noise, flips) are independent and any one can
    be held fixed while the others vary. NonFiniteError if x* is not finite.
    """
    x_star = np.asarray(x_star, dtype=np.float64)
    if x_star.shape != (ens.n,):
        raise ShapeError(f"signal shape {x_star.shape} != {(ens.n,)}")
    if not np.all(np.isfinite(x_star)):
        raise NonFiniteError("x_star has non-finite entries")
    rng_eps = rng_for(seed, 1)
    rng_eta = rng_for(seed, 2)
    eps = ens.sigma * rng_eps.standard_normal(ens.m)
    eta = np.where(rng_eta.random(ens.m) < ens.q, 1.0, -1.0)
    y = eta * sign_pm1(ens.A @ x_star + eps)
    return BinaryObservation(y=y, x_star=x_star, eta=eta, eps=eps)


def sample_truth(net, cov, rng):
    """Ground truth x* = G(z) / |G(z)|_Sigma with z ~ N(0, I_k) drawn from ``rng``;
    OverflowError when that norm is not finite (G(z) overflowed), and
    ZeroDivisionError when it is not positive (G(z) is 0)."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
        x = forward(net, rng.standard_normal(net.latent_dim))
        nrm = sigma_norm(cov, x)
    if not nrm < math.inf:
        raise OverflowError(f"sampled ground truth has covariance norm {nrm}")
    if not nrm > 0.0:
        raise ZeroDivisionError(f"sampled ground truth has covariance norm {nrm}")
    return x / nrm


def scaling_constant(sigma, q):
    """Scale factor (2q-1) sqrt(2 / (pi (sigma^2 + 1))).

    One-bit observations identify the signal only up to this constant (and
    not at all when q = 1/2). Negative q-side flips make it negative.
    """
    sigma = float(sigma)
    q = float(q)
    if not (0.0 <= sigma < math.inf and 0.0 <= q <= 1.0):
        raise ValueError(f"need finite sigma >= 0 and q in [0, 1], got sigma={sigma}, q={q}")
    return (2.0 * q - 1.0) * math.sqrt(2.0 / (math.pi * (sigma * sigma + 1.0)))


def sigma_norm(cov, x):
    """Covariance-weighted norm sqrt(x^T Sigma x)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (cov.n,):
        raise ShapeError(f"vector shape {x.shape} != {(cov.n,)}")
    quad = float(x @ (cov.dense() @ x))
    if quad < -1e-12:
        raise NotSpdError(f"quadratic form came out negative ({quad})")
    return math.sqrt(max(quad, 0.0))
