"""One-bit measurement model: correlated Gaussian sensing plus sign flips.

The observation of a signal x* is y = eta * sign(A x* + eps), where the rows
of A are i.i.d. N(0, Sigma), eps is N(0, sigma^2 I) pre-quantization noise,
and eta flips each sign independently (eta = +1 with probability q). The
convention sign(0) = +1 makes observations exactly reproducible.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteError, ShapeError
from .generator import forward
from .util import as_count, rng_for


# columns colored per block: each costs an (m, b+1) x (b+1, b) product, and an
# m x b buffer is all that coloring allocates. At n=100 and n=784, m from 250
# to 8000 (one BLAS thread, 2-vCPU x86-64), 16 was within 13% of the fastest
# width tried (8 to 64)
_COLOR_BLOCK = 16


@dataclass(frozen=True)
class CovarianceSpec:
    """Row covariance of the sensing matrix: the AR(1) toeplitz nu^|i-j|, the identity at
    nu = 0. ValueError unless n is a count and nu lies in (-1, 1): it is positive definite.
    Immutable, so the cached matrix and factor always belong to its (n, nu)."""

    n: int
    nu: float = 0.0
    _dense: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _factor: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", as_count(self.n, "n"))
        object.__setattr__(self, "nu", float(self.nu))
        if not -1.0 < self.nu < 1.0:
            raise ValueError(f"toeplitz correlation must lie in (-1, 1), got {self.nu}")

    def __reduce__(self):  # a copy, as run_grid's workers get, builds its own read-only caches
        return type(self), (self.n, self.nu)

    @classmethod
    def identity(cls, n):
        return cls(n=n)

    @classmethod
    def toeplitz(cls, n, nu):
        return cls(n=n, nu=nu)

    def dense(self):
        """Sigma as a dense matrix, computed once and read-only."""
        if self._dense is None:
            idx = np.arange(self.n)
            dense = self.nu ** np.abs(idx[:, None] - idx[None, :])
            dense.flags.writeable = False
            object.__setattr__(self, "_dense", dense)
        return self._dense

    @property
    def _innovation(self):  # sqrt(1 - nu^2), keeping its digits as |nu| -> 1
        return math.sqrt((1.0 - self.nu) * (1.0 + self.nu))

    def cholesky(self):
        """Lower Cholesky factor L of Sigma, computed once and read-only:
        L_i1 = nu^(i-1) and L_ij = sqrt(1 - nu^2) nu^(i-j) for 2 <= j <= i."""
        if self._factor is None:
            factor = np.tril(self.dense())
            factor[:, 1:] *= self._innovation
            factor.flags.writeable = False
            object.__setattr__(self, "_factor", factor)
        return self._factor

    def color(self, Z):
        """Z L^T written over Z, which is returned: rows N(0, I) become N(0, Sigma).
        The first b = 16 columns are Z's times L's leading b x b block. Below that,
        L[i0:i0+w, i0:i0+w] is L[1:w+1, 1:w+1] for every i0 >= 1, and rows i0.. of L
        left of it are nu^(1..w) times row i0-1. So each later block of w columns
        is the colored column i0-1 and its own columns times one (w+1) x w matrix:
        an (m, w+1) x (w+1, w) product into an m x b buffer, copied back. A row
        costs about n b multiply-adds instead of n^2. ``whiten`` undoes it."""
        L = self.cholesky()
        b = min(_COLOR_BLOCK, self.n)
        buf = np.empty((Z.shape[0], b))
        np.matmul(Z[:, :b], L[:b, :b].T, out=buf)
        Z[:, :b] = buf
        M = np.vstack([L[1:b + 1, 0], L[1:b + 1, 1:b + 1].T])  # unused when n <= b
        for i0 in range(b, self.n, b):
            w = min(b, self.n - i0)
            np.matmul(Z[:, i0 - 1:i0 + w], M[:w + 1, :w], out=buf[:, :w])
            Z[:, i0:i0 + w] = buf[:, :w]
        return Z

    def whiten(self, A):
        """A L^(-T), whose rows are N(0, I) when A's are N(0, Sigma). L^(-1) is
        bidiagonal: z_1 = a_1 and z_i = (a_i - nu a_(i-1)) / sqrt(1 - nu^2)."""
        return np.hstack([A[:, :1], (A[:, 1:] - self.nu * A[:, :-1]) / self._innovation])


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
            raise ValueError(f"flip-keep probability must lie in [0, 1], got {self.q}")

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
    """Draw A = Z L^T with Z iid standard normal and L the Cholesky factor.

    Rows of A are then i.i.d. N(0, Sigma), and cov.whiten(A) is Z. The draw
    is colored in place by ``cov.color``, so A is the only m x n array; at
    nu = 0 L is I and A is the draw Z itself (bitwise what Z @ I gives).
    Deterministic in ``seed``; the matrix uses
    sub-stream 0 of the seed so observation noise (sub-stream 1) and flips
    (sub-stream 2) can be varied independently.
    """
    m = as_count(m, "m")
    rng = rng_for(seed, 0)
    A = rng.standard_normal((m, cov.n))
    if cov.nu != 0.0:
        A = cov.color(A)
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
    return math.sqrt(max(float(x @ (cov.dense() @ x)), 0.0))
