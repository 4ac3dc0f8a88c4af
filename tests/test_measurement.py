import math
import tracemalloc

import numpy as np
import pytest

from obgcs import (CovarianceSpec, GeneratorNetwork, NonFiniteError, load_ensemble,
                   load_observation, observe, sample_ensemble, save_ensemble,
                   save_observation, scaling_constant, sigma_norm, sign_pm1)
from obgcs.measurement import sample_truth


class TestCovarianceSpec:
    def test_toeplitz_entries(self):
        cov = CovarianceSpec.toeplitz(5, 0.3)
        sigma = cov.dense()
        assert sigma[0, 2] == pytest.approx(0.09)
        assert sigma[0, 0] == 1.0

    def test_nu_zero_is_identity(self, tmp_path):
        # identity(n) is toeplitz(n, 0.0) byte for byte: matrix, factor, draw and file
        ident, zero = CovarianceSpec.identity(7), CovarianceSpec.toeplitz(7, 0.0)
        assert ident == zero and ident.dense().tobytes() == np.eye(7).tobytes()
        assert ident.dense().tobytes() == zero.dense().tobytes()
        assert ident.cholesky().tobytes() == zero.cholesky().tobytes()
        ens = [sample_ensemble(9, cov, 0.1, 0.97, seed=4) for cov in (ident, zero)]
        assert ens[0].A.tobytes() == ens[1].A.tobytes()
        files = [tmp_path / "ident.ens.bin", tmp_path / "zero.ens.bin"]
        for e, path in zip(ens, files):
            save_ensemble(e, path)
        assert files[0].read_bytes() == files[1].read_bytes()
        assert b'"cov":{"kind":"identity","n":7}' in files[1].read_bytes()

    def test_nu_out_of_range(self):
        with pytest.raises(ValueError):
            CovarianceSpec.toeplitz(4, 1.0)

    @pytest.mark.parametrize("build", [CovarianceSpec.identity,
                                       lambda n: CovarianceSpec.toeplitz(n, 0.3)])
    @pytest.mark.parametrize("n,message", [(3.7, "n must be an integer, got 3.7"),
                                           (0, "n must be >= 1, got 0")])
    def test_non_count_size_rejected(self, build, n, message):
        # int(3.7) used to give a 3-dimensional covariance
        with pytest.raises(ValueError, match=message):
            build(n)

    def test_dense_and_factor_computed_once_and_read_only(self):
        cov = CovarianceSpec.toeplitz(6, 0.3)
        fresh = CovarianceSpec.toeplitz(6, 0.3)
        assert cov.dense() is cov.dense() and cov.cholesky() is cov.cholesky()
        for arr in (cov.dense(), cov.cholesky()):
            with pytest.raises(ValueError):
                arr[0, 0] = 2.0
        # the cache is not part of the spec: equality and repr are unchanged
        assert cov == fresh and repr(cov) == repr(fresh) == \
            "CovarianceSpec(n=6, nu=0.3)"
        np.testing.assert_array_equal(cov.cholesky(), np.linalg.cholesky(fresh.dense()))


class TestSampleEnsemble:
    def test_deterministic_in_seed(self):
        cov = CovarianceSpec.toeplitz(6, 0.3)
        a = sample_ensemble(20, cov, 0.1, 0.97, seed=5)
        b = sample_ensemble(20, cov, 0.1, 0.97, seed=5)
        np.testing.assert_array_equal(a.A, b.A)

    def test_seed_taken_whole(self):
        # seeds were masked to 32 bits: -1 drew seed 2**32 - 1's matrix and
        # 2**32 drew seed 0's
        cov = CovarianceSpec.identity(3)
        with pytest.raises(ValueError):
            sample_ensemble(4, cov, 0.1, 0.97, seed=-1)
        assert not np.array_equal(sample_ensemble(4, cov, 0.1, 0.97, seed=2 ** 32).A,
                                  sample_ensemble(4, cov, 0.1, 0.97, seed=0).A)

    def test_identity_cov_concentrates(self):
        # max-entry deviation of the empirical covariance under the
        # (desk-calibrated constant 4) sqrt(log n / m) envelope
        n, m = 10, 20_000
        bound = 4 * math.sqrt(math.log(n) / m)
        cov = CovarianceSpec.identity(n)
        hits = 0
        for seed in range(30):
            ens = sample_ensemble(m, cov, 0.0, 1.0, seed=seed)
            dev = np.abs(ens.A.T @ ens.A / m - np.eye(n)).max()
            hits += dev <= bound
        assert hits >= 29

    def test_row_norms_match_trace(self):
        for cov in (CovarianceSpec.identity(8), CovarianceSpec.toeplitz(8, 0.3)):
            ens = sample_ensemble(10_000, cov, 0.0, 1.0, seed=3)
            mean_sq = float(np.mean(np.sum(ens.A ** 2, axis=1)))
            assert abs(mean_sq - np.trace(cov.dense())) / np.trace(cov.dense()) < 0.05

    def test_m_at_least_one(self):
        with pytest.raises(ValueError):
            sample_ensemble(0, CovarianceSpec.identity(3), 0.0, 1.0, seed=0)

    def test_non_integer_m_rejected(self):
        # int(2.5) used to give a 2 x 3 ensemble
        with pytest.raises(ValueError, match="m must be an integer, got 2.5"):
            sample_ensemble(2.5, CovarianceSpec.identity(3), 0.1, 0.97, seed=0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -0.1])
    def test_noise_level_finite_and_nonnegative(self, sigma):
        # a NaN sigma used to give all -1 signs from observe
        with pytest.raises(ValueError, match="noise level must be finite and nonnegative"):
            sample_ensemble(10, CovarianceSpec.identity(5), sigma, 0.97, seed=1)

    @staticmethod
    def _draw(m, n, seed):
        rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, 0]))
        return rng.standard_normal((m, n))

    @pytest.mark.parametrize("m,n,seed", [(1, 1, 0), (7, 3, 1), (1000, 20, 2), (5, 257, 3)])
    def test_identity_matrix_is_the_draw_times_eye(self, m, n, seed):
        # the bytes of Z @ chol.T with chol = I, which nu = 0 grid CSVs depend on
        ens = sample_ensemble(m, CovarianceSpec.identity(n), 0.0, 1.0, seed=seed)
        assert ens.A.tobytes() == (self._draw(m, n, seed) @ np.eye(n)).tobytes()

    @pytest.mark.parametrize("cov", [CovarianceSpec.toeplitz(6, 0.3),
                                     CovarianceSpec.toeplitz(2, -0.5)])
    def test_correlated_matrix_is_the_draw_times_cholesky(self, cov):
        ens = sample_ensemble(40, cov, 0.0, 1.0, seed=9)
        want = self._draw(40, cov.n, 9) @ cov.cholesky().T
        assert ens.A.tobytes() == want.tobytes()

    def test_identity_ensemble_holds_one_matrix(self):
        m, n = 100_000, 20
        tracemalloc.start()
        try:
            ens = sample_ensemble(m, CovarianceSpec.identity(n), 0.1, 0.97, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ens.A.shape == (m, n)
        assert peak < 1.25 * m * n * 8  # one 16 MB matrix; a draw and its product are two


class TestObserve:
    def setup_method(self):
        self.cov = CovarianceSpec.identity(6)
        self.x = np.random.default_rng(0).standard_normal(6)
        self.x /= np.linalg.norm(self.x)

    def test_noiseless_flipless(self):
        ens = sample_ensemble(50, self.cov, 0.0, 1.0, seed=1)
        obs = observe(ens, self.x, seed=2)
        np.testing.assert_array_equal(obs.y, sign_pm1(ens.A @ self.x))
        assert np.all(obs.eta == 1.0)
        assert np.all(obs.eps == 0.0)

    def test_q_zero_flips_everything(self):
        ens = sample_ensemble(50, self.cov, 0.05, 0.0, seed=1)
        obs = observe(ens, self.x, seed=2)
        np.testing.assert_array_equal(obs.y, -sign_pm1(ens.A @ self.x + obs.eps))

    def test_signs_are_plus_minus_one(self):
        ens = sample_ensemble(200, self.cov, 0.1, 0.9, seed=4)
        obs = observe(ens, self.x, seed=5)
        assert np.all(np.abs(obs.y) == 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_truth_rejected(self, bad):
        # a NaN x_star used to give all -1 signs and no error
        ens = sample_ensemble(20, self.cov, 0.1, 0.9, seed=3)
        x = self.x.copy()
        x[2] = bad
        with pytest.raises(NonFiniteError, match="x_star"):
            observe(ens, x, seed=4)

    def test_scale_invariance_of_signs(self):
        ens = sample_ensemble(100, self.cov, 0.0, 1.0, seed=6)
        a = observe(ens, self.x, seed=7)
        b = observe(ens, 2.0 * self.x, seed=7)
        np.testing.assert_array_equal(a.y, b.y)

    def test_flip_rate_matches_q(self):
        ens = sample_ensemble(20_000, self.cov, 0.0, 0.9, seed=8)
        obs = observe(ens, self.x, seed=9)
        rate = float(np.mean(obs.eta == -1.0))
        sd = math.sqrt(0.9 * 0.1 / 20_000)
        assert abs(rate - 0.1) <= 3 * sd

    def test_flip_fraction_matches_scalar_oracle(self):
        # fraction of disagreements with the unflipped noiseless signs,
        # against a direct Monte-Carlo of eta*sign(g+eps) with g ~ N(0,1)
        n = 20
        cov = CovarianceSpec.toeplitz(n, 0.3)
        x = np.random.default_rng(1).standard_normal(n)
        x /= sigma_norm(cov, x)
        ens = sample_ensemble(100_000, cov, 0.1, 0.97, seed=10)
        obs = observe(ens, x, seed=11)
        emp = float(np.mean(obs.y != sign_pm1(ens.A @ x)))
        rng = np.random.default_rng(12)
        g = rng.standard_normal(1_000_000)
        eps = 0.1 * rng.standard_normal(1_000_000)
        eta = np.where(rng.random(1_000_000) < 0.97, 1.0, -1.0)
        oracle = float(np.mean(sign_pm1(eta * np.sign(g + eps) + 0.0)
                               != sign_pm1(g)))
        assert abs(emp - oracle) < 0.01

    def test_substreams_are_independent(self):
        # changing sigma rescales eps but keeps eta and A fixed
        ens_a = sample_ensemble(100, self.cov, 0.1, 0.9, seed=13)
        ens_b = sample_ensemble(100, self.cov, 0.2, 0.9, seed=13)
        np.testing.assert_array_equal(ens_a.A, ens_b.A)
        oa = observe(ens_a, self.x, seed=14)
        ob = observe(ens_b, self.x, seed=14)
        np.testing.assert_array_equal(oa.eta, ob.eta)
        np.testing.assert_allclose(2.0 * oa.eps, ob.eps, rtol=1e-12)


class TestSampleTruth:
    def test_overflowing_output_raises(self):
        # G(z) = (2e400, ...) overflows: the truth came out inf/inf = NaN; an
        # ArithmeticError, as a zero norm is, and no numpy warning on the way
        net = GeneratorNetwork([1, 2, 4], [np.zeros((2, 1)), np.full((4, 2), 1e200)],
                               [np.full(2, 1e200), np.zeros(4)])
        with pytest.raises(OverflowError, match="covariance norm inf"):
            sample_truth(net, CovarianceSpec.toeplitz(4, 0.3), np.random.default_rng(3))


class TestScalingConstant:
    def test_zero_at_half(self):
        assert scaling_constant(0.3, 0.5) == 0.0

    def test_noiseless_keep_all(self):
        assert scaling_constant(0.0, 1.0) == pytest.approx(math.sqrt(2 / math.pi),
                                                           rel=1e-12)
        assert scaling_constant(0.0, 1.0) == pytest.approx(0.79788, abs=1e-5)

    def test_reference_operating_point(self):
        want = 0.94 * math.sqrt(2.0 / (math.pi * 1.01))
        assert scaling_constant(0.1, 0.97) == pytest.approx(want, rel=1e-12)
        assert scaling_constant(0.1, 0.97) == pytest.approx(0.74629, abs=1e-5)

    def test_sign_follows_q_side(self):
        assert scaling_constant(0.0, 0.2) < 0

    @pytest.mark.parametrize("sigma, q", [(-0.1, 0.9), (math.nan, 0.9), (math.inf, 0.9),
                                          (0.1, math.nan)])
    def test_domain(self, sigma, q):
        with pytest.raises(ValueError):
            scaling_constant(sigma, q)


class TestSigmaNorm:
    def test_identity_is_l2(self):
        cov = CovarianceSpec.identity(4)
        x = np.array([3.0, 4.0, 0.0, 0.0])
        assert sigma_norm(cov, x) == pytest.approx(5.0)

    def test_toeplitz_hand_expansion(self):
        cov = CovarianceSpec.toeplitz(5, 0.3)
        x = np.zeros(5)
        x[0] = x[1] = 1.0
        assert sigma_norm(cov, x) == pytest.approx(math.sqrt(2.6), rel=1e-12)
        assert sigma_norm(cov, x) == pytest.approx(1.61245, abs=1e-5)


class TestSerialization:
    def test_ensemble_round_trip(self, tmp_path):
        cov = CovarianceSpec.toeplitz(5, 0.3)
        ens = sample_ensemble(12, cov, 0.1, 0.97, seed=3)
        path = tmp_path / "e.bin"
        save_ensemble(ens, path)
        back = load_ensemble(path)
        np.testing.assert_array_equal(back.A, ens.A)
        assert back.cov.n == 5 and back.cov.nu == 0.3
        assert back.sigma == 0.1 and back.q == 0.97 and back.seed == 3

    def test_observation_round_trip(self, tmp_path):
        cov = CovarianceSpec.identity(4)
        ens = sample_ensemble(9, cov, 0.1, 0.9, seed=2)
        x = np.random.default_rng(3).standard_normal(4)
        obs = observe(ens, x, seed=4)
        path = tmp_path / "o.bin"
        save_observation(obs, path)
        back = load_observation(path)
        np.testing.assert_array_equal(back.y, obs.y)
        np.testing.assert_array_equal(back.x_star, obs.x_star)
        np.testing.assert_array_equal(back.eta, obs.eta)
        np.testing.assert_array_equal(back.eps, obs.eps)
