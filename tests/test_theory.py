import math
import tracemalloc

import numpy as np
import pytest

from obgcs import theory

from obgcs import (CapacityError, CovarianceSpec, DegenerateConeError, GeneratorNetwork,
                   build_eps_net, check_jl, check_srec, concentration_diagnostics,
                   estimate_local_mean_width, forward_batch, lipschitz_upper_bound,
                   mean_width_of_directions, observe, sample_ensemble, synth_generator)
from obgcs.generator import split_output_layer


class TestEpsNet:
    def test_one_dimensional_interval(self):
        net = build_eps_net(1, 1.0, 0.5)
        assert len(net) <= 9
        # brute-force 1-D coverage of [-1, 1]
        xs = np.linspace(-1.0, 1.0, 5001)
        d = np.min(np.abs(xs[:, None] - net.points[:, 0][None, :]), axis=1)
        assert d.max() <= 0.5

    @pytest.mark.parametrize("k,eps", [(2, 0.5), (3, 0.6), (4, 0.8)])
    def test_sampled_coverage(self, k, eps):
        net = build_eps_net(k, 1.0, eps)
        assert net.covering_radius_sampled(seed=0) <= eps

    @pytest.mark.parametrize("k,eps", [(1, 0.5), (2, 0.5), (3, 0.6), (4, 0.8)])
    def test_cardinality_bound(self, k, eps):
        net = build_eps_net(k, 1.0, eps)
        assert math.log(len(net)) <= k * math.log(4.0 / eps)

    def test_cardinality_within_slack_factor(self):
        # count also stays within the 4^k slack of the (4r/eps)^k envelope
        for k in (2, 3):
            net = build_eps_net(k, 1.0, 0.7)
            assert len(net) <= (4.0 ** k) * (4.0 / 0.7) ** k

    def test_points_stay_in_ball(self):
        net = build_eps_net(3, 0.8, 0.4)
        assert np.all(np.linalg.norm(net.points, axis=1) <= 0.8 + 1e-9)

    def test_no_net_above_k8(self):
        # no unproven net stands in for the lattice above k = 8
        with pytest.raises(CapacityError, match="no proven epsilon-net for k=9"):
            build_eps_net(9, 1.0, 1.5)

    def test_covering_radius_peak_memory(self):
        # 2048-row distance chunks took about 180 MB here
        net = build_eps_net(5, 1.0, 0.6)
        tracemalloc.start()
        try:
            radius = net.covering_radius_sampled(seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert radius <= 0.6
        assert peak < 32 * 2 ** 20

    def test_empty_net_has_infinite_covering_radius(self):
        net = theory.EpsNet(points=np.zeros((0, 3)), epsilon=0.5, r=1.0)
        assert net.covering_radius_sampled() == math.inf
        assert np.all(theory._min_dists(np.ones((4, 3)), net.points) == math.inf)

    # at shift 3, |x|^2 near 45 cancels against 2 x.p: errors reached
    # 3.5e-13 over four seeds, the same as the broadcast-add form gave
    @pytest.mark.parametrize("shift", [0.0, 3.0])
    def test_min_dists_match_brute_force(self, shift):
        net = build_eps_net(5, 1.0, 0.6).points + shift
        points = theory._uniform_ball(np.random.default_rng(6), 10_000, 5, 1.0) + shift
        want = np.empty(points.shape[0])
        for start in range(0, points.shape[0], 500):
            x = points[start:start + 500]
            d2 = np.zeros((x.shape[0], net.shape[0]))
            for c in range(net.shape[1]):
                d2 += (x[:, c, None] - net[None, :, c]) ** 2
            want[start:start + 500] = np.sqrt(d2.min(axis=1))
        np.testing.assert_allclose(theory._min_dists(points, net), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("entries", [1, 50, 1 << 30])
    def test_min_dists_do_not_depend_on_chunking(self, monkeypatch, entries):
        rng = np.random.default_rng(4)
        points, net = rng.standard_normal((300, 3)), rng.standard_normal((40, 3))
        direct = np.sqrt(np.min(np.sum((points[:, None, :] - net[None]) ** 2, axis=2), axis=1))
        monkeypatch.setattr(theory, "_CHUNK_ENTRIES", entries)
        np.testing.assert_allclose(theory._min_dists(points, net), direct, rtol=0, atol=1e-12)


def _recursive_lattice(k, pitch, radius):
    """The lattice enumeration as a recursion over coordinates (the reference)."""
    out = []
    coord = np.zeros(k)

    def recurse(dim, norm2):
        if dim == k:
            out.append(coord.copy())
            return
        budget = radius * radius - norm2
        if budget < 0:
            return
        top = int(math.floor(math.sqrt(budget) / pitch))
        for i in range(-top, top + 1):
            coord[dim] = i * pitch
            recurse(dim + 1, norm2 + coord[dim] ** 2)
        coord[dim] = 0.0

    recurse(0, 0.0)
    return np.array(out) if out else np.zeros((0, k))


def _reference_net(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(theory, "_lattice_points", _recursive_lattice)
        return build_eps_net(*args, **kwargs).points


class TestCountArguments:
    # each was truncated by int(): a 2-D net, 2 pairs, 2 gaussians
    def test_eps_net_dimension(self):
        with pytest.raises(ValueError, match="k must be an integer, got 2.5"):
            build_eps_net(2.5, 1.0, 0.5)

    def test_srec_pairs(self):
        net = synth_generator(k=2, n=6, hidden_dims=[4], seed=0)
        ens = sample_ensemble(10, CovarianceSpec.identity(6), 0.0, 1.0, seed=1)
        with pytest.raises(ValueError, match="num_pairs must be an integer, got 2.7"):
            check_srec(ens, net, 0.1, 0.0, 2.7, seed=2)

    def test_mean_width_gaussians(self):
        with pytest.raises(ValueError, match="num_gaussians must be an integer, got 2.5"):
            mean_width_of_directions(np.eye(2), 2.5, seed=0)


class TestEpsNetParity:
    @pytest.mark.parametrize("k,eps", [(1, 0.5), (2, 0.5), (3, 0.6), (4, 0.5),
                                       (4, 0.8), (5, 0.6), (5, 0.9)])
    def test_lattice_net_bytes(self, monkeypatch, k, eps):
        want = _reference_net(monkeypatch, k, 1.0, eps)
        got = build_eps_net(k, 1.0, eps).points
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    # (8, 0.1) would hold billions of points; (8, 0.2) built its last-but-one
    # pass first and peaked at 213 MB, (8, 0.3) at 194 MB. The volume bound
    # refuses (8, 0.2) outright; (8, 0.3) needs the counting sweep (85 MB)
    @pytest.mark.parametrize("eps,mb", [(0.1, 64), (0.2, 100), (0.3, 100)])
    def test_lattice_budget_raises_before_allocating(self, eps, mb):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="use a larger epsilon"):
                build_eps_net(8, 1.0, eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mb * 2 ** 20

    def test_lattice_budget_counts_the_points(self, monkeypatch):
        monkeypatch.setattr(theory, "_LATTICE_BUDGET", 100)  # (4, 0.5) has 425 candidates
        with pytest.raises(CapacityError, match="use a larger epsilon"):
            build_eps_net(4, 1.0, 0.5)

    def test_build_peak_memory(self):
        tracemalloc.start()
        try:
            net = build_eps_net(5, 1.0, 0.6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(net) == 1093
        assert peak < 8 * 2 ** 20


class TestEpsNetCoverage:
    # the ticks are multiples of epsilon/sqrt(k), half the unshrunk pitch, so
    # they hold the cell corners: without the pitch's 1e-9 shrink these read
    # epsilon (1 + 1.7e-13) through _min_dists and epsilon (1 + 1.1e-15) directly
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("r", [0.5, 1.0, 1.7])
    def test_aligned_grid_within_epsilon(self, k, r):
        for eps in np.linspace(0.05, 2 * r, 40):
            net = build_eps_net(k, r, eps).points
            half = eps / math.sqrt(k)
            ticks = np.arange(-math.floor(r / half), math.floor(r / half) + 1) * half
            grid = np.stack(np.meshgrid(*[ticks] * k, indexing="ij"), -1).reshape(-1, k)
            grid = grid[np.linalg.norm(grid, axis=1) <= r]
            direct = np.sqrt(np.sum((grid[:, None] - net[None]) ** 2, axis=2)).min(axis=1)
            assert theory._min_dists(grid, net).max() <= eps
            assert direct.max() <= eps

    def test_k7_builds_and_covers(self):
        # its pitch-epsilon/sqrt(7) lattice used to exceed _LATTICE_BUDGET
        net = build_eps_net(7, 1.0, 0.5)
        assert len(net) == 69779
        assert net.covering_radius_sampled(seed=0) <= 0.5


class TestSrec:
    def setup_method(self):
        self.k, self.n = 4, 50
        self.net = synth_generator(k=self.k, n=self.n, hidden_dims=[16], seed=0)
        self.lip = lipschitz_upper_bound(self.net)
        self.cov = CovarianceSpec.identity(self.n)

    def test_no_violations_at_scaled_m(self):
        delta = 1e-3
        m = round(5 * self.k * math.log(self.lip / delta))
        gamma = 0.5  # sqrt(lambda_min(I)) / 2
        clean = 0
        for run in range(25):
            ens = sample_ensemble(m, self.cov, 0.0, 1.0, seed=run)
            rep = check_srec(ens, self.net, gamma, delta, 10_000, seed=1000 + run)
            clean += rep.violations == 0
        assert clean >= 24

    def test_absurd_gamma_is_falsified(self):
        ens = sample_ensemble(100, self.cov, 0.0, 1.0, seed=3)
        rep = check_srec(ens, self.net, 10.0, 0.0, 1000, seed=4)
        assert rep.violations > 0

    def test_min_ratio_near_sigma_min_with_many_rows(self):
        ens = sample_ensemble(20 * self.n, self.cov, 0.0, 1.0, seed=5)
        rep = check_srec(ens, self.net, 0.5, 0.0, 10_000, seed=6)
        assert abs(rep.min_ratio - 1.0) <= 0.2

    def test_violations_monotone_in_gamma(self):
        ens = sample_ensemble(60, self.cov, 0.0, 1.0, seed=7)
        counts = [check_srec(ens, self.net, g, 0.01, 2000, seed=8).violations
                  for g in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_report_fields(self):
        ens = sample_ensemble(50, self.cov, 0.0, 1.0, seed=9)
        rep = check_srec(ens, self.net, 0.5, 0.1, 500, seed=10)
        assert rep.violations == 0 and rep.min_ratio > 0

    @pytest.mark.parametrize("gamma, delta", [(math.nan, 0.1), (0.5, math.nan),
                                              (math.inf, 0.1), (0.5, -math.inf)])
    def test_non_finite_setting_rejected_before_sampling(self, monkeypatch, gamma, delta):
        # a NaN gamma or delta used to report violations=0, a pass
        calls = []
        monkeypatch.setattr(theory, "forward_batch", lambda *args: calls.append(args))
        ens = sample_ensemble(50, self.cov, 0.0, 1.0, seed=9)
        with pytest.raises(ValueError, match="gamma and delta must be finite"):
            check_srec(ens, self.net, gamma, delta, 200, seed=2)
        assert calls == []


def direct_srec_terms(ens, net, num_pairs, seed):
    """check_srec's (1/m)|A (x1 - x2)|^2 and |x1 - x2|^2 per pair, from the
    net's outputs and the product A @ (x1 - x2), as before the fold."""
    rng = np.random.default_rng(seed)
    z1 = theory._uniform_ball(rng, num_pairs, net.latent_dim, 1.0).T
    z2 = theory._uniform_ball(rng, num_pairs, net.latent_dim, 1.0).T
    diff = forward_batch(net, z1) - forward_batch(net, z2)
    return np.sum((ens.A @ diff) ** 2, axis=0) / ens.m, np.sum(diff * diff, axis=0)


def biased_net():
    rng = np.random.default_rng(12)
    return GeneratorNetwork([4, 16, 50], [rng.standard_normal((16, 4)) / 2.0,
                                          rng.standard_normal((50, 16)) / 4.0],
                            [0.3 * rng.standard_normal(16), 0.3 * rng.standard_normal(50)])


def block_output_net():
    """4 -> 16 -> 50 whose output weight is two 25x8 diagonal blocks."""
    rng = np.random.default_rng(13)
    return GeneratorNetwork([4, 16, 50], [rng.standard_normal((16, 4)) / 2.0,
                                          rng.standard_normal((2, 25, 8)) / np.sqrt(8)],
                            [0.1 * rng.standard_normal(16), 0.1 * rng.standard_normal(50)])


class TestSrecFold:
    @pytest.mark.parametrize("make_net,folds", [
        (lambda: synth_generator(k=4, n=50, hidden_dims=[16], seed=0), True),
        (biased_net, True),
        (lambda: synth_generator(k=4, n=50, hidden_dims=[16], seed=0,
                                 final_activation="relu"), False),
        (block_output_net, True)])
    def test_matches_the_direct_form(self, make_net, folds):
        net = make_net()
        assert (split_output_layer(net) is not None) == folds
        ens = sample_ensemble(30, CovarianceSpec.identity(50), 0.0, 1.0, seed=3)
        delta = 1e-3
        lhs, d2 = direct_srec_terms(ens, net, 2000, seed=4)
        ratios = (lhs + delta) / d2
        # halfway between the smallest and the median ratio: a real share violates
        gamma = 0.5 * (ratios.min() + np.median(ratios))
        want = int(np.sum(lhs < gamma * d2 - delta))
        assert want >= 20
        rep = check_srec(ens, net, gamma, delta, 2000, seed=4)
        assert rep.violations == want
        assert rep.min_ratio == pytest.approx(float(ratios.min()), rel=1e-12, abs=0)


class TestJl:
    def test_passes_at_scaled_m(self):
        n, size, eps = 50, 40, 0.5
        m = math.ceil(8 * math.log(size) / eps ** 2)
        cov = CovarianceSpec.toeplitz(n, 0.3)
        passes = 0
        for run in range(25):
            rng = np.random.default_rng(run)
            T = rng.standard_normal((size, n))
            ens = sample_ensemble(m, cov, 0.0, 1.0, seed=500 + run)
            passes += check_jl(ens, T, eps)["pass"]
        assert passes >= 24

    def test_repeated_points_skipped(self):
        n = 20
        ens = sample_ensemble(200, CovarianceSpec.identity(n), 0.0, 1.0, seed=1)
        T = np.zeros((3, n))
        T[0, 0] = 1.0
        T[1] = T[0]  # duplicate: the zero-distance pair must be ignored
        T[2, 1] = 1.0
        out = check_jl(ens, T, 0.5)
        assert math.isfinite(out["max_distortion"])

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_epsilon_rejected_before_projecting(self, monkeypatch, eps):
        # NaN used to read pass: False and inf pass: True
        calls = []
        monkeypatch.setattr(CovarianceSpec, "whiten", lambda *args: calls.append(args))
        ens = sample_ensemble(50, CovarianceSpec.identity(20), 0.0, 1.0, seed=1)
        T = np.random.default_rng(2).standard_normal((4, 20))
        with pytest.raises(ValueError, match=f"epsilon must be finite, got {eps}"):
            check_jl(ens, T, eps)
        assert calls == []

    def test_single_row_collapses(self):
        n = 20
        cov = CovarianceSpec.identity(n)
        passes = 0
        for run in range(20):
            rng = np.random.default_rng(run)
            T = rng.standard_normal((8, n))
            ens = sample_ensemble(1, cov, 0.0, 1.0, seed=run)
            passes += check_jl(ens, T, 0.5)["pass"]
        assert passes <= 2


class TestMeanWidth:
    def test_single_direction_is_zero(self):
        est = mean_width_of_directions(np.array([[1.0, 0.0, 0.0]]), 4000, seed=0)
        assert abs(est.omega_hat) <= 3 * est.std_err

    def test_plus_minus_e1_is_half_normal_mean(self):
        D = np.zeros((2, 6))
        D[0, 0] = 1.0
        D[1, 0] = -1.0
        est = mean_width_of_directions(D, 4000, seed=1)
        assert abs(est.omega_hat - math.sqrt(2 / math.pi)) <= 3 * est.std_err

    def test_interior_points_do_not_change_estimate(self):
        D = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        with_interior = np.vstack([D, [0.2, 0.3]])
        a = mean_width_of_directions(D, 3000, seed=9)
        b = mean_width_of_directions(with_interior, 3000, seed=9)
        assert a.omega_hat == b.omega_hat

    def test_generator_estimate_below_bound(self):
        net = synth_generator(k=5, n=40, hidden_dims=[16], seed=2)
        est = estimate_local_mean_width(net, np.zeros(5), gamma_scale=0.05,
                                        num_gaussians=2000, net_epsilon=0.5, seed=3)
        assert 0 < est.omega_hat <= est.theoretical_bound
        assert est.net_size > 0

    def test_degenerate_cone(self):
        net = synth_generator(k=2, n=10, hidden_dims=[4], seed=4)
        with pytest.raises(DegenerateConeError):
            estimate_local_mean_width(net, np.zeros(2), gamma_scale=1e9,
                                      num_gaussians=100, net_epsilon=0.5, seed=5)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_non_finite_gamma_rejected_before_the_net(self, monkeypatch, gamma):
        # both used to raise DegenerateConeError, naming an empty cone
        calls = []
        monkeypatch.setattr(theory, "build_eps_net", lambda *args: calls.append(args))
        net = synth_generator(k=2, n=10, hidden_dims=[4], seed=4)
        with pytest.raises(ValueError, match="gamma_scale must be finite and > 0"):
            estimate_local_mean_width(net, np.zeros(2), gamma_scale=gamma,
                                      num_gaussians=100, net_epsilon=0.5, seed=5)
        assert calls == []

    @pytest.mark.parametrize("setting,message", [
        ({"net_epsilon": 0.0}, "net_epsilon must be > 0, got 0.0"),
        ({"net_epsilon": math.nan}, "net_epsilon must be > 0, got nan"),
        ({"num_gaussians": 1}, "num_gaussians must be >= 2, got 1")])
    def test_each_bad_setting_named_alone(self, setting, message):
        net = synth_generator(k=2, n=10, hidden_dims=[4], seed=4)
        kwargs = {"gamma_scale": 0.05, "num_gaussians": 100, "net_epsilon": 0.5, **setting}
        with pytest.raises(ValueError, match=f"^{message}$"):
            estimate_local_mean_width(net, np.zeros(2), seed=5, **kwargs)

    @pytest.mark.parametrize("num", [0, -3])
    def test_needs_one_gaussian(self, num):
        with pytest.raises(ValueError, match=f"num_gaussians must be >= 1, got {num}"):
            mean_width_of_directions(np.eye(2), num, seed=0)


class TestConcentration:
    def test_bounds_hold_at_scale(self):
        n, m = 20, 20_000
        cov = CovarianceSpec.identity(n)
        bound_inf = 4 * math.sqrt(math.log(n) / m)
        bound_spec = 4 * (math.sqrt(n / m) + n / m)
        x = np.zeros(n)
        x[0] = 1.0
        ok_inf = ok_spec = 0
        for run in range(20):
            ens = sample_ensemble(m, cov, 0.1, 0.97, seed=run)
            obs = observe(ens, x, seed=run)
            d = concentration_diagnostics(ens, obs)
            ok_inf += d["linf_cov"] <= bound_inf
            ok_spec += d["spec_cov"] <= bound_spec
        assert ok_inf >= 19 and ok_spec >= 19

    def test_single_measurement_is_finite_and_large(self):
        n = 10
        cov = CovarianceSpec.identity(n)
        ens = sample_ensemble(1, cov, 0.0, 1.0, seed=0)
        x = np.zeros(n)
        x[0] = 1.0
        obs = observe(ens, x, seed=1)
        d = concentration_diagnostics(ens, obs)
        assert all(math.isfinite(v) for v in d.values())
        assert d["linf_cov"] > 0.3

    def test_deviation_decays_with_m(self):
        # doubling m should shrink the median max-entry deviation by ~sqrt(2)
        n = 20
        cov = CovarianceSpec.identity(n)
        meds = {}
        for m in (2000, 4000):
            vals = []
            for run in range(20):
                ens = sample_ensemble(m, cov, 0.0, 1.0, seed=run)
                vals.append(np.abs(ens.A.T @ ens.A / m - np.eye(n)).max())
            meds[m] = float(np.median(vals))
        assert 1.2 <= meds[2000] / meds[4000] <= 1.7

    def test_gradient_term_tracks_truth(self):
        # A^T y / m concentrates on its population value computed from the
        # truth record, at the usual sqrt(log n / m) scale
        n, m = 15, 50_000
        cov = CovarianceSpec.toeplitz(n, 0.3)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(n)
        from obgcs import sigma_norm
        x /= sigma_norm(cov, x)
        ens = sample_ensemble(m, cov, 0.1, 0.97, seed=6)
        obs = observe(ens, x, seed=7)
        d = concentration_diagnostics(ens, obs)
        assert d["linf_grad"] <= 4 * math.sqrt(math.log(n) / m)
