import math

import numpy as np
import pytest

from obgcs import (CovarianceSpec, DivergenceError,
                   LsDecoderConfig, biht_decode, estimation_error,
                   hard_threshold, ls_decode, observe, project_l1_ball,
                   pv_convex_decode, sample_ensemble, scaling_constant,
                   synth_generator)
from obgcs import decoders
from obgcs.measurement import BinaryObservation, MeasurementEnsemble, sample_truth
from obgcs.generator import (GeneratorNetwork, forward, forward_batch,
                             latent_vjp_batch, lipschitz_upper_bound)
from obgcs.util import derive_seed, rng_for
from conftest import identity_generator


def reference_ls(obs, ens, net, cfg):
    """The LS step rule in residual form, two generator passes per step.

    Returns (x_hat, restart_index, loss_trace, searches, backtracks, trials)
    for comparison with ls_decode: a search is one batched line search, a
    backtrack one extra batch of trial points in it, and ``trials`` holds
    each restart's own count of trial points.
    """
    A, y = ens.A, obs.y
    m = A.shape[0]
    c1 = decoders._ARMIJO_C1
    lam = cfg.lam if cfg.mode == "lagrangian" else 0.0

    def project(Z):
        if cfg.mode == "constrained":
            return decoders._project_ball_cols(Z, cfg.radius)
        return Z

    def loss(Z):
        resid = A @ forward_batch(net, Z) - y[:, None]
        return 0.5 * np.sum(resid * resid, axis=0) / m + lam * np.sum(Z * Z, axis=0)

    def grad(Z):
        resid = A @ forward_batch(net, Z) - y[:, None]
        return latent_vjp_batch(net, Z, (A.T @ resid) / m) + 2.0 * lam * Z

    Z = project(np.random.default_rng(cfg.seed).standard_normal(
        (net.latent_dim, cfg.restarts)))
    f, G = loss(Z), grad(Z)
    trial = np.full(cfg.restarts, decoders._FIRST_STEP)
    running = np.ones(cfg.restarts, dtype=bool)
    traces = [[v] for v in f]
    searches = backtracks = 0
    trials = np.zeros(cfg.restarts, dtype=int)
    while running.any() and searches < cfg.steps_per_restart:
        searches += 1
        a, pending = trial.copy(), running.copy()
        Z_new, f_new = Z.copy(), f.copy()
        for i in range(decoders._MAX_BACKTRACKS + 1):
            backtracks += i > 0
            trials += pending
            Zt = project(Z - a * G)
            ft = loss(Zt)
            ok = pending & np.isfinite(ft)
            ok &= ft <= f + c1 * np.minimum(np.sum(G * (Zt - Z), axis=0), 0.0)
            Z_new[:, ok], f_new[ok] = Zt[:, ok], ft[ok]
            pending &= ~ok
            if not pending.any():
                break
            a = np.where(pending, 0.5 * a, a)
        accepted = running & ~pending
        G_new = grad(Z_new)
        for j in np.flatnonzero(accepted):
            s, g = Z_new[:, j] - Z[:, j], G_new[:, j] - G[:, j]
            sy = np.sum(s * g)
            bb = np.sum(s * s) / sy if sy > 0 else np.inf
            trial[j] = min(bb, decoders._MAX_GROWTH * a[j])
            if f[j] - f_new[j] <= decoders._STOP_RTOL * (1.0 + abs(f[j])):
                running[j] = False
            traces[j].append(f_new[j])
        running &= accepted
        Z[:, accepted], G[:, accepted], f[accepted] = (
            Z_new[:, accepted], G_new[:, accepted], f_new[accepted])
    best = int(np.argmin(f))
    return (forward(net, Z[:, best]), best, np.array(traces[best]), searches, backtracks,
            trials)


def parity_problem(m, seed, net=None, **cfg):
    if net is None:
        net = synth_generator(k=4, n=40, hidden_dims=[24], seed=seed)
    ens = sample_ensemble(m, CovarianceSpec.toeplitz(40, 0.3), 0.1, 0.97, seed=seed + 1)
    x_star = forward(net, np.random.default_rng(seed + 2).standard_normal(4))
    obs = observe(ens, x_star, seed=seed + 3)
    cfg = LsDecoderConfig(restarts=5, steps_per_restart=150, seed=seed + 4, **cfg)
    return obs, ens, net, cfg


def relu_net(seed):
    """4 -> 16 -> 24 -> 40 with a final ReLU."""
    return synth_generator(k=4, n=40, hidden_dims=[16, 24], seed=seed, final_activation="relu")


def block_hidden_net(seed):
    """4 -> 24 -> 24 -> 40 whose middle weight is three 8x8 diagonal blocks."""
    rng = np.random.default_rng(seed)
    weights = [rng.standard_normal((24, 4)) / 2.0,
               rng.standard_normal((3, 8, 8)) / np.sqrt(8),
               rng.standard_normal((40, 24)) / np.sqrt(24)]
    biases = [0.1 * rng.standard_normal(d) for d in (24, 24, 40)]
    return GeneratorNetwork([4, 24, 24, 40], weights, biases)


def grid_cell(k, m, trial=0, base_seed=123):
    """One cell of run_grid at n=100, hidden [64], with its LS config."""
    net = synth_generator(k=k, n=100, hidden_dims=[64], seed=0)
    cov = CovarianceSpec.from_nu(100, 0.3)
    cell_seed = derive_seed(base_seed, m, trial)
    ens = sample_ensemble(m, cov, 0.1, 0.97, cell_seed)
    x_star = sample_truth(net, cov, rng_for(base_seed, m, trial, 1))
    cfg = LsDecoderConfig(seed=derive_seed(base_seed, m, trial, 2))
    return observe(ens, x_star, cell_seed), ens, net, cfg


class TestLsDecode:
    def test_default_config_matches_protocol(self):
        cfg = LsDecoderConfig()
        assert cfg.mode == "lagrangian"
        assert cfg.lam == pytest.approx(1e-3)
        assert cfg.restarts == 10
        assert cfg.steps_per_restart == 1000

    @pytest.mark.parametrize("kwargs, fault", [
        ({"mode": "lagrangian", "lam": math.nan}, "penalty weight"),
        ({"mode": "constrained", "radius": math.nan}, "constraint radius"),
    ])
    def test_nan_setting_rejected(self, kwargs, fault):
        # a NaN radius used to fail every norms > radius test and decode unconstrained
        with pytest.raises(ValueError, match=f"{fault} must be .*, got nan"):
            LsDecoderConfig(**kwargs)

    @pytest.mark.parametrize("field", ["restarts", "steps_per_restart"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True])
    def test_non_integer_count_rejected(self, field, value):
        # steps_per_restart=2.5 used to drop the cap (iterations == 2.5 never
        # holds) and restarts=2.5 to fail inside numpy
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            LsDecoderConfig(**{field: value})

    def test_numpy_integer_count_taken(self):
        cfg = LsDecoderConfig(restarts=np.int64(3), steps_per_restart=np.int32(7))
        assert (cfg.restarts, cfg.steps_per_restart) == (3, 7)
        assert type(cfg.restarts) is int and type(cfg.steps_per_restart) is int

    def test_recovers_direction_with_identity_prior(self):
        # no-prior sanity: k = n, huge m, noiseless and flipless
        n = 10
        net = identity_generator(n)
        ens = sample_ensemble(50_000, CovarianceSpec.identity(n), 0.0, 1.0, seed=1)
        x_star = np.random.default_rng(2).standard_normal(n)
        x_star /= np.linalg.norm(x_star)
        obs = observe(ens, x_star, seed=3)
        res = ls_decode(obs, ens, net, LsDecoderConfig(seed=4))
        cosine = float(res.x_hat @ x_star
                       / (np.linalg.norm(res.x_hat) * np.linalg.norm(x_star)))
        assert cosine >= 0.99

    def test_fits_its_own_forward_model(self):
        # y replaced by unquantized A G(z0); the decoder must drive the
        # objective to (numerical) zero and recover the signal
        net = synth_generator(k=3, n=30, hidden_dims=[16], seed=5)
        ens = sample_ensemble(200, CovarianceSpec.identity(30), 0.0, 1.0, seed=6)
        z0 = np.random.default_rng(7).standard_normal(3)

        class _Linear:
            y = ens.A @ forward(net, z0)

        cfg = LsDecoderConfig(lam=0.0, restarts=10, steps_per_restart=2000, seed=8)
        res = ls_decode(_Linear(), ens, net, cfg)
        assert res.objective <= 1e-6
        assert np.linalg.norm(res.x_hat - forward(net, z0)) < 1e-3

    def test_result_invariants(self):
        net = synth_generator(k=4, n=25, hidden_dims=[12], seed=9)
        ens = sample_ensemble(150, CovarianceSpec.toeplitz(25, 0.3), 0.1, 0.97, seed=10)
        x_star = forward(net, np.random.default_rng(11).standard_normal(4))
        obs = observe(ens, x_star, seed=12)
        cfg = LsDecoderConfig(restarts=4, steps_per_restart=200, seed=13)
        res = ls_decode(obs, ens, net, cfg)
        np.testing.assert_array_equal(res.x_hat, forward(net, res.z_hat))
        recomputed = 0.5 * np.sum((ens.A @ res.x_hat - obs.y) ** 2) / ens.m \
            + cfg.lam * float(res.z_hat @ res.z_hat)
        assert abs(res.objective - recomputed) < 1e-10
        assert 0 <= res.restart_index < cfg.restarts
        assert 1 <= res.iterations <= cfg.steps_per_restart
        assert len(res.loss_trace) == res.iterations + 1
        assert np.all(np.diff(res.loss_trace) <= 0)
        assert len(res.restart_losses) == cfg.restarts
        assert res.restart_losses[res.restart_index] == res.loss_trace[-1] \
            == min(res.restart_losses)
        assert abs(res.loss_trace[-1] - res.objective) < 1e-10
        assert res.step > 0
        z = res.z_hat
        grad = latent_vjp_batch(net, z[:, None], (ens.A.T @ (ens.A @ res.x_hat - obs.y))[:, None]
                                / ens.m)[:, 0] + 2.0 * cfg.lam * z
        assert res.grad_norm == pytest.approx(np.linalg.norm(grad), rel=1e-8, abs=1e-14)

    def test_constrained_mode_stays_in_ball(self):
        net = synth_generator(k=4, n=20, hidden_dims=[10], seed=14)
        ens = sample_ensemble(80, CovarianceSpec.identity(20), 0.0, 1.0, seed=15)
        obs = observe(ens, forward(net, np.ones(4)), seed=16)
        cfg = LsDecoderConfig(mode="constrained", radius=0.5, restarts=3,
                              steps_per_restart=150, seed=17)
        res = ls_decode(obs, ens, net, cfg)
        assert np.linalg.norm(res.z_hat) <= 0.5 + 1e-12

    def test_deterministic_in_seed(self):
        net = synth_generator(k=3, n=15, hidden_dims=[8], seed=18)
        ens = sample_ensemble(60, CovarianceSpec.identity(15), 0.1, 0.97, seed=19)
        obs = observe(ens, forward(net, np.ones(3)), seed=20)
        cfg = LsDecoderConfig(restarts=3, steps_per_restart=100, seed=21)
        a = ls_decode(obs, ens, net, cfg)
        b = ls_decode(obs, ens, net, cfg)
        np.testing.assert_array_equal(a.z_hat, b.z_hat)
        assert a.restart_index == b.restart_index

    def test_scale_invariant_in_ground_truth(self):
        # with sigma=0, q=1 the signs of x* and 2x* coincide, so the decoder
        # output is bitwise identical
        net = synth_generator(k=3, n=15, hidden_dims=[8], seed=22)
        ens = sample_ensemble(60, CovarianceSpec.identity(15), 0.0, 1.0, seed=23)
        x_star = forward(net, np.random.default_rng(24).standard_normal(3))
        cfg = LsDecoderConfig(restarts=2, steps_per_restart=100, seed=25)
        a = ls_decode(observe(ens, x_star, seed=26), ens, net, cfg)
        b = ls_decode(observe(ens, 2.0 * x_star, seed=26), ens, net, cfg)
        np.testing.assert_array_equal(a.x_hat, b.x_hat)

    def test_divergence_names_restart_and_step(self, monkeypatch):
        ens = sample_ensemble(60, CovarianceSpec.identity(15), 0.0, 1.0, seed=28)
        obs = observe(ens, np.ones(15), seed=29)
        # weights of scale 1e100 over two layers: |A G(z)|^2 overflows at any start
        huge = synth_generator(k=3, n=15, hidden_dims=[8], seed=27, scale=1e100)
        with pytest.raises(DivergenceError) as err:
            ls_decode(obs, ens, huge, LsDecoderConfig(restarts=2, seed=30))
        assert (err.value.restart, err.value.step) == (0, 0)
        # a finite start whose every trial point of the first search overflows
        net = synth_generator(k=3, n=15, hidden_dims=[8], seed=27)
        monkeypatch.setattr(decoders, "_FIRST_STEP", 1e300)
        with pytest.raises(DivergenceError) as err:
            ls_decode(obs, ens, net, LsDecoderConfig(restarts=2, seed=30))
        assert (err.value.restart, err.value.step) == (0, 1)
        # a first step of 1e9 is only a first trial: the search shrinks it
        monkeypatch.setattr(decoders, "_FIRST_STEP", 1e9)
        res = ls_decode(obs, ens, net, LsDecoderConfig(restarts=2, seed=30))
        assert np.isfinite(res.objective) and res.iterations >= 1

    def test_divergence_in_a_later_search_names_its_step(self, monkeypatch):
        # tiny first steps are accepted; from the third pass every output is
        # infinite, so each restart's second search meets no finite loss
        obs, ens, net, cfg = parity_problem(120, 9)
        real, calls = decoders.forward_with_preacts, []

        def blowing_up(net, Z):
            calls.append(1)
            X, preacts = real(net, Z)
            return (X if len(calls) < 3 else X * np.inf), preacts

        monkeypatch.setattr(decoders, "forward_with_preacts", blowing_up)
        monkeypatch.setattr(decoders, "_FIRST_STEP", 1e-6)
        monkeypatch.setattr(decoders, "_MAX_BACKTRACKS", 0)
        with pytest.raises(DivergenceError) as err:
            ls_decode(obs, ens, net, LsDecoderConfig(restarts=2, seed=cfg.seed))
        assert (err.value.restart, err.value.step) == (0, 2)

    def test_failed_search_stops_where_it_is(self, monkeypatch):
        # with no backtracks a first trial of 1e3 overshoots to a finite but
        # higher loss: every restart stops at its start, never uphill
        obs, ens, net, cfg = parity_problem(120, 9)
        monkeypatch.setattr(decoders, "_MAX_BACKTRACKS", 0)
        monkeypatch.setattr(decoders, "_FIRST_STEP", 1e3)
        res = ls_decode(obs, ens, net, LsDecoderConfig(restarts=3, seed=cfg.seed))
        Z0 = np.random.default_rng(cfg.seed).standard_normal((4, 3))
        np.testing.assert_array_equal(res.z_hat, Z0[:, res.restart_index])
        assert res.iterations == 0 and res.step == 0.0
        assert res.loss_trace == [res.restart_losses[res.restart_index]]

    def test_step_cap_bounds_iterations(self):
        obs, ens, net, cfg = parity_problem(120, 9)
        res = ls_decode(obs, ens, net, LsDecoderConfig(steps_per_restart=5, seed=cfg.seed))
        assert 1 <= res.iterations <= 5
        assert len(res.loss_trace) == res.iterations + 1

    def test_constrained_trace_is_monotone_inside_ball(self):
        net = synth_generator(k=4, n=20, hidden_dims=[10], seed=14)
        ens = sample_ensemble(80, CovarianceSpec.identity(20), 0.0, 1.0, seed=15)
        obs = observe(ens, forward(net, np.ones(4)), seed=16)
        for radius in (0.05, 0.5, 5.0):
            res = ls_decode(obs, ens, net, LsDecoderConfig(
                mode="constrained", radius=radius, restarts=3, seed=17))
            assert np.linalg.norm(res.z_hat) <= radius * (1 + 1e-12)
            assert len(res.loss_trace) == res.iterations + 1
            assert np.all(np.diff(res.loss_trace) <= 0)

    def test_same_seed_bitwise_equal_and_ties_to_lowest_restart(self):
        obs, ens, net, cfg = parity_problem(120, 10)
        a = ls_decode(obs, ens, net, cfg)
        b = ls_decode(obs, ens, net, cfg)
        for name in ("z_hat", "x_hat", "objective", "loss_trace", "restart_index",
                     "iterations", "grad_norm", "step", "restart_losses"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        # a generator with zero weights makes every restart's loss the same
        flat = GeneratorNetwork([4, 40], [np.zeros((40, 4))], [np.full(40, 0.1)])
        res = ls_decode(obs, ens, flat, LsDecoderConfig(lam=0.0, restarts=4, seed=11))
        assert len(set(res.restart_losses)) == 1
        assert res.restart_index == 0

    def test_reaches_the_converged_objective_at_k16(self):
        # one run_grid cell at default settings against 1000 fixed steps of
        # 10x the old default step 0.1 / L^2, from the same starting points
        obs, ens, net, cfg = grid_cell(k=16, m=2000)
        res = ls_decode(obs, ens, net, cfg)
        A, y, m = ens.A, obs.y, ens.m
        H, b = A.T @ A / m, A.T @ y / m
        step = 1.0 / lipschitz_upper_bound(net) ** 2
        Z = np.random.default_rng(cfg.seed).standard_normal((16, cfg.restarts))
        for _ in range(1000):
            X = forward_batch(net, Z)
            Z = Z - step * (latent_vjp_batch(net, Z, H @ X - b[:, None]) + 2.0 * cfg.lam * Z)
        resid = A @ forward_batch(net, Z) - y[:, None]
        fixed = 0.5 * np.sum(resid * resid, axis=0) / m + cfg.lam * np.sum(Z * Z, axis=0)
        assert res.objective <= float(fixed.min())

    @pytest.mark.parametrize("k,m", [(5, 80), (8, 250), (16, 1000)])
    def test_stops_sooner_than_1e12_at_the_same_optimum(self, k, m, monkeypatch):
        # the 1e7 eps stop rule ends in fewer passes than 1e-12 and where it
        # ends barely moves: worst cases measured on k in {5, 8, 16} x 7 m x
        # 6 trials were an objective rise of 1.8e-5 and |dx| = 4.8e-3 |x|
        obs, ens, net, cfg = grid_cell(k=k, m=m)
        res = ls_decode(obs, ens, net, cfg)
        monkeypatch.setattr(decoders, "_STOP_RTOL", 1e-12)
        tight = ls_decode(obs, ens, net, cfg)
        assert res.passes < tight.passes
        assert abs(res.objective - tight.objective) <= 1e-4
        assert np.linalg.norm(res.x_hat - tight.x_hat) <= 1e-2 * np.linalg.norm(res.x_hat)

    @pytest.mark.parametrize("k,m", [(5, 80), (16, 1000)])
    def test_stops_at_the_first_step_below_the_tolerance(self, k, m):
        # every decrease before the last exceeds the stop tolerance; in these
        # cells the winner stops by that rule, not the step cap or a failed
        # search, so its last decrease does not
        obs, ens, net, cfg = grid_cell(k=k, m=m)
        res = ls_decode(obs, ens, net, cfg)
        trace = res.loss_trace
        tol = [decoders._STOP_RTOL * (1.0 + abs(f)) for f in trace[:-1]]
        drops = [f - g for f, g in zip(trace[:-1], trace[1:])]
        assert all(d > t for d, t in zip(drops[:-1], tol[:-1]))
        assert drops[-1] <= tol[-1]


class TestLsParity:
    @pytest.mark.parametrize("m,seed", [(10, 1), (25, 2), (40, 3)])
    def test_bitwise_equal_to_residual_form_when_m_le_n(self, m, seed):
        obs, ens, net, cfg = parity_problem(m, seed)
        res = ls_decode(obs, ens, net, cfg)
        x_ref, best_ref, trace_ref, *_ = reference_ls(obs, ens, net, cfg)
        np.testing.assert_array_equal(res.x_hat, x_ref)
        assert res.restart_index == best_ref
        np.testing.assert_array_equal(res.loss_trace, trace_ref)

    @pytest.mark.parametrize("m,seed", [(41, 4), (120, 5), (600, 6), (3000, 7)])
    def test_gram_form_matches_residual_form_when_m_gt_n(self, m, seed):
        obs, ens, net, cfg = parity_problem(m, seed)
        res = ls_decode(obs, ens, net, cfg)
        x_ref, best_ref, trace_ref, *_ = reference_ls(obs, ens, net, cfg)
        assert res.restart_index == best_ref
        np.testing.assert_allclose(res.x_hat, x_ref, rtol=0, atol=1e-8)
        assert res.loss_trace[-1] == pytest.approx(trace_ref[-1], rel=0, abs=1e-10)

    @pytest.mark.parametrize("radius", [0.3, 1.0, 3.0])
    @pytest.mark.parametrize("m,seed", [(10, 1), (25, 2), (40, 3)])
    def test_constrained_bitwise_equal_to_residual_form_when_m_le_n(self, m, seed, radius):
        obs, ens, net, cfg = parity_problem(m, seed, mode="constrained", radius=radius)
        res = ls_decode(obs, ens, net, cfg)
        x_ref, best_ref, trace_ref, *_ = reference_ls(obs, ens, net, cfg)
        np.testing.assert_array_equal(res.x_hat, x_ref)
        assert res.restart_index == best_ref
        np.testing.assert_array_equal(res.loss_trace, trace_ref)

    @pytest.mark.parametrize("constants", [
        {"_MAX_BACKTRACKS": 0}, {"_MAX_BACKTRACKS": 1}, {"_MAX_BACKTRACKS": 2},
        {"_MAX_BACKTRACKS": 3},
        # a loose stop rule: restarts stop early beside others still searching
        {"_MAX_BACKTRACKS": 0, "_FIRST_STEP": 1e-2, "_STOP_RTOL": 1e-2}])
    @pytest.mark.parametrize("m,seed", [(10, 1), (25, 2), (40, 3)])
    def test_bitwise_equal_to_residual_form_with_few_halvings(self, m, seed, constants,
                                                              monkeypatch):
        # with a cap of a few halvings, searches run out while other restarts
        # go on, and a running search can meet the cap after others stopped
        for name, value in constants.items():
            monkeypatch.setattr(decoders, name, value)
        obs, ens, net, cfg = parity_problem(m, seed)
        res = ls_decode(obs, ens, net, cfg)
        x_ref, best_ref, trace_ref, *_ = reference_ls(obs, ens, net, cfg)
        np.testing.assert_array_equal(res.x_hat, x_ref)
        assert res.restart_index == best_ref
        np.testing.assert_array_equal(res.loss_trace, trace_ref)

    @pytest.mark.parametrize("mode", ["lagrangian", "constrained"])
    @pytest.mark.parametrize("make_net", [relu_net, block_hidden_net])
    @pytest.mark.parametrize("m,seed", [(10, 1), (25, 2), (40, 3)])
    def test_other_nets_bitwise_equal_to_residual_form_when_m_le_n(self, m, seed, make_net,
                                                                   mode):
        obs, ens, net, cfg = parity_problem(m, seed, net=make_net(seed), mode=mode)
        res = ls_decode(obs, ens, net, cfg)
        x_ref, best_ref, trace_ref, *_ = reference_ls(obs, ens, net, cfg)
        np.testing.assert_array_equal(res.x_hat, x_ref)
        assert res.restart_index == best_ref
        np.testing.assert_array_equal(res.loss_trace, trace_ref)

    @pytest.mark.parametrize("radius", [0.3, 1.0, 3.0])
    @pytest.mark.parametrize("m,seed", [(41, 4), (120, 5), (600, 6)])
    def test_constrained_gram_form_matches_residual_form_when_m_gt_n(self, m, seed, radius):
        obs, ens, net, cfg = parity_problem(m, seed, mode="constrained", radius=radius)
        res = ls_decode(obs, ens, net, cfg)
        x_ref, best_ref, *_ = reference_ls(obs, ens, net, cfg)
        assert res.restart_index == best_ref
        np.testing.assert_allclose(res.x_hat, x_ref, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("m", [25, 120])
    def test_one_generator_pass_per_step(self, m, monkeypatch):
        # one batched pass per trial point of the restart that tries most:
        # the start, then every restart's own searches side by side, which
        # takes fewer passes than searching the whole batch step by step
        obs, ens, net, cfg = parity_problem(m, 8)
        calls = []
        real = decoders.forward_with_preacts

        def counting(net, Z):
            calls.append(Z.shape)
            return real(net, Z)

        monkeypatch.setattr(decoders, "forward_with_preacts", counting)
        res = ls_decode(obs, ens, net, cfg)
        *_, searches, backtracks, trials = reference_ls(obs, ens, net, cfg)
        assert backtracks > 0
        assert calls == [(net.latent_dim, cfg.restarts)] * (1 + trials.max())
        assert 1 + trials.max() < 1 + searches + backtracks
        assert res.passes == len(calls)


class TestHardThreshold:
    def test_keeps_largest(self):
        out = hard_threshold(np.array([3.0, -5.0, 1.0, 4.0]), 2)
        np.testing.assert_array_equal(out, [0.0, -5.0, 0.0, 4.0])

    def test_tie_broken_by_lowest_index(self):
        out = hard_threshold(np.array([2.0, -2.0, 2.0]), 1)
        np.testing.assert_array_equal(out, [2.0, 0.0, 0.0])

    def test_s_equals_n_is_identity(self):
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(hard_threshold(x, 3), x)

    @pytest.mark.parametrize("s", [2.5, 2.0])
    def test_non_integer_s_rejected(self, s):
        # int(2.5) used to keep 2 entries
        with pytest.raises(ValueError, match=f"sparsity s must be an integer, got {s}"):
            hard_threshold(np.array([3.0, -5.0, 1.0, 4.0]), s)


class TestBiht:
    def test_single_spike_recovery(self):
        n = 50
        ens = sample_ensemble(2000, CovarianceSpec.identity(n), 0.0, 1.0, seed=9)
        e1 = np.zeros(n)
        e1[0] = 1.0
        obs = observe(ens, e1, seed=10)
        x_hat = biht_decode(obs, ens, s=1, iters=100)
        assert list(np.flatnonzero(x_hat)) == [0]
        assert float(x_hat @ e1) >= 0.99

    def test_output_contracts(self):
        n = 30
        ens = sample_ensemble(200, CovarianceSpec.toeplitz(n, 0.3), 0.1, 0.95, seed=11)
        obs = observe(ens, np.random.default_rng(12).standard_normal(n), seed=13)
        for s in (1, 5, 30):
            x_hat = biht_decode(obs, ens, s=s, iters=40)
            assert int(np.sum(x_hat != 0)) <= s
            assert np.linalg.norm(x_hat) == pytest.approx(1.0, rel=1e-12)

    def test_all_plus_one_signs_return_the_correlation_not_e0(self):
        # sign(A 0) = +1 matches every y_i = +1, so the iterate never leaves 0;
        # the answer is the first step with sign(0) read as 0, not a fixed e0
        ens = sample_ensemble(3, CovarianceSpec.identity(5), 0.0, 1.0, seed=0)
        obs = BinaryObservation(y=np.ones(3), x_star=np.ones(5), eta=np.ones(3),
                                eps=np.zeros(3))
        want = hard_threshold(ens.A.T @ obs.y / 3, 2)
        np.testing.assert_allclose(biht_decode(obs, ens, s=2), want / np.linalg.norm(want),
                                   rtol=0, atol=1e-15)

    def test_zero_correlation_returns_zeros(self):
        # A^T y = 0 leaves nothing to point at: zeros, which run_grid records
        # as converged=false
        ens = MeasurementEnsemble(A=np.array([[1.0, 2.0], [-1.0, -2.0]]),
                                  cov=CovarianceSpec.identity(2), sigma=0.0, q=1.0, seed=0)
        obs = BinaryObservation(y=np.ones(2), x_star=np.ones(2), eta=np.ones(2),
                                eps=np.zeros(2))
        np.testing.assert_array_equal(biht_decode(obs, ens, s=1), [0.0, 0.0])

    @pytest.mark.parametrize("iters", [0, -5])
    def test_iterations_below_one_rejected(self, iters):
        ens = sample_ensemble(20, CovarianceSpec.identity(4), 0.0, 1.0, seed=17)
        obs = observe(ens, np.ones(4), seed=18)
        with pytest.raises(ValueError, match="iters"):
            biht_decode(obs, ens, s=2, iters=iters)

    def test_non_integer_iterations_rejected(self):
        # iters=1.5 used to run once
        ens = sample_ensemble(20, CovarianceSpec.identity(4), 0.0, 1.0, seed=17)
        obs = observe(ens, np.ones(4), seed=18)
        with pytest.raises(ValueError, match="BIHT iters must be an integer, got 1.5"):
            biht_decode(obs, ens, s=2, iters=1.5)

    def test_s_equals_n_reduces_to_sign_matching_iteration(self):
        n = 12
        ens = sample_ensemble(80, CovarianceSpec.identity(n), 0.0, 1.0, seed=14)
        obs = observe(ens, np.random.default_rng(15).standard_normal(n), seed=16)
        x_hat = biht_decode(obs, ens, s=n, iters=3)
        x = np.zeros(n)
        for _ in range(3):
            x = x + (1.0 / ens.m) * (ens.A.T @ (obs.y - np.where(ens.A @ x >= 0, 1.0, -1.0)))
        np.testing.assert_allclose(x_hat, x / np.linalg.norm(x), atol=1e-12)


class TestL1Projection:
    def test_inside_ball_unchanged(self):
        x = np.array([0.2, -0.1])
        np.testing.assert_array_equal(project_l1_ball(x, 1.0), x)

    def test_projection_is_feasible_and_idempotent(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            x = rng.standard_normal(20) * 3
            p = project_l1_ball(x, 2.0)
            assert np.abs(p).sum() <= 2.0 + 1e-9
            np.testing.assert_allclose(project_l1_ball(p, 2.0), p, atol=1e-12)

    def test_matches_exhaustive_small_case(self):
        # brute-force oracle on a grid for a 2-d projection
        x = np.array([2.0, 1.0])
        p = project_l1_ball(x, 1.0)
        grid = np.linspace(-1, 1, 2001)
        best, best_d = None, np.inf
        for a in grid:
            b_max = 1.0 - abs(a)
            for b in (-b_max, b_max, 0.0):
                d = (a - 2.0) ** 2 + (b - 1.0) ** 2
                if d < best_d:
                    best, best_d = (a, b), d
        np.testing.assert_allclose(p, best, atol=2e-3)


class TestPvConvex:
    def test_feasibility_contract(self):
        n = 30
        ens = sample_ensemble(300, CovarianceSpec.identity(n), 0.1, 0.9, seed=18)
        obs = observe(ens, np.random.default_rng(19).standard_normal(n), seed=20)
        x_hat = pv_convex_decode(obs, ens, s_ell1=2.0)
        assert np.abs(x_hat).sum() <= 2.0 + 1e-8
        assert np.linalg.norm(x_hat) <= 1.0 + 1e-8

    def test_objective_no_worse_than_zero(self):
        n = 25
        ens = sample_ensemble(150, CovarianceSpec.identity(n), 0.0, 0.97, seed=21)
        obs = observe(ens, np.random.default_rng(22).standard_normal(n), seed=23)
        x_hat = pv_convex_decode(obs, ens, s_ell1=1.5)
        assert float(obs.y @ (ens.A @ x_hat)) / ens.m >= 0.0

    def test_single_spike_recovery(self):
        n = 50
        ens = sample_ensemble(5000, CovarianceSpec.identity(n), 0.0, 1.0, seed=24)
        e1 = np.zeros(n)
        e1[0] = 1.0
        obs = observe(ens, e1, seed=25)
        x_hat = pv_convex_decode(obs, ens, s_ell1=1.0)
        assert float(x_hat @ e1) / np.linalg.norm(x_hat) >= 0.9

    def test_nan_radius_rejected(self):
        # it used to return the unconstrained g / |g|, far outside any L1 ball
        ens = sample_ensemble(200, CovarianceSpec.identity(30), 0.1, 0.9, seed=18)
        obs = observe(ens, np.random.default_rng(19).standard_normal(30), seed=20)
        with pytest.raises(ValueError, match="L1 radius must be positive, got nan"):
            pv_convex_decode(obs, ens, s_ell1=math.nan)


class TestPvOptimality:
    @pytest.mark.parametrize("s", [3.0, 5.0])
    def test_meets_the_dual_bound(self, s):
        # weak duality: g^T x <= s lam + |S_lam(g)|_2 for feasible x and every
        # lam >= 0; the optimum attains the minimum over lam
        n, m = 100, 500
        ens = sample_ensemble(m, CovarianceSpec.toeplitz(n, 0.3), 0.1, 0.97, seed=31)
        obs = observe(ens, np.random.default_rng(32).standard_normal(n), seed=33)
        x_hat = pv_convex_decode(obs, ens, s_ell1=s)
        g = ens.A.T @ obs.y / m
        assert np.abs(x_hat).sum() <= s * (1 + 1e-9)
        assert np.linalg.norm(x_hat) <= 1 + 1e-9

        def dual(lam):
            return s * lam + np.linalg.norm(np.maximum(np.abs(g) - lam, 0.0))

        value = float(g @ x_hat)
        for lam in np.linspace(0.0, np.abs(g).max(), 1001):
            assert value <= dual(lam) * (1 + 1e-12)
        lo, hi = 0.0, float(np.abs(g).max())  # dual is convex in lam
        for _ in range(200):
            a, b = lo + (hi - lo) / 3, hi - (hi - lo) / 3
            lo, hi = (lo, b) if dual(a) <= dual(b) else (a, hi)
        assert value >= dual(lo) * (1 - 1e-9)

    @pytest.mark.parametrize("g, s, expected", [
        ([0.5, -2.0, 1.0], 0.5, [0.0, -0.5, 0.0]),     # s < 1: the L1 vertex at argmax |g|
        ([1.0, -1.0, 0.5], 1.2, [0.6, -0.6, 0.0]),     # s^2 < ties: mass s over the tie
        ([0.0, 0.0, 0.0], 2.0, [0.0, 0.0, 0.0]),       # g = 0
        ([3.0, 4.0, 0.0], 5.0, [0.6, 0.8, 0.0]),       # s large: g / |g|
    ])
    def test_edge_cases(self, g, s, expected):
        # A = 3 diag(g) and y = 1 give A^T y / m = g
        n = len(g)
        ens = MeasurementEnsemble(A=3.0 * np.diag(g), cov=CovarianceSpec.identity(n),
                                  sigma=0.0, q=1.0, seed=0)
        obs = BinaryObservation(y=np.ones(n), x_star=np.zeros(n), eta=np.ones(n),
                                eps=np.zeros(n))
        np.testing.assert_allclose(pv_convex_decode(obs, ens, s_ell1=s), expected, atol=1e-15)
        with pytest.raises(ValueError):
            pv_convex_decode(obs, ens, s_ell1=0.0)


class TestEstimationError:
    def test_perfectly_scaled_estimate(self):
        x_star = np.random.default_rng(26).standard_normal(8)
        c = scaling_constant(0.1, 0.97)
        err = estimation_error(c * x_star, x_star, 0.1, 0.97)
        assert err["l2_err_vs_c_xstar"] == pytest.approx(0.0, abs=1e-12)
        assert err["cosine"] == pytest.approx(1.0)

    def test_antipodal(self):
        x_star = np.array([1.0, 2.0])
        err = estimation_error(-x_star, x_star, 0.0, 1.0)
        assert err["cosine"] == pytest.approx(-1.0)

    def test_unscaled_unit_truth(self):
        x_star = np.zeros(5)
        x_star[0] = 1.0
        err = estimation_error(x_star, x_star, 0.1, 0.97)
        c = 0.94 * math.sqrt(2.0 / (math.pi * 1.01))
        assert err["l2_err_vs_c_xstar"] == pytest.approx(abs(1 - c), rel=1e-10)
        assert err["per_pixel"] == pytest.approx(abs(1 - c) / math.sqrt(5), rel=1e-10)

    def test_zero_norm_estimate_rejected(self):
        with pytest.raises(ZeroDivisionError):
            estimation_error(np.zeros(3), np.ones(3), 0.0, 1.0)
