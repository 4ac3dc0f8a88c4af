import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obgcs import (CovarianceSpec, DivergenceError,
                   LsDecoderConfig, biht_decode, estimation_error,
                   hard_threshold, ls_decode, observe, project_l1_ball,
                   pv_convex_decode, sample_ensemble, scaling_constant,
                   synth_generator)
from obgcs import decoders
from obgcs.measurement import BinaryObservation, MeasurementEnsemble, sample_truth
from obgcs.generator import (GeneratorNetwork, forward, forward_batch, forward_with_preacts,
                             latent_vjp_batch, lipschitz_upper_bound, vjp_from_preacts)
from obgcs.measurement import sign_pm1
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



def frozen_ls_decode(obs, ens, net, cfg):
    """ls_decode as it was with its step bookkeeping on (R,) arrays: every
    restart's state updated by np.where in every pass. Kept as the reference
    the float bookkeeping must match bit for bit; it reads the module's step
    constants at call time, as ls_decode does."""
    A, y = ens.A, obs.y
    m, n = A.shape
    lam = cfg.lam if cfg.mode == "lagrangian" else 0.0
    radius = cfg.radius if cfg.mode == "constrained" else None
    data_term = decoders._gram_term(A, y) if m > n else decoders._residual_term(A, y)

    def evaluate(Z):
        X, preacts = forward_with_preacts(net, Z)
        data_loss, cotangent = data_term(X)
        return (data_loss + lam * np.add.reduce(Z * Z, 0),
                vjp_from_preacts(net, preacts, cotangent) + 2.0 * lam * Z)

    Z = np.random.default_rng(cfg.seed).standard_normal((net.latent_dim, cfg.restarts))
    if radius is not None:
        Z = decoders._project_ball_cols(Z, radius)
    with np.errstate(over="ignore", invalid="ignore"):
        f, G = evaluate(Z)
        if not np.all(np.isfinite(f)):
            bad = int(np.flatnonzero(~np.isfinite(f))[0])
            raise DivergenceError("start", restart=bad, step=0)
        a = np.full(cfg.restarts, decoders._FIRST_STEP)
        halvings = np.zeros(cfg.restarts, dtype=int)
        finite = np.zeros(cfg.restarts, dtype=bool)
        iterations = np.zeros(cfg.restarts, dtype=int)
        running = np.ones(cfg.restarts, dtype=bool)
        no_bb = np.full(cfg.restarts, np.inf)
        passes = [(running.copy(), f, np.zeros(cfg.restarts))]
        while True:
            Zt = Z - a * G
            if radius is not None:
                Zt = decoders._project_ball_cols(Zt, radius)
            ft, Gt = evaluate(Zt)
            S = Zt - Z
            ok = running & np.isfinite(ft)
            finite |= ok
            ok &= ft <= f + decoders._ARMIJO_C1 * np.minimum(np.add.reduce(G * S, 0), 0.0)
            passes.append((ok, ft, a))
            sy = np.add.reduce(S * (Gt - G), 0)
            bb = np.divide(np.add.reduce(S * S, 0), sy, out=no_bb.copy(), where=sy > 0)
            converged = f - ft <= decoders._STOP_RTOL * (1.0 + np.abs(f))
            Z = np.where(ok, Zt, Z)
            G = np.where(ok, Gt, G)
            f = np.where(ok, ft, f)
            a = np.where(ok, np.minimum(bb, decoders._MAX_GROWTH * a), 0.5 * a)
            halvings = np.where(ok, 0, halvings + running)
            finite &= ~ok
            iterations += ok
            failed = halvings > decoders._MAX_BACKTRACKS
            stopped = failed | (ok & (converged | (iterations == cfg.steps_per_restart)))
            if stopped.any():
                if (failed & ~finite).any():
                    bad = int(np.flatnonzero(failed & ~finite)[0])
                    raise DivergenceError("search", restart=bad, step=int(iterations[bad]) + 1)
                running &= ~stopped
                if not running.any():
                    break
                a[stopped] = halvings[stopped] = 0

    best = int(np.argmin(f))
    trace = [(loss[best], step[best]) for took, loss, step in passes if took[best]]
    z_hat = Z[:, best].copy()
    x_hat = forward(net, z_hat)
    r = A @ x_hat - y
    return decoders.DecoderResult(
        z_hat=z_hat, x_hat=x_hat,
        objective=float(0.5 * (r @ r) / m + lam * float(z_hat @ z_hat)),
        loss_trace=[float(loss) for loss, _ in trace], restart_index=best,
        iterations=int(iterations[best]), grad_norm=float(np.linalg.norm(G[:, best])),
        step=float(trace[-1][1]), restart_losses=f.tolist(), passes=len(passes))


def frozen_biht(obs, ens, s):
    """biht_decode as it was: all 100 iterations, no fixed-point exit."""
    A, y = ens.A, obs.y
    m = A.shape[0]
    x = np.zeros(A.shape[1])
    for _ in range(100):
        x = hard_threshold(x + (1.0 / m) * (A.T @ (y - sign_pm1(A @ x))), s)
    nrm = np.linalg.norm(x)
    if nrm == 0.0:
        x = hard_threshold((1.0 / m) * (A.T @ y), s)
        nrm = np.linalg.norm(x)
    return x / nrm if nrm > 0.0 else x


RESULT_FIELDS = ("z_hat", "x_hat", "objective", "loss_trace", "restart_index", "iterations",
                 "grad_norm", "step", "restart_losses", "passes")


def assert_same_result(res, ref):
    """Every DecoderResult field equal bit for bit, with its Python type."""
    for name in RESULT_FIELDS:
        got, want = getattr(res, name), getattr(ref, name)
        assert type(got) is type(want), name
        if isinstance(got, np.ndarray):
            assert got.tobytes() == want.tobytes(), name
        elif isinstance(got, list):
            assert [type(v) for v in got] == [type(v) for v in want], name
            assert [v.hex() for v in got] == [v.hex() for v in want], name
        elif isinstance(got, float):
            assert got.hex() == want.hex(), name
        else:
            assert got == want, name

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
    cov = CovarianceSpec.toeplitz(100, 0.3)
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
        # a net's two layers of weights times 1e100: |A G(z)|^2 overflows at any start
        net = synth_generator(k=3, n=15, hidden_dims=[8], seed=27)
        huge = GeneratorNetwork(net.layer_dims, [1e100 * w for w in net.weights], net.biases)
        with pytest.raises(DivergenceError) as err:
            ls_decode(obs, ens, huge, LsDecoderConfig(restarts=2, seed=30))
        assert (err.value.restart, err.value.step) == (0, 0)
        # a finite start whose every trial point of the first search overflows
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



PARITY_NETS = [(5, [64]), (8, [64]), (5, [64, 64]), (16, [64]), (3, [8])]


def matrix_problem(k, hidden, m, q, seed, **cfg):
    """One decode at n=100 with nu=0.3, sigma=0.1, in run_grid's way."""
    net = synth_generator(k=k, n=100, hidden_dims=hidden, seed=k)
    cov = CovarianceSpec.toeplitz(100, 0.3)
    ens = sample_ensemble(m, cov, 0.1, q, seed)
    obs = observe(ens, sample_truth(net, cov, rng_for(seed, 1)), seed)
    return obs, ens, net, LsDecoderConfig(seed=seed + 2, **cfg)


class TestFrozenReferenceParity:
    @pytest.mark.parametrize("mode", ["lagrangian", "constrained"])
    @pytest.mark.parametrize("k,hidden", PARITY_NETS)
    def test_ls_matches_the_array_bookkeeping(self, k, hidden, mode):
        # restarts x step cap x q, with m cycling through both sides of n:
        # single and many restarts, capped and converged runs
        combos = itertools.product((1, 3, 10), (7, 1000), (1.0, 0.97, 0.8))
        for i, (restarts, steps, q) in enumerate(combos):
            m = (20, 100, 1000)[i % 3]
            obs, ens, net, cfg = matrix_problem(k, hidden, m, q, derive_seed(k, i),
                                                mode=mode, restarts=restarts,
                                                steps_per_restart=steps)
            assert_same_result(ls_decode(obs, ens, net, cfg), frozen_ls_decode(obs, ens, net, cfg))

    @pytest.mark.parametrize("constants", [
        {"_MAX_BACKTRACKS": 0}, {"_MAX_BACKTRACKS": 2},
        {"_MAX_BACKTRACKS": 0, "_FIRST_STEP": 1e-2, "_STOP_RTOL": 1e-2}])
    def test_ls_matches_with_few_halvings(self, constants, monkeypatch):
        # searches that run out beside others still going, read at call time
        for name, value in constants.items():
            monkeypatch.setattr(decoders, name, value)
        for m, seed in ((10, 1), (40, 3), (120, 5)):
            obs, ens, net, cfg = parity_problem(m, seed)
            assert_same_result(ls_decode(obs, ens, net, cfg), frozen_ls_decode(obs, ens, net, cfg))

    def test_ls_divergence_matches(self, monkeypatch):
        obs, ens, net, cfg = parity_problem(120, 9)
        monkeypatch.setattr(decoders, "_FIRST_STEP", 1e300)
        errors = []
        for decode in (ls_decode, frozen_ls_decode):
            with pytest.raises(DivergenceError) as err:
                decode(obs, ens, net, LsDecoderConfig(restarts=3, seed=30))
            errors.append((err.value.restart, err.value.step))
        assert errors[0] == errors[1] == (0, 1)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(k=st.integers(1, 6), m=st.integers(4, 60),
           mode=st.sampled_from(["lagrangian", "constrained"]),
           restarts=st.integers(1, 5), steps=st.integers(1, 20), seed=st.integers(0, 2**16))
    def test_ls_matches_on_small_problems(self, k, m, mode, restarts, steps, seed):
        # n = 30, so m runs on both sides of it (residual and Gram forms)
        net = synth_generator(k=k, n=30, hidden_dims=[8], seed=seed)
        ens = sample_ensemble(m, CovarianceSpec.identity(30), 0.1, 0.97, seed=seed + 1)
        obs = observe(ens, forward(net, np.random.default_rng(seed).standard_normal(k)),
                      seed=seed + 2)
        cfg = LsDecoderConfig(mode=mode, restarts=restarts, steps_per_restart=steps,
                              seed=seed + 3)
        assert_same_result(ls_decode(obs, ens, net, cfg), frozen_ls_decode(obs, ens, net, cfg))

    @pytest.mark.parametrize("q", [1.0, 0.97, 0.8])
    def test_biht_matches_the_full_run(self, q):
        for (k, hidden), m in itertools.product(PARITY_NETS, (20, 60, 100, 1000)):
            obs, ens, _, _ = matrix_problem(k, hidden, m, q, derive_seed(k, m))
            for s in (1, 5, 10, 100):
                assert biht_decode(obs, ens, s=s).tobytes() == frozen_biht(obs, ens, s).tobytes()


def biht_cell(m, trial, q=0.97):
    """A small grid-shaped cell: k=3, n=20, hidden [8], nu=0.3, sigma=0.1."""
    net = synth_generator(k=3, n=20, hidden_dims=[8], seed=0)
    cov = CovarianceSpec.toeplitz(20, 0.3)
    seed = derive_seed(5, m, trial)
    ens = sample_ensemble(m, cov, 0.1, q, seed)
    return observe(ens, sample_truth(net, cov, rng_for(5, m, trial, 1)), seed), ens


@pytest.fixture
def biht_steps(monkeypatch):
    """The BIHT iterations a decode runs, counted by its sign_pm1 calls."""
    calls = []
    monkeypatch.setattr(decoders, "sign_pm1", lambda v: calls.append(1) or sign_pm1(v))
    return calls


class TestBihtExit:
    def test_stops_at_a_fixed_point(self, biht_steps):
        # iterate 22 repeats iterate 21 byte for byte, and so would every later one
        obs, ens = biht_cell(20, 0)
        x = biht_decode(obs, ens, s=4)
        assert len(biht_steps) == 22
        assert x.tobytes() == frozen_biht(obs, ens, 4).tobytes()

    def test_runs_every_iteration_without_a_repeat(self, biht_steps):
        obs, ens = biht_cell(40, 0)
        x = biht_decode(obs, ens, s=4)
        assert len(biht_steps) == 100
        assert x.tobytes() == frozen_biht(obs, ens, 4).tobytes()

    @pytest.mark.parametrize("s,message", [(21, "sparsity s must be <= 20, got 21"),
                                           (2.5, "sparsity s must be an integer, got 2.5")])
    def test_bad_s_rejected_before_the_first_step(self, s, message, biht_steps):
        obs, ens = biht_cell(20, 0)
        with pytest.raises(ValueError, match=message):
            biht_decode(obs, ens, s=s)
        assert biht_steps == []

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
        x_hat = biht_decode(obs, ens, s=1)
        assert list(np.flatnonzero(x_hat)) == [0]
        assert float(x_hat @ e1) >= 0.99

    def test_output_contracts(self):
        n = 30
        ens = sample_ensemble(200, CovarianceSpec.toeplitz(n, 0.3), 0.1, 0.95, seed=11)
        obs = observe(ens, np.random.default_rng(12).standard_normal(n), seed=13)
        for s in (1, 5, 30):
            x_hat = biht_decode(obs, ens, s=s)
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

    def test_s_equals_n_reduces_to_sign_matching_iteration(self):
        n = 12
        ens = sample_ensemble(80, CovarianceSpec.identity(n), 0.0, 1.0, seed=14)
        obs = observe(ens, np.random.default_rng(15).standard_normal(n), seed=16)
        x_hat = biht_decode(obs, ens, s=n)
        x = np.zeros(n)
        for _ in range(100):
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
