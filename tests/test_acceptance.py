"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion with the measured numbers.
"""

import math
import os
import time

import numpy as np
import pytest

from obgcs import (CovarianceSpec, ExperimentGrid, LsDecoderConfig,
                   architecture_summary, build_indexed_memorizer,
                   build_theorem_generator, check_jl, check_srec,
                   estimate_local_mean_width, fit_scaling,
                   flip_robustness_report, forward, latent_vjp,
                   lipschitz_upper_bound, ls_decode, mean_width_of_directions,
                   observe, recall_bit, run_grid, sample_ensemble,
                   synth_generator)
from obgcs.cli import main as cli_main
from conftest import preacts_away_from_kinks

WORKERS = min(os.cpu_count() or 1, 4)


def _report(name, ok, detail):
    print(f"\n[criterion] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_c1_scaling_law():
    # synthetic generator with zero biases is positively homogeneous, so the
    # rescaled ground truth stays exactly representable (no approximation
    # floor); median error vs m should follow an inverse-sqrt law
    start = time.perf_counter()
    grid = ExperimentGrid(
        generator={"k": 5, "n": 100, "hidden_dims": [64], "seed": 0},
        m_values=[250, 500, 1000, 2000, 4000],
        sigma=0.1, q=0.97, nu=0.3,
        trials_per_cell=20, decoders=("ls",), base_seed=123,
        workers=WORKERS,
    )
    results = run_grid(grid)
    fit = fit_scaling(results, "ls")
    elapsed = time.perf_counter() - start
    medians = [float(np.median([r.l2_err for r in results if r.m == m]))
               for m in grid.m_values]
    # rank correlation of median error against m (monotone decay check)
    err_rank = np.argsort(np.argsort(medians))
    m_rank = np.arange(len(medians))
    d = err_rank - m_rank[::-1]
    spearman = 1.0 - 6.0 * float(d @ d) / (len(d) * (len(d) ** 2 - 1))
    ok = (-0.65 <= fit["slope"] <= -0.35 and elapsed <= 600.0
          and spearman >= 0.8)  # error vs m correlation is -spearman
    _report("1 scaling-law", ok,
            f"slope={fit['slope']:.3f} in [-0.65,-0.35], r2={fit['r2']:.3f}, "
            f"error-vs-m rank corr={-spearman:.2f} <= -0.8, "
            f"runtime={elapsed:.0f}s <= 600s")


def test_c2_flip_robustness():
    common = dict(
        generator={"k": 5, "n": 100, "hidden_dims": [64], "seed": 0,
                   "final_activation": "relu"},
        m_values=[100, 200, 300], sigma=0.1, nu=0.3,
        trials_per_cell=12, decoders=("ls", "biht"), base_seed=77,
        biht_s=50, workers=WORKERS,
    )
    res_noflip = run_grid(ExperimentGrid(q=1.0, **common))
    res_flip = run_grid(ExperimentGrid(q=0.97, **common))
    rep = flip_robustness_report(res_noflip, res_flip)
    ls_300 = next(r["ratio"] for r in rep["rows"]
                  if r["decoder"] == "ls" and r["m"] == 300)
    ok = ls_300 <= 2.0 and rep["ls_better_fraction"] >= 0.6
    _report("2 flip-robustness", ok,
            f"ls ratio at m=300: {ls_300:.3f} <= 2.0; "
            f"ls<=biht in {rep['ls_better_fraction']:.0%} of cells (>=60%)")


def test_c3_memorizer_exactness():
    wrong = 0
    sizes_ok = True
    for cap_w in (1, 2, 3):
        for ell in range(2, 9):
            count = cap_w * cap_w * ell
            rng = np.random.default_rng(1000 * cap_w + ell)
            anchors = rng.standard_normal((count, 3))
            bits = rng.integers(0, 2, (count, ell))
            mem = build_indexed_memorizer(list(zip(anchors, bits)), cap_w, ell)
            arch = architecture_summary(mem.net)
            sizes_ok &= (mem.width == 4 * cap_w + 6 == arch["max_width"])
            sizes_ok &= (mem.depth == 3 * ell + 1 == arch["affine_layers"])
            wrong += sum(recall_bit(mem, z, j) != float(row[j - 1])
                         for z, row in zip(anchors, bits)
                         for j in range(1, ell + 1))
    targets = np.random.default_rng(5).random((5, 8))
    gen = build_theorem_generator(targets, 0.25)
    gaps = [float(np.linalg.norm(forward(gen.net, a) - t))
            for a, t in zip(gen.anchors, targets)]
    w = math.ceil(math.sqrt(5 * 8 / gen.ell))
    arch = architecture_summary(gen.net)
    gen_ok = (max(gaps) <= 0.25 and gen.width == (4 * w + 6) * 8 == arch["max_width"]
              and gen.depth == 3 * gen.ell + 2 == arch["affine_layers"])
    ok = wrong == 0 and sizes_ok and gen_ok
    _report("3 memorizer-exactness", ok,
            f"recall errors={wrong} over W in 1..3, ell in 2..8 at full "
            f"capacity; sizes exact={sizes_ok}; theorem builder max gap "
            f"{max(gaps):.4f} <= tau=0.25, width {(4 * w + 6) * 8}")


def test_c4_gradient_correctness():
    rng = np.random.default_rng(0)
    worst = 0.0
    checked = 0
    trials = 0
    while checked < 100 and trials < 5000:
        trials += 1
        net = synth_generator(k=4, n=12, hidden_dims=[10, 8], seed=trials)
        z = rng.standard_normal(4)
        if not preacts_away_from_kinks(net, z, margin=1e-3):
            continue
        checked += 1
        v = rng.standard_normal(12)
        g = latent_vjp(net, z, v)
        fd = np.zeros(4)
        for j in range(4):
            e = np.zeros(4)
            e[j] = 1e-5
            fd[j] = (forward(net, z + e) @ v - forward(net, z - e) @ v) / 2e-5
        worst = max(worst, np.max(np.abs(g - fd)) / max(np.max(np.abs(fd)), 1e-12))
    ok = checked == 100 and worst < 1e-4
    _report("4 gradient-correctness", ok,
            f"{checked} triples, max relative error {worst:.2e} < 1e-4")


def test_c5_concentration():
    n, m = 20, 100_000
    cov = CovarianceSpec.identity(n)
    bound_inf = 4 * math.sqrt(math.log(n) / m)
    bound_spec = 4 * (math.sqrt(n / m) + n / m)
    x = np.zeros(n)
    x[0] = 1.0
    ok_inf = ok_spec = 0
    from obgcs import concentration_diagnostics
    for run in range(100):
        ens = sample_ensemble(m, cov, 0.1, 0.97, seed=run)
        obs = observe(ens, x, seed=run)
        diag = concentration_diagnostics(ens, obs)
        ok_inf += diag["linf_cov"] <= bound_inf
        ok_spec += diag["spec_cov"] <= bound_spec
    ok = ok_inf >= 99 and ok_spec >= 99
    _report("5 concentration", ok,
            f"max-entry bound held {ok_inf}/100 (>=99), "
            f"spectral bound held {ok_spec}/100 (>=99)")


def test_c6_srec_and_jl():
    k, n = 4, 50
    net = synth_generator(k=k, n=n, hidden_dims=[16], seed=0)
    lip = lipschitz_upper_bound(net)
    delta = 1e-3
    m = round(5 * k * math.log(lip / delta))
    cov = CovarianceSpec.identity(n)
    gamma = 0.5  # sqrt(lambda_min(I)) / 2
    clean = 0
    for run in range(100):
        ens = sample_ensemble(m, cov, 0.0, 1.0, seed=run)
        rep = check_srec(ens, net, gamma, delta, 10_000, seed=1000 + run)
        clean += rep.violations == 0
    size, eps = 40, 0.5
    m_jl = math.ceil(8 * math.log(size) / eps ** 2)
    cov_t = CovarianceSpec.toeplitz(n, 0.3)
    jl_pass = 0
    for run in range(100):
        rng = np.random.default_rng(run)
        T = rng.standard_normal((size, n))
        ens = sample_ensemble(m_jl, cov_t, 0.0, 1.0, seed=500 + run)
        jl_pass += check_jl(ens, T, eps)["pass"]
    ok = clean >= 99 and jl_pass >= 95
    _report("6 srec-jl", ok,
            f"srec clean {clean}/100 (>=99) at m={m}; "
            f"jl pass {jl_pass}/100 (>=95) at m={m_jl}")


def test_c7_mean_width():
    D = np.zeros((2, 6))
    D[0, 0] = 1.0
    D[1, 0] = -1.0
    est = mean_width_of_directions(D, 4000, seed=1)
    half_normal = math.sqrt(2.0 / math.pi)
    fin_ok = abs(est.omega_hat - half_normal) <= 3 * est.std_err
    net = synth_generator(k=5, n=40, hidden_dims=[16], seed=2)
    gen_est = estimate_local_mean_width(net, np.zeros(5), gamma_scale=0.05,
                                        num_gaussians=2000, net_epsilon=0.5,
                                        seed=3)
    gen_ok = gen_est.omega_hat <= gen_est.theoretical_bound
    ok = fin_ok and gen_ok
    _report("7 mean-width", ok,
            f"{{+-e1}}: {est.omega_hat:.4f} vs {half_normal:.4f} "
            f"(3se={3 * est.std_err:.4f}); generator {gen_est.omega_hat:.3f} "
            f"<= bound {gen_est.theoretical_bound:.3f}")


def test_c8_cli_determinism(tmp_path):
    gcfg = tmp_path / "g.cfg"
    gcfg.write_text("k = 3\nn = 16\nhidden_dims = 8\nm_values = 40, 80\n"
                    "trials = 2\ndecoders = ls\nls_steps = 60\nls_restarts = 2\n")
    scfg = tmp_path / "s.cfg"
    scfg.write_text("k = 3\nn = 12\nhidden_dims = 6\n")
    mcfg = tmp_path / "mm.cfg"
    mcfg.write_text("s = 3\nn = 4\ntau = 0.25\n")
    pairs = []
    for tag in ("a", "b"):
        grid_out = tmp_path / f"grid_{tag}.csv"
        gen_out = tmp_path / f"gen_{tag}.bin"
        mem_out = tmp_path / f"mem_{tag}.bin"
        meas_out = tmp_path / f"meas_{tag}"
        assert cli_main(["grid", "--config", str(gcfg), "--seed", "7",
                         "--out", str(grid_out), "--quiet"]) == 0
        assert cli_main(["synth-gen", "--config", str(scfg), "--seed", "3",
                         "--out", str(gen_out), "--quiet"]) == 0
        mcfg2 = tmp_path / "me.cfg"
        mcfg2.write_text(f"gen = {gen_out}\nm = 50\n")
        assert cli_main(["measure", "--config", str(mcfg2), "--seed", "5",
                         "--out", str(meas_out), "--quiet"]) == 0
        assert cli_main(["memorize", "--config", str(mcfg), "--seed", "2",
                         "--out", str(mem_out), "--quiet"]) == 0
        pairs.append((grid_out.read_bytes(), gen_out.read_bytes(),
                      mem_out.read_bytes(),
                      (tmp_path / f"meas_{tag}.ens.bin").read_bytes(),
                      (tmp_path / f"meas_{tag}.obs.bin").read_bytes()))
    ok = pairs[0] == pairs[1]
    _report("8 cli-determinism", ok,
            "grid/synth-gen/measure/memorize outputs byte-identical across reruns")


def test_c9_scale_invariance():
    net = synth_generator(k=4, n=30, hidden_dims=[12], seed=6)
    cov = CovarianceSpec.identity(30)
    ens = sample_ensemble(120, cov, 0.0, 1.0, seed=7)
    x_star = forward(net, np.random.default_rng(8).standard_normal(4))
    obs_a = observe(ens, x_star, seed=9)
    obs_b = observe(ens, 2.0 * x_star, seed=9)
    signs_equal = np.array_equal(obs_a.y, obs_b.y)
    cfg = LsDecoderConfig(restarts=3, steps_per_restart=120, seed=10)
    out_a = ls_decode(obs_a, ens, net, cfg)
    out_b = ls_decode(obs_b, ens, net, cfg)
    decode_equal = np.array_equal(out_a.x_hat, out_b.x_hat)
    ok = signs_equal and decode_equal
    _report("9 scale-invariance", ok,
            f"signs identical={signs_equal}, decoder outputs identical={decode_equal}")
