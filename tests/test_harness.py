import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import obgcs
from obgcs import (CellResult, ExperimentGrid, GeneratorNetwork, NotSpdError,
                   fit_scaling, flip_robustness_report, harness, read_csv,
                   run_grid, save_generator, write_csv)
from obgcs.harness import CSV_HEADER
from obgcs.util import derive_seed, rng_for


def tiny_grid(**overrides):
    base = dict(
        generator={"k": 3, "n": 20, "hidden_dims": [8], "seed": 0},
        m_values=[40, 80],
        sigma=0.1, q=0.97, nu=0.3,
        trials_per_cell=2, decoders=("ls",), base_seed=5,
        ls_restarts=3, ls_steps=80,
    )
    base.update(overrides)
    return ExperimentGrid(**base)


class TestSeedDerivation:
    def test_frozen_values(self):
        # pinned: the derivation must stay stable across platforms/versions
        assert derive_seed(7, 100, 3) == 1662483503
        assert derive_seed(0, 250, 0) == 4037361814
        assert derive_seed(7, 100, 3, 2) == 3619024898

    def test_parts_at_or_above_2_32_stay_distinct(self):
        # each part was masked to 32 bits, so 2**32 + 7 and 7 gave one seed
        assert derive_seed(2 ** 32 + 7, 100, 0) != derive_seed(7, 100, 0)
        assert derive_seed(2 ** 32) != derive_seed(0)
        assert not np.array_equal(rng_for(2 ** 32, 1).random(4), rng_for(0, 1).random(4))

    def test_negative_part_rejected(self):
        # -1 was masked to 2**32 - 1
        with pytest.raises(ValueError):
            derive_seed(-1, 100, 0)
        with pytest.raises(ValueError):
            rng_for(-1, 0)


class TestRunGrid:
    def test_row_count_and_order(self):
        res = run_grid(tiny_grid(decoders=("ls", "biht")))
        assert len(res) == 2 * 2 * 2  # m values x trials x decoders
        keys = [(r.m, r.decoder, r.trial) for r in res]
        assert keys == sorted(keys)

    def test_decoder_subset_respected(self):
        res = run_grid(tiny_grid(decoders=("ls",)))
        assert {r.decoder for r in res} == {"ls"}

    def test_deterministic_output_file(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_grid(tiny_grid(output_path=str(p1)))
        run_grid(tiny_grid(output_path=str(p2)))
        assert p1.read_bytes() == p2.read_bytes()

    def test_worker_count_does_not_change_results(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_grid(tiny_grid(output_path=str(p1), workers=1))
        run_grid(tiny_grid(output_path=str(p2), workers=2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_import_loads_no_process_pool(self):
        # only run_grid with workers > 1 needs the pool; importing the package
        # or the CLI must not load concurrent.futures or multiprocessing
        code = ("import sys, obgcs, obgcs.cli; print(sorted(name for name in "
                "('concurrent.futures', 'multiprocessing') if name in sys.modules))")
        src = str(Path(obgcs.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            tiny_grid(workers=workers)

    @pytest.mark.parametrize("setting, fault", [
        ({"pv_s": math.nan}, "pv_s must be > 0, got nan"),
        ({"pv_s": 0.0}, "pv_s must be > 0"),
        ({"biht_s": 0}, "biht_s must be >= 1"),
        ({"ls_restarts": 0}, "ls_restarts must be >= 1"),
        ({"ls_steps": 0}, "ls_steps must be >= 1"),
    ])
    def test_bad_decoder_setting_rejected(self, setting, fault):
        with pytest.raises(ValueError, match=fault):
            tiny_grid(**setting)

    @pytest.mark.parametrize("field", ["trials_per_cell", "ls_restarts", "ls_steps", "biht_s",
                                       "workers"])
    def test_non_integer_count_rejected(self, field):
        # these were accepted; ls_steps=2.5 then dropped the LS step cap
        with pytest.raises(ValueError, match=f"{field} must be an integer, got 2.5"):
            tiny_grid(**{field: 2.5})

    def test_non_integer_m_rejected(self):
        # int(40.5) used to run the cell at m = 40
        with pytest.raises(ValueError, match="m_values entry must be an integer, got 40.5"):
            tiny_grid(m_values=[40.5, 80])

    def test_biht_s_above_n_rejected_before_any_cell(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "_run_cell", lambda *args: calls.append(args) or [])
        with pytest.raises(ValueError, match="biht_s must be <= n = 20, got 21"):
            run_grid(tiny_grid(decoders=("ls", "biht"), biht_s=21))
        assert calls == []
        run_grid(tiny_grid(decoders=("ls", "pv"), biht_s=21))  # no BIHT, no check
        assert len(calls) == 2 * 2

    def test_one_covariance_factor_per_grid(self, monkeypatch):
        # every cell shares one spec, so its Cholesky factor is computed once
        calls = []
        real = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or real(a))
        results = run_grid(tiny_grid(decoders=("ls", "biht", "pv"), biht_s=5))
        assert len(results) == 2 * 2 * 3 and len(calls) == 1

    def test_csv_header_and_round_trip(self, tmp_path):
        path = tmp_path / "r.csv"
        res = run_grid(tiny_grid(output_path=str(path)))
        text = path.read_text()
        assert text.splitlines()[0] == CSV_HEADER
        back = read_csv(path)
        assert len(back) == len(res)
        assert back[0].l2_err == res[0].l2_err
        assert all(r.runtime_s == 0.0 for r in back)  # zeroed for determinism

    def test_zero_output_generator_gives_unconverged_rows(self, tmp_path):
        # every sampled truth is zero, so no cell has anything to recover
        net = GeneratorNetwork([3, 8, 20], [np.ones((8, 3)), np.zeros((20, 8))],
                               [np.zeros(8), np.zeros(20)])
        gen_path, csv_path = tmp_path / "zero.bin", tmp_path / "r.csv"
        save_generator(net, gen_path)
        res = run_grid(tiny_grid(generator=str(gen_path), decoders=("ls", "biht", "pv"),
                                 output_path=str(csv_path)))
        assert len(res) == 2 * 2 * 3
        assert not any(r.converged for r in res)
        assert all(math.isnan(r.l2_err) and math.isnan(r.cosine) for r in res)
        back = read_csv(csv_path)
        assert csv_path.read_text().splitlines()[0] == CSV_HEADER
        assert [(r.m, r.decoder, r.trial, r.converged) for r in back] == \
            [(r.m, r.decoder, r.trial, False) for r in res]

    def test_metrics_are_sane(self):
        for r in run_grid(tiny_grid()):
            assert r.converged
            assert r.l2_err >= 0
            assert -1.0 <= r.cosine <= 1.0
            assert r.per_pixel == pytest.approx(r.l2_err / math.sqrt(20))

    @pytest.mark.parametrize("workers", [None, 2])
    def test_one_failing_decoder_gives_one_unconverged_row(self, tmp_path, monkeypatch,
                                                           workers):
        ref_path, path = tmp_path / "ref.csv", tmp_path / "r.csv"
        run_grid(tiny_grid(decoders=("ls", "biht"), output_path=str(ref_path)))
        decode = harness._decode

        def failing(grid, name, obs, ens, net, m, trial):
            if (name, m, trial) == ("biht", 80, 1):
                raise NotSpdError("covariance is not positive definite")
            return decode(grid, name, obs, ens, net, m, trial)

        monkeypatch.setattr(harness, "_decode", failing)  # forked pool workers inherit it
        res = run_grid(tiny_grid(decoders=("ls", "biht"), output_path=str(path),
                                 workers=workers))
        want = ref_path.read_text().splitlines()
        bad = want.index(next(line for line in want if line.startswith("80,biht,1,")))
        want[bad] = f"80,biht,1,{derive_seed(5, 80, 1)},nan,nan,nan,0,false"
        assert path.read_text().splitlines() == want
        assert [(r.decoder, r.m, r.trial) for r in res if not r.converged] == [("biht", 80, 1)]

    def test_plain_value_error_still_propagates(self, monkeypatch):
        def bad_config(*args):
            raise ValueError("bad config")

        monkeypatch.setattr(harness, "_decode", bad_config)
        with pytest.raises(ValueError, match="bad config"):
            run_grid(tiny_grid())


def synthetic_results(err_fn, m_values=(100, 200, 400, 800), trials=3, decoder="ls"):
    out = []
    for m in m_values:
        for t in range(trials):
            out.append(CellResult(m=m, decoder=decoder, trial=t, seed=0,
                                  l2_err=err_fn(m), cosine=1.0,
                                  per_pixel=err_fn(m), runtime_s=0.0,
                                  converged=True))
    return out


class TestFitScaling:
    def test_exact_inverse_sqrt_power_law(self):
        fit = fit_scaling(synthetic_results(lambda m: m ** -0.5), "ls")
        assert fit["slope"] == pytest.approx(-0.5, abs=1e-12)
        assert fit["r2"] == pytest.approx(1.0, abs=1e-12)

    def test_constant_errors_have_zero_slope(self):
        fit = fit_scaling(synthetic_results(lambda m: 0.25), "ls")
        assert fit["slope"] == pytest.approx(0.0, abs=1e-12)

    def test_requires_three_usable_points(self):
        with pytest.raises(ValueError):
            fit_scaling(synthetic_results(lambda m: m ** -0.5, m_values=(100, 200)), "ls")

    def test_requires_three_trials(self):
        with pytest.raises(ValueError):
            fit_scaling(synthetic_results(lambda m: m ** -0.5, trials=2), "ls")

    def test_filters_other_decoders(self):
        rows = synthetic_results(lambda m: m ** -0.5)
        rows += synthetic_results(lambda m: 1.0, decoder="biht")
        assert fit_scaling(rows, "ls")["slope"] == pytest.approx(-0.5, abs=1e-12)


class TestFlipReport:
    def test_identical_inputs_give_unit_ratios(self):
        rows = synthetic_results(lambda m: m ** -0.5)
        rep = flip_robustness_report(rows, rows)
        assert all(r["ratio"] == pytest.approx(1.0) for r in rep["rows"])

    def test_mismatched_grids_rejected(self):
        a = synthetic_results(lambda m: 1.0, m_values=(100, 200, 400))
        b = synthetic_results(lambda m: 1.0, m_values=(100, 200, 800))
        with pytest.raises(ValueError):
            flip_robustness_report(a, b)

    def test_ls_vs_biht_flags(self):
        base = synthetic_results(lambda m: 1.0) + \
            synthetic_results(lambda m: 1.0, decoder="biht")
        flip = synthetic_results(lambda m: 1.1) + \
            synthetic_results(lambda m: 1.5, decoder="biht")
        rep = flip_robustness_report(base, flip)
        assert rep["ls_better_fraction"] == 1.0


class TestCsvFormat:
    @pytest.mark.parametrize("value", ["True", "yes", "1", ""])
    def test_converged_must_be_true_or_false(self, tmp_path, value):
        # anything but "true" used to read as False and drop the row from fit_scaling
        path = tmp_path / "r.csv"
        path.write_text(f"{CSV_HEADER}\n10,ls,0,1,0.5,0.9,0.1,0,false\n"
                        f"10,ls,1,2,0.5,0.9,0.1,0,{value}\n")
        with pytest.raises(ValueError, match=rf"r\.csv:3: converged must be true or false"):
            read_csv(path)

    def test_seventeen_digit_floats(self, tmp_path):
        rows = [CellResult(m=10, decoder="ls", trial=0, seed=1,
                           l2_err=1 / 3, cosine=2 / 3, per_pixel=1 / 30,
                           runtime_s=0.0, converged=True)]
        path = tmp_path / "x.csv"
        write_csv(rows, path)
        line = path.read_text().splitlines()[1]
        assert "0.33333333333333331" in line
        assert line.endswith("true")
