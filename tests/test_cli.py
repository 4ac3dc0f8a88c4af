import json
import re
from pathlib import Path

import numpy as np
import pytest

from obgcs import (ExperimentGrid, GeneratorNetwork, cli, harness, load_generator, run_grid,
                   save_generator)
from obgcs.cli import TABLES, main, parse_config


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def gen_file(tmp_path):
    cfg = write(tmp_path / "gen.cfg", "k = 3\nn = 20\nhidden_dims = 8\n")
    out = tmp_path / "g.bin"
    assert main(["synth-gen", "--config", cfg, "--seed", "5",
                 "--out", str(out), "--quiet"]) == 0
    return str(out)


class TestConfigParser:
    def test_types(self, tmp_path):
        # parse_config keeps each value's text; _settings reads it by the key's kind
        path = write(tmp_path / "c.cfg", (
            "m_values = 100, 200,\ndecoders = ls\nsigma = 1\n"
            "# comment line\ntrials = 10  # trailing comment\ngen_seed = -4\n"))
        text = parse_config(path)
        assert text == {"m_values": "100, 200,", "decoders": "ls", "sigma": "1", "trials": "10",
                        "gen_seed": "-4"}
        cfg = cli._settings(cli._build_parser().parse_args(["grid", "--config", path]))
        typed = {key: cfg[key] for key in text}
        assert typed == {"m_values": [100, 200], "decoders": ["ls"], "sigma": 1.0, "trials": 10,
                         "gen_seed": -4}
        assert type(typed["sigma"]) is float and type(typed["trials"]) is int

    def test_rejects_garbage(self, tmp_path):
        with pytest.raises(ValueError):
            parse_config(write(tmp_path / "c.cfg", "no equals sign here\n"))

    def test_key_given_twice_is_an_error(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.cfg", "k = 3\n# comment\nk = 4\n")
        with pytest.raises(ValueError, match=r"c\.cfg:3: key 'k' is given twice"):
            parse_config(cfg)
        out = tmp_path / "g.bin"
        assert main(["synth-gen", "--config", cfg, "--out", str(out), "--quiet"]) == 1
        assert "given twice" in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["grid", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_missing_config_key(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", "m = 10\n")
        assert main(["measure", "--config", cfg, "--quiet"]) == 1

    def test_missing_file(self):
        assert main(["fit", "--in", "/nonexistent.csv"]) == 1

    @pytest.mark.parametrize("command, text", [
        (["synth-gen"], None), (["measure"], None), (["decode"], None), (["grid"], None),
        (["fit"], None), (["memorize"], None),
        (["measure"], "gen = {d}\n"),
        (["decode"], "gen = {g}\nens = {d}\nobs = {d}\n"),
        (["decode"], "gen = {d}\nens = {d}\nobs = {d}\n"),
        (["grid"], "gen = {d}\n"),
        (["fit"], "in = {d}\n"),
        (["memorize"], "targets = {d}\n"),
    ])
    def test_directory_as_input_exits_1(self, tmp_path, gen_file, capsys, command, text):
        # IsADirectoryError used to escape main: only FileNotFoundError was caught
        cfg = tmp_path if text is None else write(
            tmp_path / "c.cfg", text.format(d=tmp_path, g=gen_file))
        assert main(command + ["--config", str(cfg), "--out", str(tmp_path / "o"),
                               "--quiet"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [{"a": 1}, [{"a": 1}], 0.5])
    def test_targets_not_an_array_of_numbers_exit_1(self, tmp_path, capsys, data):
        # np.asarray raised TypeError on {"a": 1}, and a bare number was one target
        tfile = tmp_path / "t.json"
        tfile.write_text(json.dumps(data))
        cfg = write(tmp_path / "m.cfg", f"targets = {tfile}\n")
        assert main(["memorize", "--config", cfg, "--out", str(tmp_path / "m.bin"),
                     "--quiet"]) == 1
        assert "must be a JSON array of numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("row, fault", [
        ("10,ls,1,2,0.5,0.9,0.1,0", "not enough values to unpack"),
        ("10,ls,1,2,abc,0.9,0.1,0,true", "could not convert string to float: 'abc'"),
        ("10.5,ls,1,2,0.5,0.9,0.1,0,true", "invalid literal for int()"),
    ], ids=["short", "bad-float", "bad-int"])
    def test_fit_names_the_malformed_row(self, tmp_path, capsys, row, fault):
        csv = tmp_path / "r.csv"
        csv.write_text(f"{harness.CSV_HEADER}\n10,ls,0,1,0.5,0.9,0.1,0,false\n{row}\n")
        assert main(["fit", "--in", str(csv)]) == 1
        err = capsys.readouterr().err
        assert f"error: {csv}:3: " in err and fault in err

    def test_calls_in_one_process_match_calls_alone(self, tmp_path, capsys):
        # the parser is built once per process; no call may see another's state
        cfg = write(tmp_path / "gen.cfg", "k = 3\nn = 12\nhidden_dims = 6\n")
        calls = [["frobnicate"], ["fit"], ["--help"],
                 ["synth-gen", "--config", cfg, "--seed", "3", "--out", str(tmp_path / "g.bin")]]

        def run(argv):
            rc = main(argv)
            out, err = capsys.readouterr()
            return rc, out, err, (tmp_path / "g.bin").read_bytes() if argv[0] == "synth-gen" else b""

        alone = []
        for argv in calls:
            cli._build_parser.cache_clear()
            alone.append(run(argv))
        cli._build_parser.cache_clear()
        assert [run(argv) for argv in calls] == alone
        assert [r[0] for r in alone] == [1, 1, 0, 0]


class TestSynthGen(object):
    def test_writes_loadable_generator(self, gen_file):
        from obgcs import load_generator
        net = load_generator(gen_file)
        assert net.layer_dims == [3, 8, 20]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write(tmp_path / "gen.cfg", "k = 3\nn = 12\nhidden_dims = 6\n")
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        assert main(["synth-gen", "--config", cfg, "--seed", "3", "--out", str(a),
                     "--quiet"]) == 0
        assert main(["synth-gen", "--config", cfg, "--seed", "3", "--out", str(b),
                     "--quiet"]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestMeasureDecode:
    def test_pipeline(self, tmp_path, gen_file, capsys):
        mcfg = write(tmp_path / "m.cfg",
                     f"gen = {gen_file}\nm = 120\nnu = 0.3\nsigma = 0.1\nq = 0.97\n")
        prefix = str(tmp_path / "meas")
        assert main(["measure", "--config", mcfg, "--seed", "9",
                     "--out", prefix, "--quiet"]) == 0
        capsys.readouterr()
        dcfg = write(tmp_path / "d.cfg", (
            f"gen = {gen_file}\nens = {prefix}.ens.bin\nobs = {prefix}.obs.bin\n"
            "decoder = ls\nrestarts = 3\nsteps = 150\n"))
        out = tmp_path / "res.json"
        assert main(["decode", "--config", dcfg, "--seed", "1",
                     "--out", str(out), "--quiet"]) == 0
        doc = json.loads(out.read_text())
        assert doc["decoder"] == "ls"
        assert len(doc["x_hat"]) == 20
        assert doc["objective"] >= 0
        assert -1 <= doc["cosine"] <= 1

    def test_ls_record_holds_the_decoder_diagnostics(self, tmp_path, gen_file):
        prefix = str(tmp_path / "meas")
        mcfg = write(tmp_path / "m.cfg", f"gen = {gen_file}\nm = 60\n")
        assert main(["measure", "--config", mcfg, "--out", prefix, "--quiet"]) == 0
        dcfg = write(tmp_path / "d.cfg", (f"gen = {gen_file}\nens = {prefix}.ens.bin\n"
                                          f"obs = {prefix}.obs.bin\nrestarts = 3\n"))
        out = tmp_path / "d.json"
        assert main(["decode", "--config", dcfg, "--out", str(out), "--quiet"]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["loss_trace"]) == doc["iterations"] + 1
        assert doc["restart_losses"][doc["restart_index"]] == doc["loss_trace"][-1]
        assert len(doc["restart_losses"]) == 3
        assert doc["grad_norm"] >= 0 and doc["step"] > 0
        assert doc["passes"] > doc["iterations"]

    def test_biht_and_pv_paths(self, tmp_path, gen_file):
        mcfg = write(tmp_path / "m.cfg", f"gen = {gen_file}\nm = 150\n")
        prefix = str(tmp_path / "meas")
        assert main(["measure", "--config", mcfg, "--seed", "2",
                     "--out", prefix, "--quiet"]) == 0
        for dec, extra in (("biht", "s = 5\n"), ("pv", "s_ell1 = 2.0\n")):
            dcfg = write(tmp_path / f"{dec}.cfg", (
                f"gen = {gen_file}\nens = {prefix}.ens.bin\n"
                f"obs = {prefix}.obs.bin\ndecoder = {dec}\n{extra}"))
            out = tmp_path / f"{dec}.json"
            assert main(["decode", "--config", dcfg, "--seed", "0",
                         "--out", str(out), "--quiet"]) == 0
            assert json.loads(out.read_text())["decoder"] == dec


class TestGridFit:
    def test_grid_writes_documented_header_and_fit_reads_it(self, tmp_path, capsys):
        gcfg = write(tmp_path / "g.cfg", (
            "k = 3\nn = 16\nhidden_dims = 8\nm_values = 40, 80, 160\n"
            "trials = 3\ndecoders = ls\nls_steps = 60\nls_restarts = 2\n"))
        csv = tmp_path / "r.csv"
        assert main(["grid", "--config", gcfg, "--seed", "7",
                     "--out", str(csv), "--quiet"]) == 0
        header = csv.read_text().splitlines()[0]
        assert header == "m,decoder,trial,seed,l2_err,cosine,per_pixel,runtime_s,converged"
        capsys.readouterr()
        assert main(["fit", "--in", str(csv), "--decoder", "ls"]) == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert set(rec) >= {"decoder", "slope", "intercept", "r2"}

    def test_grid_reruns_byte_identical(self, tmp_path):
        gcfg = write(tmp_path / "g.cfg", (
            "k = 3\nn = 16\nhidden_dims = 8\nm_values = 40, 80\n"
            "trials = 2\ndecoders = ls\nls_steps = 50\nls_restarts = 2\n"))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["grid", "--config", gcfg, "--seed", "7",
                         "--out", str(path), "--quiet"]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestValidate:
    def test_epsnet_report(self, capsys):
        assert main(["validate", "epsnet", "--seed", "3", "--k", "3"]) == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["check"] == "epsnet" and rec["pass"]

    def test_epsnet_above_k8_exits_1(self, capsys):
        assert main(["validate", "epsnet", "--k", "9"]) == 1
        assert "error: no proven epsilon-net for k=9" in capsys.readouterr().err

    def test_srec_report(self, tmp_path, capsys):
        cfg = write(tmp_path / "v.cfg", "n = 30\npairs = 2000\n")
        assert main(["validate", "srec", "--seed", "1", "--k", "3",
                     "--runs", "5", "--config", str(cfg)]) == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["check"] == "srec"
        assert rec["pass_rate"] >= 0.8

    def test_unknown_check_rejected(self):
        assert main(["validate", "nonsense"]) == 1

    @pytest.mark.parametrize("check,flags,text,keys", [
        ("jl", ["--runs", "2"], "n = 10\npoints = 10\n",
         {"m", "points", "epsilon", "runs", "pass_rate"}),
        ("meanwidth", [], "k = 2\nn = 10\nnum_gaussians = 100\n",
         {"omega_hat", "std_err", "net_size", "bound"}),
        ("concentration", ["--runs", "2", "--m", "2000"], "n = 10\n",
         {"m", "n", "bound", "runs", "pass_rate"}),
    ])
    def test_small_check_passes_with_its_documented_record(self, tmp_path, capsys, check,
                                                           flags, text, keys):
        cfg = write(tmp_path / "v.cfg", text)
        outs = []
        for _ in range(2):
            assert main(["validate", check, "--seed", "4", "--config", cfg, *flags]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        rec = json.loads(outs[0])
        assert set(rec) == {"check", "seed", "pass", *keys}
        assert rec["check"] == check and rec["seed"] == 4 and rec["pass"] is True

    @pytest.mark.parametrize("check,text,message", [
        # delta = 0 divided by zero (exit 2), -0.1 gave "math domain error",
        # 1e-320 an uncaught OverflowError from round(inf); epsilon = 0 exited 2
        ("srec", "delta = 0\n", "delta must be > 0 when m is derived from it"),
        ("srec", "delta = -0.1\n", "delta must be > 0 when m is derived from it"),
        ("srec", "delta = 1e-320\n", "m derived from delta is inf"),
        ("srec", "delta = 1e6\n", "m derived from delta is -"),
        ("jl", "epsilon = 0\n", "key 'epsilon' must be a finite number > 0, got '0'"),
        ("jl", "epsilon = -0.5\nm = 50\n", "key 'epsilon' must be a finite number > 0"),
        ("jl", "epsilon = 1e-200\n", "m derived from points and epsilon is inf"),
        ("jl", "points = 1\n", "m derived from points and epsilon is 0.0"),
    ])
    def test_bad_setting_exits_1_naming_the_key(self, tmp_path, capsys, check, text, message):
        cfg = write(tmp_path / "v.cfg", text)
        assert main(["validate", check, "--config", cfg, "--runs", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("check,text,message", [
        # each named the library's parameter or its combined condition instead:
        # gamma_scale for gamma, "0 < epsilon <= 2r" or "r > 0" for the rest
        ("meanwidth", "gamma = 0\n", "key 'gamma' must be a finite number > 0, got '0'"),
        ("meanwidth", "net_epsilon = 0\n", "key 'net_epsilon' must be a finite number > 0"),
        ("meanwidth", "net_epsilon = 5\n", "net_epsilon must be <= 2, the unit ball's diameter"),
        ("meanwidth", "num_gaussians = 1\n", "num_gaussians must be >= 2, got 1"),
        ("epsnet", "epsilon = 0\n", "key 'epsilon' must be a finite number > 0, got '0'"),
        ("epsnet", "r = 0\n", "key 'r' must be a finite number > 0, got '0'"),
        ("epsnet", "epsilon = 3\n", "epsilon must be <= 2 r, the ball's diameter, got 3.0"),
        ("epsnet", "r = 0.1\n", "got 0.5 with r = 0.1"),
    ])
    def test_bad_net_setting_exits_1_naming_the_key(self, tmp_path, capsys, check, text,
                                                    message):
        cfg = write(tmp_path / "v.cfg", text)
        assert main(["validate", check, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


class TestMemorize:
    def test_builds_and_reports(self, tmp_path, capsys):
        cfg = write(tmp_path / "m.cfg", "s = 3\nn = 4\ntau = 0.25\n")
        out = tmp_path / "mem.bin"
        assert main(["memorize", "--config", str(cfg), "--seed", "2",
                     "--out", str(out), "--quiet"]) == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["max_anchor_l2_error"] <= 0.25
        from obgcs import load_generator
        net = load_generator(str(out))
        assert net.signal_dim == 4

    def test_targets_file(self, tmp_path, capsys):
        tfile = tmp_path / "targets.json"
        tfile.write_text(json.dumps([[0.25, 0.5], [0.75, 0.125]]))
        cfg = write(tmp_path / "m.cfg", f"targets = {tfile}\ntau = 0.5\n")
        out = tmp_path / "mem.bin"
        assert main(["memorize", "--config", str(cfg), "--seed", "0",
                     "--out", str(out), "--quiet"]) == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["targets"] == [2, 2]

    def test_flat_targets_file_is_one_target(self, tmp_path, capsys):
        # [0.1, 0.5, 0.9] is one target of length 3, the same as [[0.1, 0.5, 0.9]]
        recs = []
        for name, data in (("flat", [0.1, 0.5, 0.9]), ("nested", [[0.1, 0.5, 0.9]])):
            tfile = tmp_path / f"{name}.json"
            tfile.write_text(json.dumps(data))
            cfg = write(tmp_path / f"{name}.cfg", f"targets = {tfile}\ntau = 0.25\n")
            out = tmp_path / f"{name}.bin"
            assert main(["memorize", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
            recs.append(json.loads(capsys.readouterr().out.strip()))
        flat, nested = recs
        assert flat["targets"] == nested["targets"] == [1, 3]
        assert flat["max_anchor_l2_error"] == nested["max_anchor_l2_error"] <= 0.25

    def test_str_key_keeps_text_that_looks_like_a_number(self, tmp_path, monkeypatch, capsys):
        # "7" used to be read as the integer 7, which the str key then rejected
        monkeypatch.chdir(tmp_path)
        (tmp_path / "7").write_text(json.dumps([[0.25, 0.5]]))
        cfg = write(tmp_path / "m.cfg", "targets = 7\ntau = 0.5\n")
        assert main(["memorize", "--config", cfg, "--out", "mem.bin", "--quiet"]) == 0
        assert json.loads(capsys.readouterr().out.strip())["targets"] == [1, 2]

    def test_empty_targets_file_is_a_shape_error(self, tmp_path, capsys):
        tfile = tmp_path / "empty.json"
        tfile.write_text("[]")
        cfg = write(tmp_path / "m.cfg", f"targets = {tfile}\ntau = 0.25\n")
        assert main(["memorize", "--config", str(cfg), "--out", str(tmp_path / "m.bin"),
                     "--quiet"]) == 1
        assert "not shape (1, 0)" in capsys.readouterr().err


class TestKeyTables:
    @pytest.mark.parametrize("command, text, key", [
        (["grid"], "k = 3\nn = 16\ntrials = 2.5\n", "trials"),
        (["grid"], "k = 3\nn = 16\nhidden_dim = 64\n", "hidden_dim"),
        (["decode"], "gen = g.bin\nens = e.bin\nobs = o.bin\nrestart = 1\n", "restart"),
        (["decode"], "gen = g.bin\nens = e.bin\nobs = o.bin\ndecoder = pv\ns = 5\n", "s"),
        (["synth-gen"], "k = abc\n", "k"),
        (["validate", "srec"], "runs = 0\n", "runs"),
        (["measure"], "gen = g.bin\nsigma = nan\n", "sigma"),
        (["grid"], "k = 3\nn = 16\ndecoders = biht\nbiht_iters = 0\n", "biht_iters"),
        (["grid"], "k = 3\nn = 16\nworkers = -3\n", "workers"),
        # keys no longer accepted: BIHT's step is fixed at 1/m, and a grid's LS
        # decoder runs at the default penalty
        (["decode"], "gen = g.bin\nens = e.bin\nobs = o.bin\ndecoder = biht\nstep = 0.5\n",
         "step"),
        (["grid"], "k = 3\nn = 16\nm_values = 20\ntrials = 1\nls_lambda = 0.01\n", "ls_lambda"),
        (["grid"], "k = 3\nn = 16\nm_values = 20\ntrials = 1\nbiht_step = 0.5\n", "biht_step"),
        # generators have no unit-sphere output
        (["synth-gen"], "k = 3\nunit_sphere = true\n", "unit_sphere"),
        (["grid"], "k = 3\nn = 16\nunit_sphere = false\n", "unit_sphere"),
        # BIHT runs at most 100 iterations, synthetic weights have std
        # 1/sqrt(fan_in), and the CSV's runtime_s column is always 0
        (["decode"], "gen = g.bin\nens = e.bin\nobs = o.bin\ndecoder = biht\niters = 100\n",
         "iters"),
        (["synth-gen"], "k = 3\nscale = 0.5\n", "scale"),
        (["grid"], "k = 3\nn = 16\nscale = 1\n", "scale"),
        (["grid"], "k = 3\nn = 16\nrecord_runtime = true\n", "record_runtime"),
    ])
    def test_bad_key_exits_1_naming_file_and_key(self, tmp_path, capsys, command, text, key):
        cfg = write(tmp_path / "bad.cfg", text)
        out = str(tmp_path / "out")
        assert main(command + ["--config", cfg, "--out", out, "--quiet"]) == 1
        err = capsys.readouterr().err
        assert cfg in err and repr(key) in err
        if key in ("iters", "scale", "record_runtime"):
            assert f"key {key!r} is not accepted by" in err
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("flags", [["--runs", "0"], ["--k", "0"], ["--m", "0"]])
    def test_flag_below_one_exits_1(self, capsys, flags):
        assert main(["validate", "epsnet" if flags[0] == "--k" else "srec"] + flags) == 1
        assert flags[0] in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--m", "abc"], ["--k", "2.5"], ["--runs", "true"]])
    def test_flag_read_by_its_kind(self, capsys, flags):
        assert main(["validate", "epsnet" if flags[0] == "--k" else "srec"] + flags) == 1
        assert f"{flags[0]} must be an integer >= 1, got {flags[1]!r}" in capsys.readouterr().err

    def test_str_key_keeps_text_that_looks_like_a_list(self, tmp_path, capsys):
        cfg = write(tmp_path / "d.cfg", "gen = a,b.bin\nens = e.bin\nobs = o.bin\n")
        assert main(["decode", "--config", cfg, "--out", str(tmp_path / "d.json")]) == 1
        assert "No such file or directory: 'a,b.bin'" in capsys.readouterr().err

    def test_flag_not_used_by_check_rejected(self, capsys):
        assert main(["validate", "epsnet", "--runs", "3"]) == 1
        assert "--runs" in capsys.readouterr().err

    def test_decoder_defaults_to_ls(self, tmp_path, gen_file):
        prefix = str(tmp_path / "meas")
        mcfg = write(tmp_path / "m.cfg", f"gen = {gen_file}\nm = 30\n")
        assert main(["measure", "--config", mcfg, "--out", prefix, "--quiet"]) == 0
        dcfg = write(tmp_path / "d.cfg", (f"gen = {gen_file}\nens = {prefix}.ens.bin\n"
                                          f"obs = {prefix}.obs.bin\nrestarts = 1\nsteps = 5\n"))
        out = tmp_path / "d.json"
        assert main(["decode", "--config", dcfg, "--out", str(out), "--quiet"]) == 0
        assert json.loads(out.read_text())["decoder"] == "ls"

    def test_gen_file_with_inline_generator_keys_rejected(self, tmp_path, gen_file, capsys):
        cfg = write(tmp_path / "g.cfg", f"gen = {gen_file}\nhidden_dims = 8\nm_values = 40\n")
        assert main(["grid", "--config", cfg, "--out", str(tmp_path / "r.csv"), "--quiet"]) == 1
        assert "'hidden_dims'" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_grid_rejects_bad_pv_radius_before_any_decode(self, tmp_path, capsys,
                                                          monkeypatch):
        # it used to decode the first cell's LS, then fail in PV
        calls = []
        monkeypatch.setattr(harness, "ls_decode", lambda *args: calls.append(args))
        cfg = write(tmp_path / "g.cfg", "k = 3\nn = 20\nhidden_dims = 8\nm_values = 40\n"
                                        "decoders = ls, pv\npv_s = 0\n")
        assert main(["grid", "--config", cfg, "--out", str(tmp_path / "r.csv"), "--quiet"]) == 1
        assert "pv_s" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "r.csv").exists()

    def test_grid_passes_every_key_to_experiment_grid(self, tmp_path):
        cfg = write(tmp_path / "g.cfg", (
            "k = 3\nn = 16\nhidden_dims = 8\ngen_seed = 4\n"
            "m_values = 40, 80\ntrials = 2\ndecoders = ls, biht\nls_steps = 50\n"
            "ls_restarts = 2\nbiht_s = 4\n"))
        cli_csv, api_csv = tmp_path / "cli.csv", tmp_path / "api.csv"
        assert main(["grid", "--config", cfg, "--seed", "7", "--out", str(cli_csv),
                     "--quiet"]) == 0
        run_grid(ExperimentGrid(
            generator={"k": 3, "n": 16, "hidden_dims": [8], "seed": 4},
            m_values=[40, 80], trials_per_cell=2, decoders=("ls", "biht"), base_seed=7,
            output_path=str(api_csv), ls_steps=50, ls_restarts=2, biht_s=4))
        assert cli_csv.read_bytes() == api_csv.read_bytes()

    def test_measure_on_zero_generator_exits_2_and_writes_nothing(self, tmp_path):
        gen = str(tmp_path / "zero.bin")
        save_generator(GeneratorNetwork([3, 8, 20], [np.zeros((8, 3)), np.zeros((20, 8))],
                                        [np.zeros(8), np.zeros(20)]), gen)
        mcfg = write(tmp_path / "m.cfg", f"gen = {gen}\nm = 50\n")
        assert main(["measure", "--config", mcfg, "--out", str(tmp_path / "meas"),
                     "--quiet"]) == 2
        assert not list(tmp_path.glob("meas*"))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_measure_on_overflowing_generator_exits_2_and_writes_nothing(self, tmp_path,
                                                                         capsys, seed):
        # G(z) overflows: seed 1 gave an inf norm and exited 1 with a numpy
        # RuntimeWarning, seed 2 a norm of 0.0 and exited 2
        gen = str(tmp_path / "big.bin")
        save_generator(GeneratorNetwork([2, 3, 4], [np.full((3, 2), 1e200),
                                                    np.full((4, 3), 1e200)],
                                        [np.full(3, 1e200), np.zeros(4)]), gen)
        mcfg = write(tmp_path / "m.cfg", f"gen = {gen}\nm = 20\n")
        assert main(["measure", "--config", mcfg, "--seed", str(seed), "--out",
                     str(tmp_path / "meas"), "--quiet"]) == 2
        assert "numerical failure: sampled ground truth has covariance norm" in \
            capsys.readouterr().err
        assert not list(tmp_path.glob("meas*"))

    def test_negative_seed_exits_1(self, tmp_path, gen_file, capsys):
        # it was masked to 32 bits and drew seed 2**32 - 1's ensemble
        mcfg = write(tmp_path / "m.cfg", f"gen = {gen_file}\nm = 10\n")
        assert main(["measure", "--config", mcfg, "--seed", "-1", "--out",
                     str(tmp_path / "meas"), "--quiet"]) == 1
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.glob("meas*"))

    def test_measure_on_json_text_generator_exits_1(self, tmp_path, capsys):
        # every generator file is the binary container, whatever its suffix
        gen = write(tmp_path / "g.json", '{"format": "OBGCS-GEN v1", "layer_dims": [1, 2], '
                                         '"layers": [{"weights": [[1.0], [2.0]], "bias": [0, 0]}]}\n')
        mcfg = write(tmp_path / "m.cfg", f"gen = {gen}\nm = 10\n")
        assert main(["measure", "--config", mcfg, "--out", str(tmp_path / "meas"),
                     "--quiet"]) == 1
        err = capsys.readouterr().err
        # the message shows the start of the line, not the whole one-line file
        assert "error: bad magic b'{\"format\": \"OBGCS-GEN v1\", \"laye'..." in err
        assert not list(tmp_path.glob("meas*"))

    def test_decode_with_nan_noise_level_in_ensemble_file_exits_1(self, tmp_path, gen_file,
                                                                   capsys):
        # such a file used to load, and decode exited 0 with NaN errors
        prefix = str(tmp_path / "meas")
        mcfg = write(tmp_path / "m.cfg", f"gen = {gen_file}\nm = 30\n")
        assert main(["measure", "--config", mcfg, "--out", prefix, "--quiet"]) == 0
        ens = Path(prefix + ".ens.bin")
        magic, meta, payload = ens.read_bytes().split(b"\n", 2)
        meta = json.dumps({**json.loads(meta), "sigma": float("nan")}).encode()
        ens.write_bytes(b"\n".join([magic, meta, payload]))
        dcfg = write(tmp_path / "d.cfg", (f"gen = {gen_file}\nens = {prefix}.ens.bin\n"
                                          f"obs = {prefix}.obs.bin\n"))
        capsys.readouterr()
        assert main(["decode", "--config", dcfg, "--out", str(tmp_path / "d.json"),
                     "--quiet"]) == 1
        assert "noise level must be finite" in capsys.readouterr().err

    def test_decode_with_oversized_observation_exits_1(self, tmp_path, gen_file, capsys):
        # m = 10^12 over a short payload: its 8 TB used to be read before its
        # size was checked, and decode died with a MemoryError traceback
        prefix = str(tmp_path / "meas")
        mcfg = write(tmp_path / "m.cfg", f"gen = {gen_file}\nm = 30\n")
        assert main(["measure", "--config", mcfg, "--out", prefix, "--quiet"]) == 0
        obs = Path(prefix + ".obs.bin")
        magic, meta, payload = obs.read_bytes().split(b"\n", 2)
        meta = json.dumps({**json.loads(meta), "m": 10 ** 12}).encode()
        obs.write_bytes(b"\n".join([magic, meta, payload]))
        dcfg = write(tmp_path / "d.cfg", (f"gen = {gen_file}\nens = {prefix}.ens.bin\n"
                                          f"obs = {prefix}.obs.bin\n"))
        capsys.readouterr()
        assert main(["decode", "--config", dcfg, "--out", str(tmp_path / "d.json"),
                     "--quiet"]) == 1
        assert "error: truncated file: signs expects" in capsys.readouterr().err

    @pytest.mark.parametrize("decoder", ["ls", "biht", "pv"])
    def test_decode_with_mismatched_observation_exits_1(self, tmp_path, gen_file, capsys,
                                                         decoder):
        # biht used to broadcast a 1-sign observation over 30 rows and exit 0
        for prefix, m in (("a", 30), ("b", 1)):
            mcfg = write(tmp_path / f"{prefix}.cfg", f"gen = {gen_file}\nm = {m}\n")
            assert main(["measure", "--config", mcfg, "--out", str(tmp_path / prefix),
                         "--quiet"]) == 0
        dcfg = write(tmp_path / "d.cfg", (f"gen = {gen_file}\nens = {tmp_path / 'a'}.ens.bin\n"
                                          f"obs = {tmp_path / 'b'}.obs.bin\n"
                                          f"decoder = {decoder}\n"))
        capsys.readouterr()
        assert main(["decode", "--config", dcfg, "--out", str(tmp_path / "d.json"),
                     "--quiet"]) == 1
        assert ("error: observation length does not match measurement count"
                in capsys.readouterr().err)
        assert not (tmp_path / "d.json").exists()

    def test_decode_with_overflowing_generator_exits_2(self, tmp_path, gen_file, capsys):
        prefix = str(tmp_path / "meas")
        mcfg = write(tmp_path / "m.cfg", f"gen = {gen_file}\nm = 30\n")
        assert main(["measure", "--config", mcfg, "--out", prefix, "--quiet"]) == 0
        huge = str(tmp_path / "huge.bin")
        net = load_generator(gen_file)  # its weights times 1e100: |A G(z)|^2 overflows
        save_generator(GeneratorNetwork(net.layer_dims, [1e100 * w for w in net.weights],
                                        net.biases), huge)
        capsys.readouterr()
        dcfg = write(tmp_path / "d.cfg", (f"gen = {huge}\nens = {prefix}.ens.bin\n"
                                          f"obs = {prefix}.obs.bin\n"))
        assert main(["decode", "--config", dcfg, "--out", str(tmp_path / "d.json"),
                     "--quiet"]) == 2
        assert "numerical failure: non-finite loss at restart 0" in capsys.readouterr().err

    def test_readme_lists_every_key(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        rows = {}
        for line in readme.split("\n## CLI", 1)[1].split("\n## ", 1)[0].splitlines():
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if len(cells) == 3 and cells[0].startswith("`"):
                label = " ".join(re.sub(r"[`()]", " ", cells[0]).split())
                rows[label] = set(re.findall(r"`([^`]+)`", cells[2]))
        assert rows == {label: set(table) for label, table in TABLES.items()}
