"""Command-line interface.

Subcommands: synth-gen, measure, decode, grid, fit, validate, memorize.
Every subcommand accepts --seed, --config <file>, --out <path>, and --quiet.
Configs are flat key=value text files ('#' starts a comment). ``TABLES``
names every key each subcommand accepts (per decoder for decode, per check
for validate) with its kind, and a value's text is read by that kind alone;
a key outside the table or text its kind cannot read is a usage error.
Exit codes: 0 success, 1 usage or input error, 2 numerical failure.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import harness, memorizer, theory
from .decoders import LsDecoderConfig, biht_decode, estimation_error, ls_decode, pv_convex_decode
from .errors import ObgcsError
from .generator import forward_batch, lipschitz_upper_bound, synth_generator
from .measurement import CovarianceSpec, observe, sample_ensemble, sample_truth
from .serialization import (load_ensemble, load_generator, load_observation,
                            save_ensemble, save_generator, save_observation)
from .util import derive_seed, dumps17, rng_for

_REQUIRED = object()

# key: (kind,) or (kind, default), a default only where the callee has none:
# a key the config does not set is not passed on, so the callee's applies.
_GEN = {"k": ("count", 5), "n": ("count", 100), "hidden_dims": ("counts",)}
_FILES = {"gen": ("str", _REQUIRED), "ens": ("str", _REQUIRED), "obs": ("str", _REQUIRED),
          "decoder": ("str",)}
_LS = {"mode": ("str",), "lambda": ("float",), "radius": ("float",), "restarts": ("count",),
       "steps": ("count",)}
_BIHT = {"s": ("count", 10)}
_PV = {"s_ell1": ("float", 3.0)}
_SWEEP = {"m_values": ("counts", [100, 200, 300]), "trials": ("count",), "decoders": ("strs",),
          "sigma": ("float",), "q": ("float",), "nu": ("float",), "ls_restarts": ("count",),
          "ls_steps": ("count",), "biht_s": ("count",), "pv_s": ("float",),
          "workers": ("count",)}
TABLES = {
    "synth-gen": _GEN,
    "measure": {"gen": ("str", _REQUIRED), "m": ("count", 100), "nu": ("float", 0.3),
                "sigma": ("float", 0.1), "q": ("float", 0.97)},
    "decode ls": {**_FILES, **_LS},
    "decode biht": {**_FILES, **_BIHT},
    "decode pv": {**_FILES, **_PV},
    "grid": {"gen": ("str",), **_GEN, "gen_seed": ("int",), **_SWEEP},
    "fit": {"in": ("str", _REQUIRED), "decoder": ("str", "ls")},
    "validate srec": {"k": ("count", 4), "n": ("count", 50), "m": ("count",),
                      "runs": ("count", 20), "delta": ("float", 0.1), "pairs": ("count", 10_000)},
    "validate jl": {"n": ("count", 50), "m": ("count",), "runs": ("count", 20),
                    "points": ("count", 40), "epsilon": ("positive", 0.5), "nu": ("float", 0.3)},
    "validate meanwidth": {"k": ("count", 4), "n": ("count", 50), "gamma": ("positive", 0.05),
                           "num_gaussians": ("count", 2000), "net_epsilon": ("positive", 0.5)},
    "validate concentration": {"n": ("count", 20), "m": ("count", 100_000), "runs": ("count", 20)},
    "validate epsnet": {"k": ("count", 4), "r": ("positive", 1.0), "epsilon": ("positive", 0.5)},
    "memorize": {"targets": ("str",), "s": ("count", 5), "n": ("count", 8),
                 "tau": ("float", 0.25), "k": ("count",)},
}
# a file key and the keys it replaces; setting both is a usage error
_ALTERNATIVES = {"grid": ("gen", (*_GEN, "gen_seed")), "memorize": ("targets", ("s", "n"))}

# kind: (read the text, accept what was read, what the text must be)
_KINDS = {"int": (int, lambda v: True, "an integer"),
          "count": (int, lambda v: v >= 1, "an integer >= 1"),
          "float": (float, math.isfinite, "a finite number"),
          "positive": (float, lambda v: 0 < v < math.inf, "a finite number > 0"),
          "str": (str, lambda v: True, "a string")}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def parse_config(path):
    """Flat key=value config file, as {key: the value's text}."""
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key in cfg:
                raise ValueError(f"{path}:{lineno}: key {key!r} is given twice")
            cfg[key] = val
    return cfg


def _typed(text, kind, name):
    """``text`` read as ``kind``; "counts"/"strs" split it on commas, skipping empty items."""
    if kind.endswith("s"):
        items = (item.strip() for item in text.split(","))
        return [_typed(item, kind[:-1], name) for item in items if item]
    read, ok, desc = _KINDS[kind]
    try:
        value = read(text)
        if ok(value):
            return value
    except ValueError:
        pass
    raise _UsageError(f"{name} must be {desc}, got {text!r}")


def _settings(args):
    """The config's keys and the flags given, checked against the table of
    this subcommand; the table's defaults fill in what neither sets."""
    given = parse_config(args.config) if args.config else {}
    label = args.command
    if label == "validate":
        label += " " + args.check
    elif label == "decode":
        label += " " + given.setdefault("decoder", "ls")
        if label not in TABLES:
            raise _UsageError(f"unknown decoder {given['decoder']!r}")
    table = TABLES[label]
    name = {key: f"{args.config}: key {key!r}" for key in given}
    for key in args.flags:
        if getattr(args, key) is not None:
            given[key], name[key] = getattr(args, key), f"--{key}"
    for key in given:
        if key not in table:
            raise _UsageError(f"{name[key]} is not accepted by {label} "
                              f"(accepted: {', '.join(table)})")
    given = {key: _typed(text, table[key][0], name[key]) for key, text in given.items()}
    file_key, replaced = _ALTERNATIVES.get(label, (None, ()))
    clash = [key for key in replaced if key in given]
    if file_key in given and clash:
        raise _UsageError(f"{name[clash[0]]} cannot be set together with {file_key}")
    cfg = {key: spec[1] for key, spec in table.items() if len(spec) > 1}
    cfg.update(given)
    for key, value in cfg.items():
        if value is _REQUIRED:
            raise _UsageError(f"{label} needs {key} = <file>")
    return cfg


def _passed(cfg, keys, rename=None):
    """The entries of ``cfg`` among ``keys``, under the callee's parameter names."""
    return {(rename or {}).get(key, key): cfg[key] for key in keys if key in cfg}


def _emit(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _progress(args):
    if args.quiet:
        return None
    return lambda done, total: print(f"\r{done}/{total} cells", end="", file=sys.stderr,
                                     flush=True)


def _note(args, msg):
    if not args.quiet:
        print(msg, file=sys.stderr)


# ------------------------------------------------------------- subcommands

def _cmd_synth_gen(args, cfg):
    net = synth_generator(seed=args.seed, **cfg)
    out = args.out or "generator.bin"
    save_generator(net, out)
    _note(args, f"wrote generator {net.layer_dims} to {out}")
    print(dumps17({"layer_dims": net.layer_dims, "path": out,
                   "lipschitz_bound": lipschitz_upper_bound(net)}))
    return 0


def _cmd_measure(args, cfg):
    net = load_generator(cfg["gen"])
    cov = CovarianceSpec.toeplitz(net.signal_dim, cfg["nu"])
    ens = sample_ensemble(cfg["m"], cov, cfg["sigma"], cfg["q"], args.seed)
    obs = observe(ens, sample_truth(net, cov, rng_for(args.seed, 1)), args.seed)
    prefix = args.out or "measurement"
    save_ensemble(ens, prefix + ".ens.bin")
    save_observation(obs, prefix + ".obs.bin")
    _note(args, f"wrote {prefix}.ens.bin and {prefix}.obs.bin")
    print(dumps17({"m": cfg["m"], "n": net.signal_dim,
                   "flip_fraction": float(np.mean(obs.eta < 0)),
                   "ens": prefix + ".ens.bin", "obs": prefix + ".obs.bin"}))
    return 0


def _cmd_decode(args, cfg):
    net = load_generator(cfg["gen"])
    ens = load_ensemble(cfg["ens"])
    obs = load_observation(cfg["obs"])
    which = cfg["decoder"]
    extra = {}
    if which == "ls":
        res = ls_decode(obs, ens, net, LsDecoderConfig(seed=args.seed, **_passed(
            cfg, _LS, {"lambda": "lam", "steps": "steps_per_restart"})))
        x_hat = res.x_hat
        extra = {"objective": res.objective, "restart_index": res.restart_index,
                 "iterations": res.iterations, "loss_trace": res.loss_trace,
                 "grad_norm": res.grad_norm, "step": res.step,
                 "restart_losses": res.restart_losses, "passes": res.passes,
                 "z_hat": res.z_hat.tolist()}
    elif which == "biht":
        x_hat = biht_decode(obs, ens, **_passed(cfg, _BIHT))
    else:
        x_hat = pv_convex_decode(obs, ens, **_passed(cfg, _PV))
    err = estimation_error(x_hat, obs.x_star, ens.sigma, ens.q)
    _emit(args, dumps17({"decoder": which, "x_hat": x_hat.tolist(), **err, **extra}))
    return 0


def _cmd_grid(args, cfg):
    gen = cfg["gen"] if "gen" in cfg else _passed(cfg, (*_GEN, "gen_seed"), {"gen_seed": "seed"})
    grid = harness.ExperimentGrid(
        generator=gen, base_seed=args.seed, output_path=args.out or "grid.csv",
        **_passed(cfg, _SWEEP, {"trials": "trials_per_cell"}))
    results = harness.run_grid(grid, progress=_progress(args))
    _note(args, f"\nwrote {len(results)} rows to {grid.output_path}")
    return 0


def _cmd_fit(args, cfg):
    _emit(args, dumps17(harness.fit_scaling(harness.read_csv(cfg["in"]), cfg["decoder"])))
    return 0


def _derived_m(value, rounding, source):
    """``rounding(value)``, an m worked out from ``source``, which must be a count."""
    if not (math.isfinite(value) and rounding(value) >= 1):
        raise _UsageError(f"m derived from {source} is {value}, not a count >= 1")
    return rounding(value)


def _cmd_validate(args, cfg):
    check, seed = args.check, args.seed
    record = {"check": check, "seed": seed}
    if check == "srec":
        k, delta, pairs = cfg["k"], cfg["delta"], cfg["pairs"]
        net = synth_generator(k=k, n=cfg["n"], hidden_dims=[4 * k], seed=0)
        if "m" not in cfg and not delta > 0:
            raise _UsageError(f"delta must be > 0 when m is derived from it, got {delta}")
        m = cfg.get("m") or _derived_m(
            5 * k * math.log(lipschitz_upper_bound(net) / delta), round, "delta")
        cov = CovarianceSpec.identity(cfg["n"])
        gamma = 0.5  # sqrt(lambda_min(I)) / 2
        ok = [theory.check_srec(sample_ensemble(m, cov, 0.0, 1.0, derive_seed(seed, run)), net,
                                gamma, delta, pairs, derive_seed(seed, run, 1)).violations == 0
              for run in range(cfg["runs"])]
        record.update(m=m, k=k, gamma=gamma, delta=delta, pairs=pairs)
        need = 0.95
    elif check == "jl":
        size, epsilon, n = cfg["points"], cfg["epsilon"], cfg["n"]
        m = cfg.get("m") or _derived_m(8 * math.log(size) / epsilon / epsilon, math.ceil,
                                       "points and epsilon")
        cov = CovarianceSpec.toeplitz(n, cfg["nu"])
        ok = [theory.check_jl(sample_ensemble(m, cov, 0.0, 1.0, derive_seed(seed, run, 1)),
                              rng_for(seed, run).standard_normal((size, n)), epsilon)["pass"]
              for run in range(cfg["runs"])]
        record.update(m=m, points=size, epsilon=epsilon)
        need = 0.9
    elif check == "meanwidth":
        k = cfg["k"]
        if cfg["net_epsilon"] > 2:
            raise _UsageError(f"net_epsilon must be <= 2, the unit ball's diameter, "
                              f"got {cfg['net_epsilon']}")
        net = synth_generator(k=k, n=cfg["n"], hidden_dims=[4 * k], seed=0)
        est = theory.estimate_local_mean_width(net, np.zeros(k), cfg["gamma"],
                                               cfg["num_gaussians"], cfg["net_epsilon"], seed)
        record.update({"omega_hat": est.omega_hat, "std_err": est.std_err,
                       "net_size": est.net_size, "bound": est.theoretical_bound,
                       "pass": est.omega_hat <= est.theoretical_bound})
    elif check == "concentration":
        n, m = cfg["n"], cfg["m"]
        bound = 4 * math.sqrt(math.log(n) / m)
        ok = []
        for run in range(cfg["runs"]):
            ens = sample_ensemble(m, CovarianceSpec.identity(n), 0.1, 0.97, derive_seed(seed, run))
            obs = observe(ens, np.eye(n)[0], derive_seed(seed, run, 1))
            ok.append(theory.concentration_diagnostics(ens, obs)["linf_cov"] <= bound)
        record.update(m=m, n=n, bound=bound)
        need = 0.95
    else:
        if cfg["epsilon"] > 2 * cfg["r"]:
            raise _UsageError(f"epsilon must be <= 2 r, the ball's diameter, "
                              f"got {cfg['epsilon']} with r = {cfg['r']}")
        net = theory.build_eps_net(cfg["k"], cfg["r"], cfg["epsilon"])
        cover = net.covering_radius_sampled(seed=seed)
        record.update({"k": cfg["k"], "r": cfg["r"], "epsilon": cfg["epsilon"], "count": len(net),
                       "sampled_covering_radius": cover, "pass": cover <= cfg["epsilon"]})
    if "runs" in cfg:
        rate = sum(ok) / cfg["runs"]
        record.update({"runs": cfg["runs"], "pass_rate": rate, "pass": rate >= need})
    _emit(args, dumps17(record))
    return 0 if record["pass"] else 2


def _cmd_memorize(args, cfg):
    if "targets" in cfg:
        with open(cfg["targets"], encoding="utf-8") as fh:
            data = json.load(fh)
        try:  # a JSON object, or one inside the array, is no number
            if not isinstance(data, list):
                raise TypeError
            targets = np.atleast_2d(np.asarray(data, dtype=np.float64))
        except TypeError:
            raise ValueError(f"{cfg['targets']}: targets must be a JSON array of numbers") from None
    else:
        targets = rng_for(args.seed, 7).random((cfg["s"], cfg["n"]))
    mem = memorizer.build_theorem_generator(targets, cfg["tau"],
                                            **_passed(cfg, ("k",), {"k": "latent_dim"}))
    out = args.out or "memorizer.bin"
    save_generator(mem.net, out)
    worst = max(float(np.linalg.norm(x - t))
                for x, t in zip(forward_batch(mem.net, mem.anchors.T).T, targets))
    print(dumps17({"path": out, "ell": mem.ell, "width": mem.width, "depth": mem.depth,
                   "tau": cfg["tau"], "max_anchor_l2_error": worst,
                   "targets": list(targets.shape)}))
    return 0


# ------------------------------------------------------------------ plumbing

@functools.cache  # parsing leaves the tree as it was, so one per process serves every call
def _build_parser():
    parser = _Parser(prog="obgcs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--quiet", action="store_true")

    for name, fn, flags in (
        ("synth-gen", _cmd_synth_gen, ()),
        ("measure", _cmd_measure, ()),
        ("decode", _cmd_decode, ()),
        ("grid", _cmd_grid, ()),
        ("fit", _cmd_fit, ("in", "decoder")),
        ("validate", _cmd_validate, ("m", "k", "runs")),
        ("memorize", _cmd_memorize, ()),
    ):
        p = sub.add_parser(name)
        common(p)
        if name == "validate":
            p.add_argument("check", choices=[key[9:] for key in TABLES if key[:9] == "validate "])
        for flag in flags:  # read by the table's kind, as a config key is
            p.add_argument(f"--{flag}", dest=flag, default=None)
        p.set_defaults(func=fn, flags=flags)
    return parser


# OSError: a path that cannot be opened (missing, a directory, no permission)
_USAGE_ERRORS = (_UsageError, ValueError, KeyError, OSError)
# every ValueError is caught above; ArithmeticError: a zero or overflowing norm
_NUMERIC_ERRORS = (ArithmeticError, ObgcsError)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args, _settings(args))
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
