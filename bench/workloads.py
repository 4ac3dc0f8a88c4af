"""The benchmark's three workloads: inputs from a seed, one pass, output checks.

Each workload has the same shape:

* ``setup(seed)`` makes the inputs from the seed and runs one warm-up item;
* ``run(state)`` runs the fixed work list once (a pass) and returns a list
  of ``Item`` records holding each item's latency and raw output;
* ``check(state, items)`` gates every item's output; a failed gate marks the
  item failed. Checks run after the pass, so they are not part of its time.

A later pass with the same inputs must reproduce the first pass's outputs
exactly, so every check also compares against the first pass.
"""

import contextlib
import csv
import io
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace

import numpy as np

# Library calls go through the package namespace (``obgcs.run_grid``), never a
# name bound here, so that the tracer's rebinding of those names reaches them.
import obgcs
import obgcs.cli

# An LS decode passes when it converged and its cosine with x* reaches this.
# Correct decodes at the smallest m here (40, with n=100) had cosines of 0.74
# and above over 300 seeds; BIHT on the same data sits near 0.4.
LS_COS_MIN = 0.5
TOL = 1e-9


@dataclass
class Item:
    """One timed call: its latency, its output, and the verdict of its gate."""

    name: str
    seconds: float
    output: object = None
    error: str | None = None
    ok: bool = True
    reason: str = ""
    ls_errors: list = field(default_factory=list)
    argv: list | None = None

    def fail(self, reason):
        self.ok = False
        self.reason = self.reason or reason


def timed(items, name, fn, *args, keep=True, **kwargs):
    """Call fn, append its Item (holding the output if ``keep``); exceptions
    become a failed item."""
    start = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
        items.append(Item(name, time.perf_counter() - start, out if keep else None))
        return out
    except Exception as exc:  # one bad item must not end the run
        item = Item(name, time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
        item.fail(item.error)
        items.append(item)
        return None


def _seeds(seed, count):
    return [int(s) for s in np.random.SeedSequence(int(seed)).generate_state(count)]


class Workload:
    def __init__(self, size, out_dir):
        self.size = size
        self.out_dir = out_dir
        self.reference = None

    def _same_as_first(self, items, key):
        """Fail every item if this pass's key outputs differ from the first pass's."""
        if self.reference is None:
            self.reference = key
        elif key != self.reference:
            for item in items:
                item.fail("output differs from the first pass on the same inputs")


# --------------------------------------------------------------- ls_sweep

class LsSweep(Workload):
    """C1 configuration of ``run_grid``; one item is one (m, trial) cell."""

    def _grid(self, seed, **over):
        s = self.size
        grid = obgcs.ExperimentGrid(
            generator={"k": s["k"], "n": s["n"], "hidden_dims": [s["hidden"]], "seed": seed},
            m_values=list(s["m_values"]), sigma=0.1, q=0.97, nu=0.3,
            trials_per_cell=s["trials"], decoders=("ls",), base_seed=seed,
            ls_restarts=s["restarts"], ls_steps=s["steps"], workers=None)
        return replace(grid, **over) if over else grid

    def setup(self, seed):
        obgcs.run_grid(self._grid(seed, m_values=[self.size["m_values"][0]], trials_per_cell=1))
        return self._grid(seed)

    def run(self, grid):
        stamps = [time.perf_counter()]
        cells = [(m, t) for m in grid.m_values for t in range(grid.trials_per_cell)]
        try:
            results = obgcs.run_grid(grid, progress=lambda done, total: stamps.append(time.perf_counter()))
        except Exception as exc:  # the whole sweep failed: every cell counts
            items = [Item(f"m={m}", time.perf_counter() - stamps[0]) for m, _ in cells]
            for item in items:
                item.fail(f"{type(exc).__name__}: {exc}")
            return items
        # one decoder, so results sorted by (m, decoder, trial) are in cell order
        return [Item(f"m={m}", stamps[i + 1] - stamps[i], results[i])
                for i, (m, _) in enumerate(cells)]

    def check(self, grid, items):
        for item in items:
            r = item.output
            if r is None:
                continue
            if not r.converged or not r.cosine >= LS_COS_MIN:
                item.fail(f"ls cell m={r.m} trial={r.trial}: converged={r.converged} "
                          f"cosine={r.cosine:.4f} < {LS_COS_MIN}")
            item.ls_errors = [r.l2_err]
        self._same_as_first(items, [(i.output.l2_err if i.output else None) for i in items])


# ------------------------------------------------------------ small_m_cli

_CSV_HEADER = "m,decoder,trial,seed,l2_err,cosine,per_pixel,runtime_s,converged".split(",")


class SmallMCli(Workload):
    """An in-process chain of ``obgcs.cli.main`` calls in a fresh directory."""

    def _configs(self, d):
        s = self.size
        gen = os.path.join(d, "gen.bin")
        meas = os.path.join(d, "meas")
        base = f"gen = {gen}\nens = {meas}.ens.bin\nobs = {meas}.obs.bin\n"
        ls = f"restarts = {s['restarts']}\nsteps = {s['steps']}\n"
        texts = {
            "gen.cfg": f"k = {s['k']}\nn = {s['n']}\nhidden_dims = {s['hidden']}\n",
            "meas.cfg": f"gen = {gen}\nm = {s['m']}\nnu = 0.3\nsigma = 0.1\nq = 0.97\n",
            "ls.cfg": base + "decoder = ls\n" + ls,
            "lsc.cfg": base + "decoder = ls\nmode = constrained\nradius = 1.0\n" + ls,
            "biht.cfg": base + f"decoder = biht\ns = {s['biht_s']}\n",
            "pv.cfg": base + f"decoder = pv\ns_ell1 = {s['pv_s']}\n",
        }
        m_values = ", ".join(str(m) for m in s["grid_m"])
        for q in ("1.0", "0.97"):
            texts[f"grid{q}.cfg"] = (
                f"gen = {gen}\nm_values = {m_values}\ntrials = {s['trials']}\n"
                f"decoders = ls, biht, pv\nq = {q}\nnu = 0.3\nsigma = 0.1\n"
                f"ls_restarts = {s['restarts']}\nls_steps = {s['steps']}\n"
                f"biht_s = {s['biht_s']}\npv_s = {s['pv_s']}\n")
        for name, text in texts.items():
            with open(os.path.join(d, name), "w", encoding="utf-8") as fh:
                fh.write(text)

    def _calls(self, d, seed):
        s_gen, s_meas, s_dec, s_grid = _seeds(seed, 4)

        def path(name):
            return os.path.join(d, name)

        calls = [["synth-gen", "--config", path("gen.cfg"), "--seed", s_gen, "--out", path("gen.bin")],
                 ["measure", "--config", path("meas.cfg"), "--seed", s_meas, "--out", path("meas")]]
        calls += [["decode", "--config", path(f"{dec}.cfg"), "--seed", s_dec, "--out", path(f"{dec}.json")]
                  for dec in ("ls", "lsc", "biht", "pv")]
        calls += [["grid", "--config", path(f"grid{q}.cfg"), "--seed", s_grid, "--out", path(f"grid{q}.csv")]
                  for q in ("1.0", "0.97")]
        calls += [["fit", "--in", path(f"grid{q}.csv"), "--decoder", "ls", "--out", path(f"fit{q}.json")]
                  for q in ("1.0", "0.97")]
        return [[str(a) for a in c] + ["--quiet"] for c in calls]

    @staticmethod
    def _cli(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = obgcs.cli.main(argv)
        return rc, buf.getvalue()

    def _chain(self, seed, count=None):
        """Run the calls in a fresh directory; returns (directory, items)."""
        d = tempfile.mkdtemp(prefix="cli-", dir=self.out_dir)
        self._configs(d)
        items = []
        for argv in self._calls(d, seed)[:count]:
            timed(items, argv[0], self._cli, argv)
            items[-1].argv = argv
        return d, items

    def setup(self, seed):
        d, _ = self._chain(seed, count=3)  # warm-up item: one LS decode, after its inputs
        shutil.rmtree(d)
        return seed

    def run(self, seed):
        self.pass_dir, items = self._chain(seed)
        return items

    def check(self, seed, items):
        key = []
        for item in items:
            try:
                key.append(self._check_one(item))
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                item.fail(f"{item.argv[0]} output unreadable: {type(exc).__name__}: {exc}")
        shutil.rmtree(self.pass_dir)
        self._same_as_first(items, key)

    def _check_one(self, item):
        if item.error is not None:
            return None
        rc, stdout = item.output
        cmd, out = item.argv[0], item.argv[item.argv.index("--out") + 1]
        if rc != 0:
            item.fail(f"{cmd} exited {rc}")
            return None
        if cmd == "synth-gen":
            doc = json.loads(stdout)
            if doc["layer_dims"][-1] != self.size["n"] or not os.path.getsize(out):
                item.fail(f"synth-gen reported {doc['layer_dims']} or wrote an empty file")
            return doc["lipschitz_bound"]
        if cmd == "measure":
            doc = json.loads(stdout)
            if doc["m"] != self.size["m"] or not os.path.getsize(out + ".obs.bin"):
                item.fail(f"measure reported m={doc['m']} or wrote an empty file")
            return doc["flip_fraction"]
        if cmd == "fit":
            with open(out, encoding="utf-8") as fh:
                doc = json.load(fh)
            if not math.isfinite(doc["slope"]):
                item.fail("fit slope is not finite")
            return doc["slope"]
        if cmd == "grid":
            with open(out, encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
            s = self.size
            expect = len(s["grid_m"]) * 3 * s["trials"]
            if rows[0] != _CSV_HEADER or len(rows) - 1 != expect:
                item.fail(f"grid CSV has header {rows[0]} and {len(rows) - 1} rows, expected {expect}")
            for row in rows[1:]:
                rec = dict(zip(_CSV_HEADER, row))
                if rec["converged"] != "true":
                    item.fail(f"grid cell m={rec['m']} {rec['decoder']} did not converge")
                if rec["decoder"] == "ls":
                    if not float(rec["cosine"]) >= LS_COS_MIN:
                        item.fail(f"grid ls cell m={rec['m']} cosine {rec['cosine']} < {LS_COS_MIN}")
                    item.ls_errors.append(float(rec["l2_err"]))
            return rows
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        x = np.asarray(doc["x_hat"], dtype=np.float64)
        dec = os.path.basename(out)[:-5]
        s = self.size
        if dec in ("ls", "lsc"):
            if not doc["cosine"] >= LS_COS_MIN or not math.isfinite(doc["objective"]):
                item.fail(f"decode {dec}: cosine {doc['cosine']:.4f} < {LS_COS_MIN}")
            item.ls_errors = [doc["l2_err_vs_c_xstar"]]
        elif dec == "biht":
            nnz, nrm = int(np.count_nonzero(x)), float(np.linalg.norm(x))
            if nnz != s["biht_s"] or abs(nrm - 1.0) > TOL:
                item.fail(f"biht: {nnz} nonzeros (want {s['biht_s']}), norm {nrm!r}")
        elif dec == "pv":
            l1, l2 = float(np.abs(x).sum()), float(np.linalg.norm(x))
            if l1 > s["pv_s"] * (1 + TOL) or l2 > 1 + TOL:
                item.fail(f"pv: |x|_1 = {l1!r} > {s['pv_s']} or |x|_2 = {l2!r} > 1")
        return doc["x_hat"]


# ----------------------------------------------------------- constructions

class Constructions(Workload):
    """Direct calls into the theory and memorizer layers; no decoding."""

    def setup(self, seed):
        s = self.size
        rng = np.random.default_rng(seed)
        net = obgcs.synth_generator(k=s["k"], n=s["n"], hidden_dims=[4 * s["k"]], seed=seed)
        count = s["idx_w"] ** 2 * s["idx_ell"]
        state = {
            "net": net,
            "srec_m": round(5 * s["k"] * math.log(obgcs.lipschitz_upper_bound(net) / s["delta"])),
            "targets": rng.random((s["thm_s"], s["thm_n"])),
            "samples": list(zip(rng.standard_normal((count, 3)),
                                rng.integers(0, 2, (count, s["idx_ell"])))),
            "seeds": _seeds(seed, 2 + 2 * s["srec_rounds"] + s["conc_rounds"]),
        }
        self._conc_round([], state, 0)  # warm-up item
        return state

    def _conc_round(self, items, state, r):
        s = self.size
        seed = state["seeds"][2 + 2 * s["srec_rounds"] + r]
        x = np.zeros(s["conc_n"])
        x[0] = 1.0
        # ensembles are not kept: at m=1e5 each holds 16 MB
        ens = timed(items, "sample_ensemble", obgcs.sample_ensemble, s["conc_m"],
                    obgcs.CovarianceSpec.identity(s["conc_n"]), 0.1, 0.97, seed, keep=False)
        obs = timed(items, "observe", obgcs.observe, ens, x, seed, keep=False) if ens else None
        if obs is not None:
            timed(items, "concentration_diagnostics", obgcs.concentration_diagnostics, ens, obs)

    def run(self, state):
        s, seeds, items = self.size, state["seeds"], []
        eps = timed(items, "build_eps_net", obgcs.build_eps_net, s["eps_k"], 1.0, s["eps"])
        if eps is not None:  # an empty net must reach the coverage check
            timed(items, "covering_radius_sampled", eps.covering_radius_sampled, seed=seeds[0])
        timed(items, "estimate_local_mean_width", obgcs.estimate_local_mean_width, state["net"],
              np.zeros(s["k"]), 0.05, s["gaussians"], s["mw_eps"], seeds[1])
        cov = obgcs.CovarianceSpec.identity(s["n"])
        for r in range(s["srec_rounds"]):
            ens = timed(items, "sample_ensemble", obgcs.sample_ensemble, state["srec_m"], cov,
                        0.0, 1.0, seeds[2 + 2 * r], keep=False)
            if ens:
                # C6: gamma = sqrt(lambda_min)/2 with identity covariance
                timed(items, "check_srec", obgcs.check_srec, ens, state["net"], 0.5, s["delta"],
                      s["pairs"], seeds[3 + 2 * r])
        for r in range(s["conc_rounds"]):
            self._conc_round(items, state, r)
        timed(items, "build_theorem_generator", obgcs.build_theorem_generator, state["targets"],
              s["tau"])
        timed(items, "build_indexed_memorizer", obgcs.build_indexed_memorizer, state["samples"],
              s["idx_w"], s["idx_ell"])
        return items

    def check(self, state, items):
        s, key = self.size, []
        for item in items:
            out = item.output
            if item.error is not None:
                continue
            if item.name == "build_eps_net":
                key.append(len(out))
            elif item.name == "covering_radius_sampled":
                key.append(out)
                if not out <= s["eps"]:
                    item.fail(f"sampled covering radius {out!r} > epsilon {s['eps']}")
            elif item.name == "estimate_local_mean_width":
                key.append(out.omega_hat)
                if not out.omega_hat <= out.theoretical_bound:  # C7
                    item.fail(f"mean width {out.omega_hat!r} > bound {out.theoretical_bound!r}")
            elif item.name == "check_srec":
                key.append(out.min_ratio)
                if out.violations:  # C6: no violated pair at the scaled m
                    item.fail(f"S-REC: {out.violations} violated pairs")
            elif item.name == "concentration_diagnostics":  # C5 bounds
                m, n = s["conc_m"], s["conc_n"]
                key.append(out["linf_cov"])
                if not (out["linf_cov"] <= 4 * math.sqrt(math.log(n) / m)
                        and out["spec_cov"] <= 4 * (math.sqrt(n / m) + n / m)):
                    item.fail(f"concentration bound missed: {out}")
            elif item.name == "build_theorem_generator":
                arch = obgcs.architecture_summary(out.net)
                w = math.ceil(math.sqrt(s["thm_s"] * s["thm_n"] / out.ell))
                key.append(sum(a.size for a in out.net.weights))
                if not (out.width == (4 * w + 6) * s["thm_n"] == arch["max_width"]
                        and out.depth == 3 * out.ell + 2 == arch["affine_layers"]):
                    item.fail(f"theorem generator size {arch} differs from its declared size")
            elif item.name == "build_indexed_memorizer":
                arch = obgcs.architecture_summary(out.net)
                if not (out.width == 4 * s["idx_w"] + 6 == arch["max_width"]
                        and out.depth == 3 * s["idx_ell"] + 1 == arch["affine_layers"]):
                    item.fail(f"indexed memorizer size {arch} differs from its declared size")
            item.output = None
        self._same_as_first(items, key)


WORKLOADS = {"ls_sweep": LsSweep, "small_m_cli": SmallMCli, "constructions": Constructions}

SIZES = {
    "full": {
        "ls_sweep": {"k": 5, "n": 100, "hidden": 64, "m_values": (250, 1000, 4000), "trials": 3,
                     "restarts": 10, "steps": 1000},
        "small_m_cli": {"k": 5, "n": 100, "hidden": 64, "m": 80, "grid_m": (40, 60, 80, 100),
                        "trials": 3, "restarts": 10, "steps": 1000, "biht_s": 10, "pv_s": 3.0},
        "constructions": {"k": 4, "n": 50, "delta": 1e-3, "eps_k": 5, "eps": 0.6, "mw_eps": 0.5,
                          "gaussians": 2000, "srec_rounds": 10, "pairs": 10_000,
                          "conc_rounds": 10, "conc_m": 100_000, "conc_n": 20,
                          "thm_s": 20, "thm_n": 32, "tau": 0.1, "idx_w": 6, "idx_ell": 12},
    },
    "tiny": {
        "ls_sweep": {"k": 3, "n": 40, "hidden": 32, "m_values": (100, 200), "trials": 3,
                     "restarts": 10, "steps": 1000},
        "small_m_cli": {"k": 3, "n": 40, "hidden": 32, "m": 60, "grid_m": (40, 60, 80),
                        "trials": 3, "restarts": 10, "steps": 1000, "biht_s": 5, "pv_s": 2.0},
        "constructions": {"k": 2, "n": 10, "delta": 1e-3, "eps_k": 2, "eps": 0.6, "mw_eps": 0.5,
                          "gaussians": 200, "srec_rounds": 2, "pairs": 500,
                          "conc_rounds": 2, "conc_m": 5000, "conc_n": 5,
                          "thm_s": 3, "thm_n": 4, "tau": 0.25, "idx_w": 2, "idx_ell": 3},
    },
}
