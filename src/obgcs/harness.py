"""Experiment engine: seeded sweeps over measurement counts, CSV reporting,
scaling-law fits, and flip-robustness comparisons.

Cells are fully determined by (base_seed, m, trial): per-cell seeds come from
numpy's SeedSequence entropy mixing of those integers, which is stable across
platforms, so any cell can be reproduced in isolation and runs parallelize
without affecting output. Results are sorted before writing, and wall times
are written as 0 so that repeated runs are byte-identical.
"""

import contextlib
import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .decoders import (LsDecoderConfig, biht_decode, estimation_error, ls_decode,
                       pv_convex_decode)
from .errors import ObgcsError
from .generator import synth_generator
from .measurement import CovarianceSpec, observe, sample_ensemble, sample_truth
from .serialization import load_generator
from .util import as_count, derive_seed, fmt17, rng_for

CSV_HEADER = "m,decoder,trial,seed,l2_err,cosine,per_pixel,runtime_s,converged"
KNOWN_DECODERS = ("ls", "biht", "pv")


@dataclass
class ExperimentGrid:
    """Sweep specification: which decoders to run at which m, how often.
    ``generator`` is a generator file or the keyword arguments of synth_generator."""

    generator: dict | str
    m_values: list
    sigma: float = 0.1
    q: float = 0.97
    nu: float = 0.3
    trials_per_cell: int = 10
    decoders: tuple = ("ls",)
    base_seed: int = 0
    output_path: str | None = None
    ls_restarts: int = 10
    ls_steps: int = 1000
    biht_s: int = 10
    pv_s: float = 3.0
    workers: int | None = None

    def __post_init__(self):
        self.m_values = [as_count(m, "m_values entry") for m in self.m_values]
        if not self.m_values:
            raise ValueError("m_values must be nonempty positive integers")
        self.decoders = tuple(self.decoders)
        if not self.decoders or any(d not in KNOWN_DECODERS for d in self.decoders):
            raise ValueError(f"decoders must be a nonempty subset of {KNOWN_DECODERS}")
        for name in ("trials_per_cell", "ls_restarts", "ls_steps", "biht_s"):
            setattr(self, name, as_count(getattr(self, name), name))
        if self.workers is not None:
            self.workers = as_count(self.workers, "workers")
        if not self.pv_s > 0:
            raise ValueError(f"pv_s must be > 0, got {self.pv_s}")

    def make_generator(self):
        if isinstance(self.generator, str):
            return load_generator(self.generator)
        return synth_generator(**self.generator)


@dataclass
class CellResult:
    """One decoder run inside one cell of the sweep."""

    m: int
    decoder: str
    trial: int
    seed: int
    l2_err: float
    cosine: float
    per_pixel: float
    runtime_s: float
    converged: bool


def _run_cell(grid, net, cov, m, trial):
    """All requested decoders on one freshly sampled (ensemble, truth, y).

    A decoder that fails with an ObgcsError (it diverged, or a covariance
    norm it needs is not defined) or returns a zero vector, and every decoder
    of a cell whose sampled truth has a zero or non-finite covariance norm
    (nothing to recover, or the generator overflowed), gives a
    converged=False row with NaN errors.
    """
    cell_seed = derive_seed(grid.base_seed, m, trial)
    ens = sample_ensemble(m, cov, grid.sigma, grid.q, cell_seed)
    try:
        x_star = sample_truth(net, cov, rng_for(grid.base_seed, m, trial, 1))
    except ArithmeticError:  # a zero or overflowing norm
        x_star = None
    else:
        obs = observe(ens, x_star, cell_seed)

    results = []
    for name in grid.decoders:
        start = time.perf_counter()
        converged = x_star is not None
        if converged:
            try:
                err = estimation_error(_decode(grid, name, obs, ens, net, m, trial),
                                       x_star, grid.sigma, grid.q)
            except (ObgcsError, ZeroDivisionError):
                converged = False
        if not converged:
            err = {"l2_err_vs_c_xstar": math.nan, "cosine": math.nan,
                   "per_pixel": math.nan}
        elapsed = time.perf_counter() - start
        results.append(CellResult(
            m=m, decoder=name, trial=trial, seed=cell_seed,
            l2_err=err["l2_err_vs_c_xstar"], cosine=err["cosine"],
            per_pixel=err["per_pixel"], runtime_s=elapsed, converged=converged))
    return results


def _decode(grid, name, obs, ens, net, m, trial):
    if name == "ls":
        cfg = LsDecoderConfig(restarts=grid.ls_restarts, steps_per_restart=grid.ls_steps,
                              seed=derive_seed(grid.base_seed, m, trial, 2))
        return ls_decode(obs, ens, net, cfg).x_hat
    if name == "biht":
        return biht_decode(obs, ens, s=grid.biht_s)
    return pv_convex_decode(obs, ens, s_ell1=grid.pv_s)


def run_grid(grid, progress=None):
    """Run every (m, trial) cell; returns CellResults sorted by (m, decoder, trial).

    Decoder failures (any ObgcsError) and degenerate sampled truths are
    recorded as converged=False with NaN errors, never fatal. With
    ``workers`` > 1 cells run in separate processes; ordering and values do
    not depend on the worker count. Raises ValueError before any cell runs
    if BIHT is asked for with ``biht_s`` above the signal dimension.
    """
    net = grid.make_generator()
    if "biht" in grid.decoders and grid.biht_s > net.signal_dim:
        raise ValueError(f"biht_s must be <= n = {net.signal_dim}, got {grid.biht_s}")
    cov = CovarianceSpec.toeplitz(net.signal_dim, grid.nu)  # one spec: its factor is cached
    cells = [(grid, net, cov, m, trial)
             for m in grid.m_values for trial in range(grid.trials_per_cell)]
    pool, run = contextlib.nullcontext(), map
    if grid.workers is not None and grid.workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # here: it loads multiprocessing
        pool = ProcessPoolExecutor(max_workers=grid.workers)
        run = functools.partial(pool.map, chunksize=1)
    results = []
    with pool:
        for i, batch in enumerate(run(_run_cell, *zip(*cells))):
            results.extend(batch)
            if progress:
                progress(i + 1, len(cells))
    results.sort(key=lambda r: (r.m, r.decoder, r.trial))
    if grid.output_path:
        write_csv(results, grid.output_path)
    return results


def write_csv(results, path):
    """Write results under the documented header, floats at 17 significant
    digits. Runtimes are written as 0 so identical runs produce
    byte-identical files."""
    lines = [CSV_HEADER]
    for r in results:
        lines.append(",".join([
            str(r.m), r.decoder, str(r.trial), str(r.seed),
            fmt17(r.l2_err), fmt17(r.cosine), fmt17(r.per_pixel),
            "0", "true" if r.converged else "false",
        ]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path):
    """Read a results file written by write_csv."""
    out = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header}")
        for lineno, line in enumerate(fh, 2):
            if not line.strip():
                continue
            try:
                m, dec, trial, seed, l2, cos, pp, rt, conv = line.strip().split(",")
                if conv not in ("true", "false"):
                    raise ValueError(f"converged must be true or false, got {conv!r}")
                out.append(CellResult(
                    m=int(m), decoder=dec, trial=int(trial), seed=int(seed),
                    l2_err=float(l2), cosine=float(cos), per_pixel=float(pp),
                    runtime_s=float(rt), converged=conv == "true"))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return out


def _medians_by_m(results, decoder, min_trials=1):
    """Median l2 error per m over converged trials, for m with enough trials."""
    by_m = {}
    for r in results:
        if r.decoder == decoder and r.converged and math.isfinite(r.l2_err):
            by_m.setdefault(r.m, []).append(r.l2_err)
    return {m: float(np.median(v)) for m, v in by_m.items() if len(v) >= min_trials}


def fit_scaling(results, decoder):
    """Least-squares slope of log(median error) against log(m).

    Medians are per-m over converged trials; zero or negative medians are
    excluded. Needs at least 3 usable m values with at least 3 trials each.
    """
    pts = [(math.log(m), math.log(med))
           for m, med in sorted(_medians_by_m(results, decoder, min_trials=3).items())
           if med > 0]
    if len(pts) < 3:
        raise ValueError(f"need >= 3 usable m values with >= 3 trials each, got {len(pts)}")
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {"decoder": decoder, "slope": float(slope),
            "intercept": float(intercept), "r2": r2, "points": len(pts)}


def flip_robustness_report(results_noflip, results_flip):
    """Per (m, decoder) ratio of flipped to unflipped median error.

    The two result sets must cover the same (m, decoder) cells. Also flags,
    per m, whether the ls ratio is at most the biht ratio (the qualitative
    robustness comparison).
    """
    rows = []
    decoders = sorted({r.decoder for r in results_noflip})
    if decoders != sorted({r.decoder for r in results_flip}):
        raise ValueError("grids ran different decoders")
    ms = sorted({r.m for r in results_noflip})
    if ms != sorted({r.m for r in results_flip}):
        raise ValueError("grids ran different m values")
    for dec in decoders:
        base = _medians_by_m(results_noflip, dec)
        flip = _medians_by_m(results_flip, dec)
        if set(base) != set(flip) or set(base) != set(ms):
            raise ValueError(f"decoder {dec}: cells do not match between grids")
        for m in ms:
            rows.append({"m": m, "decoder": dec,
                         "median_noflip": base[m], "median_flip": flip[m],
                         "ratio": flip[m] / base[m] if base[m] > 0 else math.inf})
    report = {"rows": rows}
    if "ls" in decoders and "biht" in decoders:
        ls = {r["m"]: r["ratio"] for r in rows if r["decoder"] == "ls"}
        bi = {r["m"]: r["ratio"] for r in rows if r["decoder"] == "biht"}
        flags = {m: ls[m] <= bi[m] for m in ms}
        report["ls_ratio_le_biht"] = flags
        report["ls_better_fraction"] = sum(flags.values()) / len(flags)
    return report
