"""Benchmark of obgcs: three workloads, end-to-end metrics, and a traced run.

Run from the repository root:

    python3 bench/run.py                      # every workload, each in a fresh process
    python3 bench/run.py --workload ls_sweep --seed 3 --seconds 30 --trace 0

One process runs one workload. It sets the workload up (inputs made from
--seed, one warm-up item), then repeats its fixed work list (a pass) until
--seconds have passed, checks every item's output, and prints the metrics.
After each pass it also times a set-up in a fresh interpreter (importing
obgcs, making the inputs, running the warm-up item); setup_s is their median.
With --trace 1 it alternates untraced and traced passes and reports
per-layer metrics instead. The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The full record, and the spans of a traced run (gzipped JSON lines), go to
bench/out/.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
NPROC = len(os.sched_getaffinity(0))
# one BLAS thread: on a shared 2-vCPU box, two threads stall on each other
# whenever one vCPU is taken away, which made the timings less steady
BLAS_THREADS = 1
# The tail latency comes from the items of the last TAIL_PASSES untraced
# passes, so its sample count, and with it the percentile, does not depend on
# how many passes fit in --seconds; it is also the least number of passes.
# Each count puts the tail inside a group of like items, not at the edge
# between two groups: the middle of the m=4000 cells, of the grid calls, and
# of the theorem-generator builds. The median uses the items of every pass.
TAIL_PASSES = {"ls_sweep": 6, "small_m_cli": 10, "constructions": 7}
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("item_p50_s", "s"),
              ("item_tail_s", "s"), ("peak_mem_mb", "MB"))


def tail(values):
    """Highest percentile with at least ten values beyond it: (value, percentile)."""
    ordered = sorted(values)
    i = len(ordered) - 11
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    pkg = os.path.join(SRC, "obgcs")
    src_lines = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                src_lines += sum(1 for _ in fh)
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
            "blas_threads": BLAS_THREADS, "nproc": NPROC, "python": platform.python_version(),
            "src_lines": src_lines}


def setup_in_child(name, seed, size):
    """Seconds from starting a fresh interpreter until it has set the workload up."""
    code = (f"import sys; sys.path[:0] = [{SRC!r}, {HERE!r}]; import workloads as w; "
            f"w.WORKLOADS[{name!r}](w.SIZES[{size!r}][{name!r}], {OUT!r}).setup({seed}); "
            "print('ready', flush=True)")
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up of {name} failed in a fresh interpreter")
    return elapsed


def measure(name, seed, seconds, trace, size="full"):
    """Run one workload; returns the full result record (``result`` is the contract line)."""
    from tracing import Tracer, per_layer_names
    from workloads import SIZES, WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    wl = WORKLOADS[name](SIZES[size][name], OUT)
    state = wl.setup(seed)

    tracer = Tracer() if trace else None
    walls, traced_walls, timed_passes, checked, setups = [], [], [], [], []
    start = time.perf_counter()
    k = 0
    while k < TAIL_PASSES[name] or time.perf_counter() - start < seconds:
        if trace and k % 2:
            with tracer:
                items, dur = tracer.root(f"{name}:{seed}:{k}", lambda: wl.run(state))
            traced_walls.append(dur)
        else:
            t0 = time.perf_counter()
            items = wl.run(state)
            walls.append(time.perf_counter() - t0)
            timed_passes.append(items)
            if not trace:
                # one set-up per pass spreads them over the run, as the passes
                # are: the host's speed drifts over seconds
                setups.append(setup_in_child(name, seed, size))
        wl.check(state, items)
        checked += items
        k += 1

    failed = [it for it in checked if not it.ok]
    ls_errors = [e for it in checked for e in it.ls_errors]
    report = {"workload": name, "seed": seed, "trace": int(trace), "size": size,
              "passes": k, "env": environment(),
              "fail_frac": len(failed) / len(checked),
              "failures": sorted({f"{it.name}: {it.reason}" for it in failed})[:20],
              "pass_wall_s": walls}
    if ls_errors:
        report["ls_err_median"] = statistics.median(ls_errors)
        report["ls_decodes"] = len(ls_errors)
    correct = not failed
    if trace:
        per_pass = len(traced_walls)
        traced = statistics.mean(traced_walls)
        values = tracer.per_pass(per_pass, traced, statistics.mean(walls))
        # self times of all spans, the benchmark's own included, must add up to the wall
        self_total = sum(tracer.self_s.values()) / per_pass
        report["self_sum_s"] = self_total
        report["traced_pass_wall_s"] = traced_walls
        if abs(self_total - traced) > 1e-6 * max(traced, 1.0):
            correct = False
            report["failures"].append(f"span self times sum to {self_total} s, traced wall {traced} s")
        units = dict(per_layer_names())
        spans_path = os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl.gz")
        tracer.write(spans_path)
        report["spans"] = os.path.relpath(spans_path, ROOT)
    else:
        timed_items = [it for items in timed_passes for it in items]
        tail_window = [it.seconds for items in timed_passes[-TAIL_PASSES[name]:] for it in items]
        tail_s, tail_pct = tail(tail_window)
        values = {"setup_s": statistics.median(setups),
                  "wall_s": statistics.median(walls),
                  "item_p50_s": statistics.median(it.seconds for it in timed_items),
                  "item_tail_s": tail_s,
                  "peak_mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = dict(END_TO_END)
        report.update(item_tail_pct=tail_pct, items=len(timed_items),
                      tail_items=len(tail_window), setup_reps_s=setups)
        by_name = {}
        for it in timed_items:
            by_name.setdefault(it.name, []).append(it.seconds)
        report["item_p50_by_name_s"] = {n: statistics.median(v) for n, v in by_name.items()}
    report["result"] = {
        "correct": correct, "attempted": len(checked), "failed": len(failed),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()}}
    return report


def print_report(rep):
    res = rep["result"]
    print(f"== {rep['workload']} seed={rep['seed']} trace={rep['trace']}: {rep['passes']} passes, "
          f"{res['attempted']} items, {res['failed']} failed")
    rows = [(metric, rec["value"], rec["unit"]) for metric, rec in res["metrics"].items()]
    rows.append(("fail_frac", rep["fail_frac"], "frac"))
    if "ls_err_median" in rep:
        rows.append(("ls_err_median", rep["ls_err_median"], f"1 (over {rep['ls_decodes']} LS decodes)"))
    for metric, value, unit in rows:
        print(f"   {metric:<55} {value:>14.6g} {unit}")
    if "item_tail_pct" in rep:
        print(f"   item_p50_s is over {rep['items']} items; item_tail_s is "
              f"p{rep['item_tail_pct']:.1f} of the last {rep['tail_items']}")
    for line in rep["failures"]:
        print(f"   FAILED {line}")
    print(f"   env {json.dumps(rep['env'])}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", "ls_sweep", "small_m_cli", "constructions"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: smoke-test sizes")
    args = parser.parse_args(argv)

    if args.workload == "all":
        status = 0
        for name in ("ls_sweep", "small_m_cli", "constructions"):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--size", args.size]
            returncode = subprocess.run(cmd, check=False).returncode
            status = status or returncode
        return status

    if not os.path.isfile(os.path.join(SRC, "obgcs", "__init__.py")):
        print(f"error: no obgcs sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [SRC, HERE]
    import obgcs
    if os.path.dirname(os.path.abspath(obgcs.__file__)) != os.path.join(SRC, "obgcs"):
        print(f"error: imported obgcs from {obgcs.__file__}, not {SRC}", file=sys.stderr)
        return 2

    rep = measure(args.workload, args.seed, args.seconds, args.trace, args.size)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(rep, fh, indent=1)
    print_report(rep)
    print(json.dumps(rep["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
