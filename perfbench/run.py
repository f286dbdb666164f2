#!/usr/bin/env python3
"""The repository's benchmark: four single-backend workloads of mcmcbench.

    python3 perfbench/run.py --workload mm-nuts --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py                 # every workload, one table

Run from the repository root.  Each workload runs in a fresh interpreter
with ``src`` on its path and one BLAS/OpenMP thread.  ``--trace 0`` measures
the end-to-end metrics with tracing off:

- ``setup_s``: a fresh interpreter that imports mcmcbench, generates the
  dataset and builds the model, median of five;
- ``wall_ref``: ``wall_s``, the wall time of one ``run_experiment`` call,
  divided by the mean time of a fixed pure-Python loop run just before
  and after each call (``wall_s`` is printed too; the speed of a shared host
  drifts too much for it to be gated);
- ``peak_rss_mb``: peak resident memory of the workload's process.

``--trace 1`` wraps each layer's public calls in spans and reports the
per-layer metrics, chain efficiency among them.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the same figures for a
reader, with the machine they were taken on and a SHA-256 of the retained
draws.  ``error_rate`` is ``failed / attempted``.  Full results and the
spans go to ``perfbench/out/``.

Without ``--workload`` it runs every workload untraced and traced
and prints one table of the end-to-end and chain-efficiency figures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import END_TO_END, PER_LAYER, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    return env


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
    }


def worker(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run worker.py; on timeout the child is killed and reaped by ``run``."""
    return subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, timeout=timeout, text=True,
    )


def setup_times(name: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import, make the data and build the model."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = worker(["--workload", name, "--seed", str(seed), "--out-dir", str(OUT), "--setup-only"], 60)
        times.append(time.perf_counter() - t0)
        proc.check_returncode()
    return times


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def dataset_mean(by_seed: dict) -> float:
    """Median per dataset of a call's timing, averaged over the run's datasets.

    The median damps bursts of machine noise; the mean over datasets
    averages how much work each dataset takes (NUTS tree depth varies by
    dataset).
    """
    if not by_seed:
        return math.nan
    return statistics.fmean(statistics.median(w) for w in by_seed.values())


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload: setup probes (untraced only), then the worker."""
    info = machine()
    setup = [] if trace else setup_times(name, seed)
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out-dir", str(OUT)]
    proc = worker(args, WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {name} exited with {proc.returncode}")
    res = json.loads(lines[-1])
    info["loadavg_end"] = list(os.getloadavg())
    res.update(workload=name, seed=seed, seconds=seconds, trace=trace, machine=info)
    if trace:
        res["values"] = res.get("metrics", {})
        units = PER_LAYER
    else:
        res["setup_s"] = setup
        res["values"] = {
            "setup_s": statistics.median(setup),
            "wall_s": dataset_mean(res["wall_by_seed"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        probe = statistics.fmean(res["probe_s"]) if res["probe_s"] else math.nan
        res["values"]["wall_ref"] = res["values"]["wall_s"] / probe
        units = END_TO_END
    # A metric that could not be measured is null, which keeps the line valid JSON.
    values = {
        k: v if isinstance(v, (int, float)) and math.isfinite(v) else None
        for k, v in res["values"].items()
    }
    res["correct"] = (
        res["failed"] == 0
        and not res.get("checks")
        and all(values.get(k) is not None for k in units)
    )
    res["metrics"] = {k: {"value": values.get(k), "unit": u} for k, u in units.items()}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(res, indent=1))
    return res


def describe(res: dict) -> list[str]:
    """Readable lines for one result; the JSON line follows them."""
    wl = WORKLOADS[res["workload"]]
    m, v = res["machine"], res["values"]
    lines = [
        f"machine: nproc={m['nproc']} usable={m['usable_cpus']} cpu={m['cpu_model']!r} "
        f"python={m['python']} numpy={res['versions']['numpy']} scipy={res['versions']['scipy']} "
        f"loadavg={m['loadavg']} -> {m['loadavg_end']}",
        f"workload {wl.name} seed {res['seed']} trace {res['trace']}: {wl.backend} on "
        f"{wl.grid}, {wl.n_iter} iterations ({wl.n_burn} burn-in, thin {wl.n_thin}), "
        f"sub-seeds {wl.seeds(res['seed'])}",
    ]
    if res["trace"]:
        for k, u in PER_LAYER.items():
            lines.append(f"  {k:32s} {v.get(k)!s:>24} {u}")
        for k, share in sorted(res.get("shares", {}).items()):
            lines.append(f"  share {k:26s} {share:.4f}")
    else:
        walls = res["wall_s"]
        lo, hi = quartiles(walls) if walls else (math.nan, math.nan)
        lines += [
            f"  setup_s      {v['setup_s']:.4f} s    median of {len(res['setup_s'])}",
            f"  wall_s       {v['wall_s']:.4f} s    per-dataset medians averaged over "
            f"{len(res['wall_by_seed'])} datasets, {len(walls)} calls, call quartiles {lo:.4f}-{hi:.4f}",
            f"  wall_ref     {v['wall_ref']:.4f}      wall_s / mean speed-probe time "
            f"({1000 * v['wall_s'] / v['wall_ref']:.2f} ms, {len(res['probe_s'])} probes)",
            f"  it_per_s     {statistics.median(res['it_per_s']):.2f} 1/s  median of {len(res['it_per_s'])} calls"
            if res["it_per_s"] else "  it_per_s     nan",
            f"  peak_rss_mb  {v['peak_rss_mb']:.1f} MB",
        ]
        if res["mean_E"]:
            lines.append(
                f"  mean_E       {statistics.fmean(res['mean_E'].values()):.4f}      "
                f"mean over {len(res['mean_E'])} sub-seeds"
            )
        if res["ess_per_s"]:
            lines.append(f"  ess_per_s    {statistics.median(res['ess_per_s']):.2f} 1/s  median")
    lines.append(
        f"  error_rate   {res['failed'] / max(res['attempted'], 1):.4f}    "
        f"{res['failed']} failed of {res['attempted']} calls"
    )
    lines += [f"  error: {e}" for e in res["errors"] + res.get("checks", [])]
    lines.append(f"  draws sha256 {res['digest']}  per sub-seed {res['seed_digests']}")
    return lines


def summary(seed: int, seconds: float) -> int:
    """Every workload untraced and traced; one table of the seven headline figures."""
    rows = []
    for name in WORKLOADS:
        plain = run_workload(name, seed, seconds, 0)
        traced = run_workload(name, seed, seconds, 1)
        for res in (plain, traced):
            print("\n".join(describe(res)), flush=True)
        tv = traced["values"]
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        rows.append([
            name,
            f"{plain['values']['setup_s']:.3f}",
            f"{plain['values']['wall_ref']:.2f}",
            f"{plain['values']['wall_s']:.3f} (n={len(plain['wall_s'])})",
            f"{statistics.median(plain['ess_per_s']):.2f}" if plain["ess_per_s"] else "nan",
            f"{statistics.fmean(plain['mean_E'].values()):.3f}" if plain["mean_E"] else "nan",
            f"{tv.get('samplers.evals_per_ess', math.nan):.1f}",
            f"{plain['values']['peak_rss_mb']:.1f}",
            f"{failed / max(attempted, 1):.3f}",
            "yes" if plain["correct"] and traced["correct"] else "NO",
        ])
    head = ["workload", "setup_s", "wall_ref", "wall_s", "ess_per_s", "mean_E", "evals_per_ess",
            "peak_rss_mb", "error_rate", "correct"]
    widths = [max(len(r[i]) for r in rows + [head]) for i in range(len(head))]
    for r in [head] + rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return 0 if all(r[-1] == "yes" for r in rows) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mcmcbench" / "__init__.py").is_file():
        print(f"no mcmcbench sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload is None:
        return summary(args.seed, args.seconds)
    res = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(describe(res)))
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
