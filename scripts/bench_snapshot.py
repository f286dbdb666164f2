#!/usr/bin/env python3
"""Snapshot the benchmark into one ``BENCH_<pr>.json`` at the repository root.

Runs ``perfbench/run.py --workload W --trace 0`` and ``--trace 1`` for every
workload at perfbench's default seed (0) and run length (25 s), keeps the
JSON object each run prints last, and writes them together with the git SHA
(and whether the working tree had uncommitted changes), the machine (core
count, CPU model, Python, numpy and scipy versions), the import layer
(``import_s``: the median wall time of five fresh interpreters that run
``import mcmcbench`` with one BLAS thread) and a Tier-1 suite time entered
by hand.  Beside each run, as ``trace<T>_probe_s``, it stores the
seconds taken by perfbench's ``speed_probe`` loop just before and just after
the run, a reference for the host's speed at the time.

The ``kernels`` block times the model layer in a fresh interpreter with one
BLAS thread: for each model size in ``KERNEL_CASES``, the µs per call of
``logp_and_grad``, ``space.transform``, ``log_prior`` and
``log_likelihood_pointwise`` at the model's initial u, each the minimum of
7 repeats of 3000 calls.  Its ``mm_grad_rss_mb`` is the peak resident memory
(``ru_maxrss``) of another fresh interpreter that builds the marginal
mixture at n=1000, H=4 and takes one gradient.  Its ``fit_criteria`` times
the diagnostics layer, in one more fresh interpreter, on a fixed random
log-likelihood matrix of each (N_s, n) in ``FIT_SHAPES``: ``peak_mb`` is the
``tracemalloc`` peak of one ``lpml`` then ``waic`` call above the matrix
itself, and ``us_per_pair`` the µs per ``lpml`` + ``waic`` pair, the minimum
of 5 repeats of 5 pairs.  ``kernels(src)`` measures the package under any
``src`` directory, such as a checkout of the parent commit.

With ``--against REF`` the snapshot also holds ``kernels_ab``, an A/B of
the model layer against the commit REF.  REF's ``src`` is exported with
``git archive`` into a temporary directory, and one fresh interpreter with
one BLAS thread imports both trees' ``mcmcbench``, REF's first, emptying
``sys.modules`` of the package between the two imports.  For each model in
``KERNEL_CASES`` it times ``logp_and_grad`` and ``space.transform`` at the
model's initial u in lockstep: one call of each tree at a time, the tree
that goes first alternating, ``AB_CALLS`` pairs per round and ``AB_ROUNDS``
rounds.  Each kernel records the median over the rounds of each tree's
per-round median µs per call, the rounds in which the working tree was
faster, and ``bit_equal``: whether both trees give the same bits, value and
gradient, or parameters and log-Jacobian, at the initial u and at
``AB_POINTS`` random points around it.

Compare a snapshot only with one taken on the same machine.  Evaluation
counts (``--trace 1``) are exact; timings are recorded as measured, one run
each, and a gain is claimed only from alternating parent/change pairs of
``perfbench/run.py``.  Between two snapshots, per-layer timings divided by
the probe times compare the code rather than the host's speed of the moment.

Usage:
    python scripts/bench_snapshot.py --pr N --tier1-s SECONDS [--against REF]
"""

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from run import child_env, machine  # noqa: E402
from worker import speed_probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=True).stdout.strip()


def import_seconds() -> float:
    """Median wall time of five fresh interpreters that only ``import mcmcbench``."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import mcmcbench"], cwd=ROOT, env=child_env(), check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# (label, prior, design): the model sizes the kernels block times
KERNEL_CASES = (
    ("LM-C n=100 p=4", "LM-C", {"n": 100, "p": 4}),
    ("LR-N n=100 p=16", "LR-N", {"n": 100, "p": 16}),
    ("AFT-NH n=100 p=4", "AFT-NH", {"n": 100, "p": 4}),
    ("MM n=100 H=2", "MM", {"n": 100, "H": 2}),
    ("MM n=1000 H=4", "MM", {"n": 1000, "H": 4}),
)

KERNEL_TIMES = """
import json, sys, timeit
from mcmcbench.harness import ExperimentConfig, make_dataset
from mcmcbench.models import get_model
out = {}
for label, prior, design in json.loads(sys.argv[1]):
    model = get_model(prior, make_dataset(ExperimentConfig(prior=prior, **design)), H=design.get("H"))
    u = model.initial_u()
    params = model.space.constrain(u)
    calls = {
        "logp_and_grad": lambda: model.logp_and_grad(u),
        "transform": lambda: model.space.transform(u),
        "log_prior": lambda: model.log_prior(params),
        "log_likelihood_pointwise": lambda: model.log_likelihood_pointwise(params),
    }
    out[label] = {name: min(timeit.repeat(f, number=3000, repeat=7)) / 3000 * 1e6
                  for name, f in calls.items()}
print(json.dumps(out))
"""

MM_GRAD_RSS = """
import resource
from mcmcbench.datagen import gen_mixture
from mcmcbench.models import get_model
model = get_model("MM", gen_mixture(1000, 4), H=4)
model.logp_and_grad(model.initial_u())
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""

# (N_s, n) of the log-likelihood matrices fit_criteria reduces: the mm-gibbs
# and lr-rwmh workloads' sub-seed runs
FIT_SHAPES = ((1400, 1000), (8000, 100))

FIT_CRITERIA = """
import json, sys, timeit, tracemalloc
import numpy as np
from mcmcbench.diagnostics import lpml, waic
out = {}
for ns, n in json.loads(sys.argv[1]):
    ll = np.log(np.random.default_rng(0).random((ns, n)))
    pair = lambda: (lpml(ll), waic(ll))
    tracemalloc.start()
    pair()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    out[f"{ns}x{n}"] = {"peak_mb": peak / 2**20,
                        "us_per_pair": min(timeit.repeat(pair, number=5, repeat=5)) / 5 * 1e6}
print(json.dumps(out))
"""


def kernels(src: Path = ROOT / "src") -> dict:
    """µs per call of the model kernels, the MM gradient's peak RSS and the
    fit criteria's memory and time, for the package in ``src``."""
    env = {**child_env(), "PYTHONPATH": str(src)}

    def child(*argv: str) -> str:
        return subprocess.run([sys.executable, "-c", *argv], env=env, stdout=subprocess.PIPE,
                              text=True, check=True).stdout

    return {
        "us_per_call": json.loads(child(KERNEL_TIMES, json.dumps(KERNEL_CASES))),
        "mm_grad_rss_mb": float(child(MM_GRAD_RSS)),
        "fit_criteria": json.loads(child(FIT_CRITERIA, json.dumps(FIT_SHAPES))),
    }


# kernels_ab: rounds, call pairs per round, and random points of the bit check
AB_ROUNDS, AB_CALLS, AB_POINTS = 15, 400, 200

KERNELS_AB = """
import importlib, json, statistics, sys, time
import numpy as np

def load(src):
    for name in [m for m in sys.modules if m.split(".")[0] == "mcmcbench"]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        harness = importlib.import_module("mcmcbench.harness")
        models = importlib.import_module("mcmcbench.models")
    finally:
        sys.path.remove(src)
    assert harness.__file__.startswith(src), harness.__file__
    return harness, models

def bits(x):
    if isinstance(x, dict):
        return [bits(x[k]) for k in sorted(x)]
    if isinstance(x, tuple):
        return [bits(v) for v in x]
    return np.asarray(x, dtype=float).tobytes()

cases, srcs, rounds, calls, points = json.loads(sys.argv[1])
trees = [load(src) for src in srcs]
rng = np.random.default_rng(0)
out = {}
for label, prior, design in cases:
    ms = [models.get_model(prior, harness.make_dataset(harness.ExperimentConfig(prior=prior, **design)),
                           H=design.get("H")) for harness, models in trees]
    u = ms[0].initial_u()
    us = [u] + [u + rng.standard_normal(u.size) for _ in range(points)]
    out[label] = {}
    for kernel in ("logp_and_grad", "transform"):
        fs = [m.logp_and_grad if kernel == "logp_and_grad" else m.space.transform for m in ms]
        # the transform's pullback is a closure; its output is checked through logp_and_grad
        same = all(bits(fs[0](x)[:2]) == bits(fs[1](x)[:2]) for x in us)
        per_round = ([], [])
        for r in range(rounds):
            ts = ([], [])
            for i in range(calls):
                first = (r + i) % 2
                for side in (first, 1 - first):
                    t0 = time.perf_counter()
                    fs[side](u)
                    ts[side].append(time.perf_counter() - t0)
            for side in (0, 1):
                per_round[side].append(statistics.median(ts[side]) * 1e6)
        out[label][kernel] = {
            "ref_us": statistics.median(per_round[0]),
            "change_us": statistics.median(per_round[1]),
            "rounds": rounds,
            "change_won": sum(b < a for a, b in zip(*per_round)),
            "bit_equal": same,
        }
print(json.dumps(out))
"""


def export_src(ref: str, dest: Path) -> Path:
    """Write the ``src`` tree of commit ``ref`` under ``dest`` and return its path."""
    tar = subprocess.run(["git", "archive", "--format=tar", ref, "src"], cwd=ROOT,
                         stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return dest / "src"


def kernels_ab(ref: str) -> dict:
    """The lockstep A/B of the model kernels, commit ``ref`` against the working tree."""
    with tempfile.TemporaryDirectory() as tmp:
        srcs = [str(export_src(ref, Path(tmp))), str(ROOT / "src")]
        argv = json.dumps([KERNEL_CASES, srcs, AB_ROUNDS, AB_CALLS, AB_POINTS])
        proc = subprocess.run([sys.executable, "-c", KERNELS_AB, argv], env=child_env(),
                              stdout=subprocess.PIPE, text=True, check=True)
    return {"against": git("rev-parse", ref), "cases": json.loads(proc.stdout)}


def perfbench(workload: str, trace: int) -> dict:
    """The JSON object of the last line of one ``perfbench/run.py`` run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True, help="number in the file name")
    ap.add_argument("--tier1-s", type=float, required=True,
                    help="wall time of the Tier-1 suite in seconds, measured separately")
    ap.add_argument("--against", metavar="REF",
                    help="also write kernels_ab, the model kernels A/B against commit REF")
    args = ap.parse_args()

    import_s = import_seconds()
    print("kernels", file=sys.stderr, flush=True)
    kernel_block = kernels()
    ab_block = None
    if args.against:
        print(f"kernels_ab against {args.against}", file=sys.stderr, flush=True)
        ab_block = kernels_ab(args.against)
    runs = {}
    for name in WORKLOADS:
        runs[name] = {}
        for trace in (0, 1):
            print(f"{name} trace {trace}", file=sys.stderr, flush=True)
            before = speed_probe()
            runs[name][f"trace{trace}"] = perfbench(name, trace)
            runs[name][f"trace{trace}_probe_s"] = [before, speed_probe()]
    snapshot = {
        "pr": args.pr,
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "tier1_s": args.tier1_s,
        "machine": {**machine(), "numpy": np.__version__, "scipy": scipy.__version__,
                    "import_s": import_s},
        "kernels": kernel_block,
        "runs": runs,
    }
    if ab_block is not None:
        snapshot["kernels_ab"] = ab_block
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
