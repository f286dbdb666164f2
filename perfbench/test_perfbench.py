"""Tests of the benchmark's own arithmetic and of BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import json
import math
import types
from pathlib import Path

import pytest

import spans
from spans import Span, Tracer, covered, descendants_of, self_times
from workloads import END_TO_END, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def test_covered_merges_overlaps_and_clips():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0)]) == pytest.approx(4.0)
    assert covered(0.0, 10.0, [(6.0, 7.0), (1.0, 2.0)]) == pytest.approx(2.0)
    assert covered(2.0, 4.0, [(0.0, 3.0), (3.5, 9.0)]) == pytest.approx(1.5)
    assert covered(2.0, 4.0, [(5.0, 6.0)]) == 0.0


def test_self_times_subtract_children_and_sum_to_root():
    tree = [
        Span("harness.run_experiment", 0.0, 10.0, -1, 1),
        Span("samplers.run", 1.0, 4.0, 0, 1),
        Span("diagnostics.ess_report", 5.0, 9.0, 0, 1),
        Span("models.log_likelihood_pointwise", 6.0, 7.0, 2, 1),
        Span("models.log_likelihood_pointwise", 7.0, 7.5, 2, 1),
    ]
    assert self_times(tree) == pytest.approx([3.0, 3.0, 2.5, 1.0, 0.5])
    assert sum(self_times(tree)) == pytest.approx(tree[0].duration)
    assert descendants_of(tree, "diagnostics.ess_report") == [False, False, True, True, True]


def test_tracer_records_nesting_and_restores_patches():
    tracer = Tracer()
    ns = types.SimpleNamespace(inner=lambda x: x + 1)
    tracer.patch(ns, "inner", lambda fn: tracer.wrap("models.inner", fn))
    outer = tracer.wrap("harness.outer", lambda x: ns.inner(x) + ns.inner(x))
    tracer.run = 7
    assert outer(1) == 4
    tracer.restore()
    assert not hasattr(ns.inner, "__wrapped__")

    run = tracer.of_run(7)
    assert [s.name for s in run] == ["harness.outer", "models.inner", "models.inner"]
    assert [s.parent for s in run] == [-1, 0, 0]
    assert all(s.start <= s.end for s in run)
    assert math.isclose(sum(self_times(run)), run[0].duration, rel_tol=1e-9)
    assert spans.call_counts(run)["models.inner"] == 2


def test_tracer_keeps_span_when_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("samplers.run", boom)()
    assert [s.name for s in tracer.spans] == ["samplers.run"]
    assert tracer.spans[0].end >= tracer.spans[0].start


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: wl.why for name, wl in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
