"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import bench
from samkit import SequenceSpec
from tracing import Span, arm_layer_metrics, self_times
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_smoke_at_toy_size(name, trace):
    record, spans = bench.run(name, seed=3, seconds=0, trace=trace, toy=True)
    assert record["correct"], record["check_failures"]
    assert record["failed"] == 0 and record["attempted"] > 0
    for m in SPEC["per_layer"] if trace else SPEC["end_to_end"]:
        assert record["metrics"][m["name"]]["unit"] == m["unit"]
    assert (spans is not None) == bool(trace)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    a, b, c = (WORKLOADS[name].build(seed, toy=True) for seed in (5, 5, 6))
    assert np.array_equal(a.rhs, b.rhs)
    assert all((x != y).nnz == 0 for x, y in zip(a.matrices, b.matrices))
    assert not np.array_equal(a.rhs, c.rhs)


def test_seed_zero_keeps_the_paper_inputs():
    assert np.array_equal(WORKLOADS["helmholtz-sweep"].build(0, toy=True).rhs,
                          SequenceSpec.helmholtz(4, 4, 0.01, 6).rhs)
    rhs = WORKLOADS["talbot-fem32"].build(0, toy=True).rhs
    assert np.count_nonzero(rhs) == 1 and rhs[rhs.size // 2] == 1.0


def test_raising_arm_is_counted_not_raised():
    singular = sp.csc_matrix(np.diag([1.0, 0.0, 1.0]))
    spec = SequenceSpec("singular", [singular, singular], np.zeros(2, complex), np.ones(3))
    run = bench.run_arm(spec, WORKLOADS["talbot-fem32"], "map", nproc=1)
    assert run.error is not None and run.report is None
    assert bench.failures(run, len(spec)) == 2
    assert bench.check_run(run, spec, 1e-8, deep=True) == []


def _spans():
    # harness [0, 10] holds a factor [1, 3] and a gmres [4, 9]; inside gmres a
    # matvec [4.5, 5] and two preconditioner applies overlapping on [6.5, 7]
    return [
        Span("harness", 0.0, 10.0, -1, "map", 0),
        Span("ilutp.factor", 1.0, 3.0, 0, "map", 0, {"fill": 2.0}),
        Span("gmres", 4.0, 9.0, 0, "map", 0, {"iters": 7, "restarts": 1, "converged": True}),
        Span("gmres.matvec", 4.5, 5.0, 2, "map", 0),
        Span("gmres.prec", 5.0, 7.0, 2, "map", 0),
        Span("gmres.prec", 6.5, 7.5, 2, "map", 0),
        Span("ilutp.apply", 5.5, 6.0, 4, "map", 0),
    ]


def test_self_time_arithmetic():
    spans = _spans()
    assert self_times(spans) == pytest.approx([3.0, 2.0, 2.0, 0.5, 1.5, 1.0, 0.5])


def test_layer_metrics_from_synthetic_spans():
    spans = _spans()
    m = arm_layer_metrics(spans, self_times(spans), "map")
    assert m["map.gmres.self_s"] == (pytest.approx(2.0), "s")
    assert m["map.harness.self_s"] == (pytest.approx(3.0), "s")
    assert m["map.gmres.prec.calls"] == (2, "count")
    assert m["map.gmres.prec.s"] == (pytest.approx(3.0), "s")
    assert m["map.ilutp.apply.us_per_call"] == (pytest.approx(5e5), "us")
    assert m["map.ilutp.factor.ms_p50"] == (pytest.approx(2000.0), "ms")
    assert m["map.gmres.iters"] == (7, "count")
    assert "map.sam.map.calls" not in m
