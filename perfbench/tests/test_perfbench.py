"""Tests of the benchmark itself: span arithmetic, exact repetition of the
traced counts, and the gates that fail a run on a wrong or changing answer.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import layers
import run
import worker
import workloads
from gaudinrsk import cmcells, combinatorics, liealg, spectralflow
from tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    ns = types.SimpleNamespace()

    def leaf():
        clock.work(2.0)

    def failing_leaf():
        clock.work(0.25)
        raise KeyError("x")

    def middle():
        clock.work(1.0)
        ns.leaf()
        clock.work(0.5)
        ns.leaf()
        with pytest.raises(KeyError):
            ns.failing_leaf()

    def outer():
        clock.work(3.0)
        ns.middle()
        ns.leaf()

    ns.leaf, ns.failing_leaf, ns.middle, ns.outer = leaf, failing_leaf, middle, outer
    tracer = Tracer(clock)
    for name in ("leaf", "failing_leaf", "middle", "outer"):
        tracer.patch(ns, name, name)
    ns.outer()

    summary = tracer.summary()
    assert summary["leaf"] == (3, 6.0, 6.0)
    assert summary["failing_leaf"] == (1, 0.25, 0.25)
    assert summary["middle"] == (1, 5.75, 1.5)
    assert summary["outer"] == (1, 10.75, 3.0)
    for i, span in enumerate(tracer.spans):
        children = [s.duration for s in tracer.spans if s.parent == i]
        assert span.self_s == span.duration - sum(children)

    tracer.restore()
    assert ns.outer is outer and ns.leaf is leaf


def test_install_wraps_every_lookup_site_and_restores():
    originals = (liealg.dense, spectralflow.dense, liealg.Operator.apply_monomial)
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert spectralflow.dense is not originals[1]
        assert liealg.dense is not originals[0]
        assert spectralflow.dense.__wrapped__ is originals[0]
        assert liealg.Operator.apply_monomial is not originals[2]
    finally:
        tracer.restore()
    assert (liealg.dense, spectralflow.dense, liealg.Operator.apply_monomial) == originals


def _traced_pass(workload):
    tracer = Tracer()
    layers.install(tracer)
    try:
        workload.run_pass()
    finally:
        tracer.restore()
    return layers.metrics(tracer)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    workload = workloads.WORKLOADS[name](0, str(tmp_path))
    runs = [_traced_pass(workload) for _ in range(2)]
    counts = [{k: v for k, (v, unit) in m.items() if unit == "count"} for m in runs]
    assert counts[0] == counts[1]
    named = {
        "flow-blocks": ("liealg.dense.calls", "spectralflow.eigh.calls",
                        "spectralflow.steps", "spectralflow.bisections",
                        "spectralflow.FlowContext.calls"),
        "cells-s5": ("liealg.dense.calls", "spectralflow.eigh.calls"),
        "exact-identities": ("liealg.Operator.apply_monomial.calls",),
        "rsk-sweep": ("combinatorics.rsk.calls", "combinatorics.boxes"),
    }[name]
    for key in named:
        assert counts[0][key] > 0, key
    if name == "rsk-sweep":
        # the rsk calls inside transpose_check and the crystal check are
        # not per-matrix calls of the sweep
        assert counts[0]["combinatorics.boxes"] == sum(a.total for a in workload.matrices)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = layers.metrics(Tracer())
    per_layer["trace.overhead_s"] = (0.0, "s")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in per_layer.items()
    }
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)


class OneFlowBlock(workloads.FlowBlocks):
    BLOCKS = ((2, 3, (1, 1, 1)),)


def test_flow_pairing_differing_from_rsk_fails(tmp_path, monkeypatch):
    workload = OneFlowBlock(0, str(tmp_path))
    assert workload.run_pass().items == 8
    monkeypatch.setattr(spectralflow, "rsk", lambda a: combinatorics.rsk(a)[::-1])
    with pytest.raises(workloads.WrongResult, match="differs from RSK"):
        workload.run_pass()


class CellsS3(workloads.CellsS5):
    N = 3


def test_cell_partition_differing_from_reference_fails(tmp_path, monkeypatch):
    workload = CellsS3(0, str(tmp_path))
    assert workload.run_pass().items == 12

    def singletons(n, **kwargs):
        return cmcells.CellPartition(n, "right", [[w] for w in combinatorics.all_permutations(n)])

    monkeypatch.setattr(cmcells, "right_cells", singletons)
    with pytest.raises(workloads.WrongResult, match="Kazhdan-Lusztig"):
        workload.run_pass()


class OneIdentityBlock(workloads.ExactIdentities):
    CORPUS = ((2, 2, (2, 1)),)


def test_false_identity_fails(tmp_path, monkeypatch):
    workload = OneIdentityBlock(0, str(tmp_path))
    assert workload.run_pass().attempted > 0
    # E_12 and E_21 in one column do not commute
    monkeypatch.setattr(liealg, "nabla", lambda i, z, q, n: liealg.op_E(i, 3 - i, 1))
    with pytest.raises(workloads.WrongResult, match="dynamical family"):
        workload.run_pass()


def test_failed_round_trip_fails(tmp_path, monkeypatch):
    workload = workloads.RskSweep(0, str(tmp_path))
    monkeypatch.setattr(combinatorics, "rsk_inverse",
                        lambda p, q: combinatorics.NatMatrix.zero(q.alphabet_bound,
                                                                  p.alphabet_bound))
    with pytest.raises(workloads.WrongResult, match="rsk_inverse"):
        workload.run_pass()


class ChangingReports(workloads.Workload):
    def __init__(self):
        self.passes = 0

    def tasks(self, out):
        self.passes += 1
        out.attempted = out.items = 1
        out.digests["task"] = str(self.passes)
        return [lambda: None]


def test_reports_that_change_between_passes_fail():
    result = worker.measure(ChangingReports(), seconds=0.0, trace=0)
    assert "reports differ" in result["error"]


def test_run_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rsk-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
