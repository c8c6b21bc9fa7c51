"""The per-layer metrics: which calls the traced run wraps, and how their
spans become the numbers listed under `per_layer` in BENCHMARK.json.

The layers are the gaudinrsk modules. Import this module only after the
checkout's src/ directory is on sys.path.
"""

from __future__ import annotations

import statistics

import numpy

from gaudinrsk import cli, cmcells, combinatorics, crystals, liealg, spectralflow

LEGS = ("A", "B", "C", "D", "E")
# rsk calls made inside these checks are left out of the per-matrix rsk
# figures and the box count, which describe the matrices themselves
RSK_CHECKS = ("combinatorics.transpose_check", "crystals.verify_isomorphism")


def _boxes(args, kwargs, result):
    return args[0].total


def _transport_diag(args, kwargs, result):
    diag = result[1]
    return diag["leg"], diag["steps"], diag["bisections"]


def _finished(args, kwargs, result):
    return True


# (function, metric name, span info); each is wrapped wherever a gaudinrsk
# module holds it by name
FUNCTIONS = (
    (combinatorics.rsk, "combinatorics.rsk", _boxes),
    (combinatorics.rsk_inverse, "combinatorics.rsk_inverse", None),
    (combinatorics.transpose_check, "combinatorics.transpose_check", None),
    (crystals.verify_isomorphism, "crystals.verify_isomorphism", None),
    (crystals.pieri_shapes, "crystals.pieri_shapes", None),
    (liealg.weight_basis, "liealg.weight_basis", None),
    (liealg.dense, "liealg.dense", None),
    (liealg.commute_on, "liealg.commute_on", None),
    (liealg.is_adjoint_pair, "liealg.is_adjoint_pair", None),
    (spectralflow.flow_block, "spectralflow.flow_block", _finished),
    (spectralflow.transport, "spectralflow.transport", _transport_diag),
    (spectralflow._match, "spectralflow.match", None),
    (spectralflow.snap_to_monomials, "spectralflow.snap_to_monomials", None),
    (spectralflow.rayleigh, "spectralflow.rayleigh", None),
    (spectralflow.coalescence_classes, "spectralflow.coalescence_classes", None),
    (cmcells.right_cells, "cmcells.right_cells", None),
    (cmcells.left_cells, "cmcells.left_cells", None),
    (cmcells.kl_reference_cells, "cmcells.kl_reference_cells", None),
    (cli.main, "cli.main", None),
)

# (owner, attribute, metric name): methods, and the numpy solvers that
# spectralflow looks up through numpy.linalg at call time
ATTRIBUTES = (
    (liealg.Operator, "apply_monomial", "liealg.Operator.apply_monomial"),
    (liealg.Operator, "commutator", "liealg.Operator.commutator"),
    (spectralflow.BlockCache, "nabla_mat", "spectralflow.BlockCache.nabla_mat"),
    (spectralflow.BlockCache, "gaudin_mat", "spectralflow.BlockCache.gaudin_mat"),
    (spectralflow.BlockCache, "dual_nabla0_mat", "spectralflow.BlockCache.dual_nabla0_mat"),
    (spectralflow.FlowContext, "__init__", "spectralflow.FlowContext"),
    (spectralflow.FlowContext, "extract_S", "spectralflow.extract_S"),
    (spectralflow.FlowContext, "extract_T", "spectralflow.extract_T"),
    (numpy.linalg, "eigh", "spectralflow.eigh"),
    (numpy.linalg, "eigvalsh", "spectralflow.eigvalsh"),
)

SPAN_NAMES = tuple(name for _, name, _ in FUNCTIONS) + tuple(name for _, _, name in ATTRIBUTES)


def install(tracer):
    """Wrap every traced call; undo with tracer.restore()."""
    for fn, name, info in FUNCTIONS:
        tracer.patch_function(fn, name, info)
    for owner, attr, name in ATTRIBUTES:
        tracer.patch(owner, attr, name)


def _ratio(num, den):
    return num / den if den else 0.0


def _percentile(values, q):
    """The q-th percentile (0 < q < 100) by linear interpolation."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metrics(tracer):
    """Per-layer metrics of one traced pass as {name: (value, unit)}.

    `trace.overhead_s` needs untraced passes too, so the caller adds it.
    """
    out = {}
    summary = tracer.summary()
    for name in SPAN_NAMES:
        calls, total, own = summary.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.total_s"] = (total, "s")
        out[f"{name}.self_s"] = (own, "s")

    steps = dict.fromkeys(LEGS, 0)
    bisections = dict.fromkeys(LEGS, 0)
    leg_total = dict.fromkeys(LEGS, 0.0)
    rsk_us = []
    boxes = 0
    finished = attempts = 0
    for span in tracer.spans:
        if span.name == "spectralflow.transport" and span.info is not None:
            leg, leg_steps, leg_bisections = span.info
            if leg not in steps:
                raise ValueError(f"transport on unknown leg {leg!r}")
            steps[leg] += leg_steps
            bisections[leg] += leg_bisections
            leg_total[leg] += span.duration
        elif span.name == "combinatorics.rsk" and not any(
            tracer.has_ancestor(span, name) for name in RSK_CHECKS
        ):
            rsk_us.append(span.duration * 1e6)
            boxes += span.info or 0
        elif span.name == "spectralflow.flow_block" and span.info:
            finished += 1
        elif span.name == "spectralflow.FlowContext" and tracer.has_ancestor(
            span, "spectralflow.flow_block"
        ):
            attempts += 1
    for leg in LEGS:
        out[f"spectralflow.transport.{leg}.total_s"] = (leg_total[leg], "s")
        out[f"spectralflow.steps.{leg}"] = (steps[leg], "count")
        out[f"spectralflow.bisections.{leg}"] = (bisections[leg], "count")
    out["spectralflow.steps"] = (sum(steps.values()), "count")
    out["spectralflow.bisections"] = (sum(bisections.values()), "count")
    eigensolves = summary.get("spectralflow.eigh", (0,))[0]
    out["spectralflow.step_yield"] = (_ratio(sum(steps.values()), eigensolves), "ratio")
    out["spectralflow.attempt_yield"] = (_ratio(finished, attempts), "ratio")
    out["combinatorics.rsk.p50_us"] = (_percentile(rsk_us, 50), "us")
    out["combinatorics.rsk.p99_us"] = (_percentile(rsk_us, 99), "us")
    out["combinatorics.boxes"] = (boxes, "count")
    return out
