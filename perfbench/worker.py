"""One workload process of the benchmark; started by run.py, not by hand.

It imports gaudinrsk from the compiled copy of the sources that run.py
put in --workdir, builds the workload inputs and prints READY: that much
is set-up. It then times the reference computation (see `Reference`)
REF_REPEATS times and prints REF and the median seconds, so that run.py
can scale the set-up time by the speed of the host at that moment. With
--setup-only it stops there. Otherwise it runs timed passes and prints one
JSON result line.

Passes run until the next one, at the mean pass time so far, would end
after --seconds, and there are always at least two. A fixed reference
computation is timed before the first task and after every task. With
--trace 1 the passes alternate untraced and traced, starting untraced;
the per-layer metrics are medians over the traced passes. Every pass must
write the same CLI report bytes as the first.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

MIN_PASSES = 2
REF_REPEATS = 5


def _import_program(src):
    sys.path.insert(0, str(src))
    import gaudinrsk

    origin = Path(gaudinrsk.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"gaudinrsk imported from {origin}, not from {src}")


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment(seed):
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "seed": seed,
    }


def _median_metrics(per_pass):
    """Per-metric median over passes of {name: (value, unit)} dicts."""
    return {
        name: (statistics.median(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }


class Reference:
    """A fixed computation that shares no code with gaudinrsk.

    Interpreted integer and dict work plus symmetric eigensolves, the two
    kinds of work the workloads do. A shared host's speed drifts by a third
    within seconds; a task's time divided by the time of this computation,
    run just before and after the task, moves with the program and much
    less with the host.
    """

    LOOPS = 300_000
    SOLVES = 6

    def __init__(self):
        import numpy

        a = numpy.random.default_rng(0).standard_normal((160, 160))
        self.matrix = a + a.T
        # bound now, so that a traced pass never wraps it
        self.eigh = numpy.linalg.eigh

    def seconds(self):
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(self.LOOPS):
            acc += i * i % 7
            table[i % 1000] = acc
        for _ in range(self.SOLVES):
            self.eigh(self.matrix)
        return time.perf_counter() - t0


def _timed_pass(workload, reference, refs):
    """Run one pass task by task, timing the reference after each task.

    refs holds the reference times so far and gains one per task. Returns
    (outcome, seconds, cost), where cost sums each task's time over the
    mean of the reference times just before and after it.
    """
    import workloads

    out = workloads.Outcome()
    seconds = cost = 0.0
    for task in workload.tasks(out):
        t0 = time.perf_counter()
        task()
        elapsed = time.perf_counter() - t0
        refs.append(reference.seconds())
        seconds += elapsed
        cost += elapsed / statistics.mean(refs[-2:])
    return out, seconds, cost


def measure(workload, seconds, trace):
    """Run the passes; returns the result dict printed by the worker."""
    import layers
    import workloads
    from tracing import Tracer

    result = {"passes": [], "traced_passes": [], "items": [], "costs": [],
              "reference": [], "attempted": 0, "inconclusive": 0,
              "per_layer": None, "error": None}
    tracer = Tracer() if trace else None
    reference = Reference()
    layer_metrics = []
    digests = None
    start = time.perf_counter()
    try:
        result["reference"].append(reference.seconds())
        while True:
            traced = trace and len(result["passes"]) > len(result["traced_passes"])
            if traced:
                tracer.reset()
                layers.install(tracer)
            try:
                outcome, elapsed, cost = _timed_pass(workload, reference, result["reference"])
            finally:
                if traced:
                    tracer.restore()
            if digests is None:
                digests = outcome.digests
            elif outcome.digests != digests:
                changed = sorted(k for k in digests if outcome.digests.get(k) != digests[k])
                raise workloads.WrongResult(f"reports differ between passes of one seed: {changed}")
            result["attempted"] += outcome.attempted
            result["inconclusive"] += outcome.inconclusive
            if traced:
                result["traced_passes"].append(elapsed)
                layer_metrics.append(layers.metrics(tracer))
            else:
                result["passes"].append(elapsed)
                result["costs"].append(cost)
                result["items"].append(outcome.items)
            done = len(result["passes"]) + len(result["traced_passes"])
            typical = (time.perf_counter() - start) / done
            if (done >= MIN_PASSES and time.perf_counter() - start + typical > seconds
                    and (not trace or result["traced_passes"])):
                break
    except Exception as err:  # the run's verdict: report it, do not crash
        traceback.print_exc()
        result["error"] = f"{type(err).__name__}: {err}"
    if layer_metrics:
        per_layer = _median_metrics(layer_metrics)
        overhead = (statistics.median(result["traced_passes"])
                    - statistics.median(result["passes"]))
        per_layer["trace.overhead_s"] = (overhead, "s")
        result["per_layer"] = per_layer
    result["digests"] = digests
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_program(Path(args.workdir) / "src")
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    print("READY", flush=True)
    reference = Reference()
    ref_s = statistics.median(reference.seconds() for _ in range(REF_REPEATS))
    print(f"REF {ref_s!r}", flush=True)
    if args.setup_only:
        return 0
    result = measure(workload, args.seconds, args.trace)
    result["env"] = _environment(args.seed)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
