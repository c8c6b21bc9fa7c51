"""The gaudinrsk benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports gaudinrsk from ./src. The
workloads are listed, with the reason for each, in BENCHMARK.json.

Each invocation copies the program's sources into a scratch directory
under .perfbench-work/ in the checkout and compiles them there, so that
every set-up loads the same fresh bytecode whatever the state of
src/**/__pycache__. It then starts fresh single-threaded worker processes
that import the program from that copy: first SETUP_PROBES that only set
up, then one that sets up and runs the timed passes, so that set-up time
and peak memory belong to this workload. With
--trace 0 it prints the end-to-end metrics; with --trace 1 it prints the
per-layer metrics of the traced passes and the tracing overhead. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.

Pass times are reported twice. wall_s and items_per_s are seconds as
measured. wall_ref and items_per_ref, the gated metrics, divide the time
of each task of a pass by the time of a fixed reference computation run
just before and after the task in the same process (worker.Reference), so
that they follow the program and not the speed of a shared host, which
drifts by a third within seconds. A ref is the time that computation
takes. setup_s is scaled the same way: each set-up's seconds over the
reference seconds timed right after it in the same worker, times
NOMINAL_REF_S, i.e. the set-up time on a host where the reference takes
NOMINAL_REF_S seconds. The unscaled median is printed as setup_raw_s.

attempted counts the tasks of all untraced and traced passes (one flow or
cells CLI run, one exact identity, one matrix or crystal check); failed
counts those that ended inconclusive (exit 2). The exit code is 0 when
every output was right and every report repeated byte for byte, 1 when
not, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# scratch directories of runs; each run removes its own
WORK_ROOT = ROOT / ".perfbench-work"
WORKLOADS = ("flow-blocks", "cells-s5", "exact-identities", "rsk-sweep")
SETUP_PROBES = 4
# seconds the reference computation takes on a 2-core x86-64 cloud VM; the
# scale of setup_s
NOMINAL_REF_S = 0.07
# workers still running this many seconds beyond --seconds are killed, so
# that a hung run ends within three minutes
GRACE_S = 150
SINGLE_THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # workers write no bytecode anywhere; the program's own is compiled
    # beforehand into the scratch copy
    "PYTHONDONTWRITEBYTECODE": "1",
}


class BenchError(Exception):
    """The benchmark itself could not run."""


def _git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _source_digest():
    """sha256 over the program's sources; names the code where git cannot."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _compiled_copy(workdir):
    """Copy src/ into workdir without bytecode, then compile the copy."""
    src = Path(workdir) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if not compileall.compile_dir(str(src), quiet=1):
        raise BenchError("the program's sources do not compile")


def _spawn(args, workdir, setup_only, deadline):
    """Run one worker.

    Returns (set-up seconds, reference seconds after set-up, result dict
    or None).
    """
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        ref = proc.stdout.readline().split()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        watchdog.join()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or len(ref) != 2 or ref[0] != "REF" or code != 0:
        raise BenchError(f"worker exited with code {code} before finishing")
    if setup_only:
        return setup_s, float(ref[1]), None
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return setup_s, float(ref[1]), json.loads(lines[-1])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _report(args, setups, setup_refs, result):
    """Print the human-readable lines; returns the metrics of the JSON line."""
    print(f"# {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    env = dict(result["env"], git_revision=_git_revision(), src_sha256=_source_digest(),
               nproc=os.cpu_count(), workload=args.workload)
    print("# env " + json.dumps(env, sort_keys=True))
    metrics = {}
    scaled = [s / r * NOMINAL_REF_S for s, r in zip(setups, setup_refs)]
    setup_s = statistics.median(scaled)
    passes = result["passes"]
    if args.trace and result["per_layer"]:
        for name, (value, unit) in sorted(result["per_layer"].items()):
            metrics[name] = _metric(value, unit)
            print(f"{name:48s} {value:14.6g} {unit}")
        print(f"# {len(result['traced_passes'])} traced and {len(passes)} untraced "
              f"passes; per-layer values are medians over the traced passes")
    elif not args.trace and passes:
        wall = statistics.median(passes)
        q1, q3 = _quartiles(passes)
        rate = statistics.median(n / t for n, t in zip(result["items"], passes))
        costs = result["costs"]
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "wall_ref": _metric(statistics.median(costs), "ref"),
            "items_per_ref": _metric(
                statistics.median(n / x for n, x in zip(result["items"], costs)), "1/ref"),
            "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
        }
        s1, s3 = _quartiles(scaled)
        r1, r3 = _quartiles(costs)
        print(f"{'setup_s':14s} {setup_s:12.6g} s     median of {len(setups)} set-ups "
              f"scaled to a {NOMINAL_REF_S:g} s reference, quartiles {s1:.6g} .. {s3:.6g}")
        print(f"{'setup_raw_s':14s} {statistics.median(setups):12.6g} s     unscaled, "
              f"reference after set-up {statistics.median(setup_refs):.6g} s")
        print(f"{'wall_ref':14s} {metrics['wall_ref']['value']:12.6g} ref   median of "
              f"{len(costs)} passes, quartiles {r1:.6g} .. {r3:.6g}")
        print(f"{'items_per_ref':14s} {metrics['items_per_ref']['value']:12.6g} 1/ref "
              f"{result['items'][0]} verified items per pass")
        print(f"{'peak_rss_mb':14s} {result['peak_rss_mb']:12.6g} MB")
        print(f"{'wall_s':14s} {wall:12.6g} s     median of {len(passes)} passes, "
              f"quartiles {q1:.6g} .. {q3:.6g}")
        print(f"{'items_per_s':14s} {rate:12.6g} 1/s")
        print(f"{'reference_s':14s} {statistics.median(result['reference']):12.6g} s     "
              f"median of {len(result['reference'])} reference computations")
    if result["attempted"]:
        print(f"{'fail_frac':14s} {result['inconclusive'] / result['attempted']:12.6g} 1"
              f"     {result['inconclusive']} of {result['attempted']} tasks "
              f"inconclusive (exit 2)")
    for task, digest in sorted((result["digests"] or {}).items()):
        print(f"# report sha256 {task} {digest}")
    if result["error"]:
        print(f"# WRONG: {result['error']}")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gaudinrsk" / "__init__.py").is_file():
        print(f"error: no gaudinrsk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + args.seconds + GRACE_S
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        _compiled_copy(workdir)
        probes = [_spawn(args, workdir, True, deadline) for _ in range(SETUP_PROBES)]
        probes.append(_spawn(args, workdir, False, deadline))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass
    setups, setup_refs, results = zip(*probes)
    result = results[-1]
    metrics = _report(args, setups, setup_refs, result)
    correct = result["error"] is None
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["inconclusive"],
        "metrics": metrics,
    }, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
