"""Command line entry points.

Subcommands: rsk (correspondence and bijection suite), crystal (graph
emission), flow (eigenline continuation against the RSK oracle), cells
(Calogero-Moser cell partitions against tableau-symbol references).

Exit codes: 0 success, 1 theorem mismatch, 2 numerically inconclusive,
3 usage error. Reports are JSON with sorted keys and embed the full
configuration and seed, so identical invocations give identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import sys
import tempfile
from types import SimpleNamespace

from . import combinatorics as cb
from . import cmcells, crystals, spectralflow

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

# cells flows the S_n block, whose n! monomials each get a dense row and
# column: S_7 has 5040 monomials, and one dense part alone is 5040^2
# doubles, about 203 MB
CELLS_MAX_N = 6


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _holds_bool(value):
    return isinstance(value, bool) or (isinstance(value, list) and any(map(_holds_bool, value)))


def _json_vector(text, name):
    """The JSON list given as name. JSON's true and false are refused at any
    depth: Python reads them as the integers 1 and 0."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as err:
        raise UsageError(f"bad {name}: {err}")
    if not isinstance(value, list):
        raise UsageError(f"{name} must be a JSON list")
    if _holds_bool(value):
        raise UsageError(f"{name} entries must be numbers, not true or false")
    return value


def _load_matrix(args):
    if args.matrix is not None:
        raw = args.matrix
    elif args.file is not None:
        with open(args.file) as fh:
            raw = fh.read()
    else:
        raise UsageError("need --matrix or --file")
    rows = _json_vector(raw, "matrix")
    try:
        return cb.NatMatrix(rows)
    except (ValueError, TypeError) as err:
        raise UsageError(f"bad matrix: {err}")


@contextlib.contextmanager
def _atomic(path):
    """A text file to write path through: a temporary file in the same
    directory, renamed to path when the block ends and removed if it
    raises."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _emit(report, args):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if getattr(args, "out", None):
        with _atomic(args.out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_rsk(args):
    if args.check:
        return _rsk_check(args)
    if args.inverse:
        p_rows = _json_vector(args.p, "--p")
        q_rows = _json_vector(args.q, "--q")
        try:
            p = cb.SemistandardTableau(p_rows, args.n)
            q = cb.SemistandardTableau(q_rows, args.r)
            a = cb.rsk_inverse(p, q)
        except ValueError as err:
            raise UsageError(str(err))
        _emit({"config": _config(args), "matrix": a.to_lists()}, args)
        return EXIT_OK
    a = _load_matrix(args)
    p, q = cb.rsk(a)
    _emit(
        {
            "config": _config(args),
            "matrix": a.to_lists(),
            "P": p.to_lists(),
            "Q": q.to_lists(),
            "shape": list(p.shape),
        },
        args,
    )
    return EXIT_OK


def _round_trips(a):
    """rsk_inverse undoes rsk on A, and rsk of the transpose swaps (P, Q):
    what transpose_check tests, with rsk(A) computed once."""
    p, q = cb.rsk(a)
    pt, qt = cb.rsk(a.transpose())
    return cb.rsk_inverse(p, q) == a and pt == q and qt == p


def _rsk_check(args):
    if args.max_dim < 1 or args.max_entry < 0 or args.samples < 0:
        raise UsageError("need --max-dim >= 1, --max-entry >= 0 and --samples >= 0")
    checked = 0
    failures = []
    for r in range(1, min(args.max_dim, 3) + 1):
        for n in range(1, min(args.max_dim, 3) + 1):
            for a in cb.all_matrices(r, n, min(args.max_entry, 2)):
                checked += 1
                if not _round_trips(a):
                    failures.append(a.to_lists())
    rng = random.Random(args.seed)
    for _ in range(args.samples):
        r = rng.randint(1, args.max_dim)
        n = rng.randint(1, args.max_dim)
        a = cb.NatMatrix(
            [[rng.randint(0, args.max_entry) for _ in range(n)] for _ in range(r)]
        )
        checked += 1
        if not _round_trips(a):
            failures.append(a.to_lists())
    report = {
        "config": _config(args),
        "checked": checked,
        "failures": failures,
        "ok": not failures,
    }
    _emit(report, args)
    return EXIT_OK if not failures else EXIT_MISMATCH


def cmd_crystal(args):
    if args.rank < 1:
        raise UsageError("--rank must be at least 1")
    if args.shape is not None:
        shape = _json_vector(args.shape, "--shape")
        try:
            elements = cb.semistandard_tableaux(shape, args.rank)
        except (ValueError, TypeError) as err:
            raise UsageError(f"bad shape: {err}")
        serialize = lambda t: t.to_lists()
    elif args.col_sums is not None:
        k = _json_vector(args.col_sums, "--col-sums")
        if any(not isinstance(x, int) or x < 0 for x in k):
            raise UsageError("--col-sums entries must be non-negative integers")
        from .liealg import weight_basis

        elements = weight_basis(args.rank, len(k), k)
        serialize = lambda m: m.to_lists()
    else:
        raise UsageError("need --shape or --col-sums")
    edges = crystals.crystal_graph(elements, args.rank)
    report = {
        "config": _config(args),
        "elements": [serialize(x) for x in elements],
        "edges": [
            {"source": serialize(x), "index": i, "target": serialize(y)}
            for x, i, y in edges
        ],
    }
    _emit(report, args)
    return EXIT_OK


def _flow_vector(args, name, length):
    """The JSON list of finite numbers given as --name, or None when absent."""
    text = getattr(args, name.replace("-", "_"))
    if text is None:
        return None
    value = _json_vector(text, f"--{name}")
    if len(value) != length:
        raise UsageError(f"--{name} needs {length} entries, got {len(value)}")
    if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in value):
        raise UsageError(f"--{name} entries must be finite numbers")
    return value


def _flow_params(args, r, n):
    """Check the block size and grid, and parse --z and --q, before any
    flow runs."""
    if r < 1 or n < 1:
        raise UsageError("--r and --n must be at least 1")
    if args.steps < 2:
        raise UsageError("--steps must be at least 2")
    z = _flow_vector(args, "z", n)
    if z is not None and not (z[0] > 0 and all(a < b for a, b in zip(z, z[1:]))):
        raise UsageError("--z must be positive and strictly increasing")
    q = _flow_vector(args, "q", r)
    if q is not None and len(set(q)) != len(q):
        raise UsageError("--q entries must be pairwise distinct")
    return z, q


def _trace_sink(fh):
    """Write the trace header to fh; returns the sink whose append writes one
    grid point's record (leg, t, eigenvalues) as rows leg,t,branch,eigenvalue.

    The rows are the bytes csv.writer gives (floats by repr, CRLF line
    ends), formatted as one block per point with the leg and t written once.
    """
    fh.write("leg,t,branch,eigenvalue\r\n")

    def append(point):
        leg, t, values = point
        prefix = f"{leg},{t!r},"
        fh.write("".join([f"{prefix}{b},{v!r}\r\n" for b, v in enumerate(values)]))

    return SimpleNamespace(append=append)


def cmd_flow(args):
    z, q = _flow_params(args, args.r, args.n)
    k = _flow_vector(args, "col-sums", args.n)
    weight = _flow_vector(args, "weight", args.r)
    if any(not isinstance(x, int) or x < 0 for x in (k or []) + (weight or [])):
        raise UsageError("--col-sums and --weight entries must be non-negative integers")
    if k is None and args.max_entry is None:
        raise UsageError("need --col-sums or --max-entry")
    if args.max_entry is not None and args.max_entry < 0:
        raise UsageError("--max-entry must be non-negative")
    if weight is not None:
        # a non-negative matrix with given row and column totals exists iff
        # the totals agree; a sweep reaches column sums up to r * max_entry
        empty = (sum(weight) != sum(k) if k is not None
                 else sum(weight) > args.r * args.n * args.max_entry)
        if empty:
            raise UsageError("the selected blocks hold no matrix with row sums --weight")
    # a sweep's largest column sum is r * max_entry
    sums = k if k is not None else [args.r * args.max_entry] * args.n
    # monomial norms, products of entry factorials, reach k_1! ... k_n! as floats
    if max(sums) > 170 or math.prod(map(math.factorial, sums)) > sys.float_info.max:
        raise UsageError(f"column sums {sums} give monomial norms beyond float range")
    if k is not None:
        what = "basis dimension"
        dim = math.prod(math.comb(ka + args.r - 1, args.r - 1) for ka in k)
    else:
        # a sweep is refused by the summed dimension of all its blocks,
        # before they are listed: per column, the hockey-stick sum of
        # comb(ka + r - 1, r - 1) over ka <= r * max_entry
        what = "summed basis dimension of the swept blocks"
        dim = math.comb(args.r * args.max_entry + args.r, args.r) ** args.n
    if dim > args.budget:
        raise UsageError(f"{what} {dim} exceeds budget {args.budget}")
    try:
        with contextlib.ExitStack() as files:
            trace = None
            if args.trace:
                # rows go to the file as each grid point is reached
                trace = _trace_sink(files.enter_context(_atomic(args.trace)))
            report = spectralflow.verify_main_theorem(
                args.r, args.n, col_sums=k, row_sums=weight, max_entry=args.max_entry,
                z=z, q=q, opts=spectralflow.FlowOpts(args.seed, args.steps), trace=trace,
            )
    except spectralflow.FlowError as err:
        _emit({"config": _config(args), "error": str(err)}, args)
        return EXIT_INCONCLUSIVE
    report["config"] = _config(args)
    _emit(report, args)
    if report["failures"]:
        return EXIT_INCONCLUSIVE
    return EXIT_OK if report["agreement"] else EXIT_MISMATCH


def cmd_cells(args):
    runners = {
        "right": cmcells.right_cells,
        "left": cmcells.left_cells,
        "two-sided": cmcells.two_sided_cells,
    }
    z, q = _flow_params(args, args.n, args.n)
    if args.n > CELLS_MAX_N:
        raise UsageError(f"cells needs --n at most {CELLS_MAX_N} "
                         "(the S_n block has n! monomials)")
    try:
        partition = runners[args.kind](args.n, z=z, q=q,
                                       opts=spectralflow.FlowOpts(args.seed, args.steps))
    except spectralflow.FlowError as err:
        _emit({"config": _config(args), "error": str(err)}, args)
        return EXIT_INCONCLUSIVE
    reference = cmcells.kl_reference_cells(args.n, args.kind)
    matches = partition == reference
    report = {
        "config": _config(args),
        "n": args.n,
        "kind": args.kind,
        "blocks": [
            [list(w.one_line) for w in block] for block in partition.blocks
        ],
        "block_sizes": partition.block_sizes(),
        "matches_kl": matches,
    }
    _emit(report, args)
    return EXIT_OK if matches else EXIT_MISMATCH


def _config(args):
    # output destinations are not part of the experiment configuration
    skip = {"func", "config", "out", "trace"}
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in skip and not callable(value)
    }


def build_parser():
    parser = Parser(prog="gaudinrsk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the JSON report to this file")
        p.add_argument("--config", help="key=value defaults file")
        p.add_argument("--seed", type=int, default=0)

    p_rsk = sub.add_parser("rsk", help="correspondence, inverse, bijection suite")
    common(p_rsk)
    p_rsk.add_argument("--matrix", help="JSON rows of a non-negative matrix")
    p_rsk.add_argument("--file", help="file containing the JSON matrix")
    p_rsk.add_argument("--inverse", action="store_true")
    p_rsk.add_argument("--p", help="insertion tableau rows (JSON), with --inverse")
    p_rsk.add_argument("--q", help="recording tableau rows (JSON), with --inverse")
    p_rsk.add_argument("--r", type=int, help="row bound for --inverse")
    p_rsk.add_argument("--n", type=int, help="column bound for --inverse")
    p_rsk.add_argument("--check", action="store_true", help="run the bijection suite")
    p_rsk.add_argument("--max-dim", type=int, default=3)
    p_rsk.add_argument("--max-entry", type=int, default=2)
    p_rsk.add_argument("--samples", type=int, default=10000)
    p_rsk.set_defaults(func=cmd_rsk)

    p_cr = sub.add_parser("crystal", help="emit a crystal graph as a JSON edge list")
    common(p_cr)
    p_cr.add_argument("--rank", type=int, required=True, help="crystal index bound r")
    p_cr.add_argument("--shape", help="tableau shape (JSON list)")
    p_cr.add_argument("--col-sums", help="matrix block column sums (JSON list)")
    p_cr.set_defaults(func=cmd_crystal)

    p_fl = sub.add_parser("flow", help="verify flow-extracted tableaux against RSK")
    common(p_fl)
    p_fl.add_argument("--r", type=int, required=True)
    p_fl.add_argument("--n", type=int, required=True)
    p_fl.add_argument("--col-sums", help="one block (JSON list)")
    p_fl.add_argument("--weight", help="row-sum filter (JSON list)")
    p_fl.add_argument("--max-entry", type=int, help="sweep all blocks up to this entry bound")
    p_fl.add_argument("--z", help="base z (JSON list, increasing positive)")
    p_fl.add_argument("--q", help="base q (JSON list, pairwise distinct)")
    p_fl.add_argument("--steps", type=int, default=48)
    p_fl.add_argument("--budget", type=int, default=300,
                      help="largest basis dimension run: the block's, or for a sweep "
                      "the summed dimension of every block it lists (default 300)")
    p_fl.add_argument("--trace", help="write eigenvalue traces to this CSV file")
    p_fl.set_defaults(func=cmd_flow)

    p_ce = sub.add_parser("cells", help="cell partitions by eigenvalue coalescence, "
                          "cut by the records' own residuals, vs tableau-symbol reference")
    common(p_ce)
    p_ce.add_argument("--n", type=int, required=True)
    p_ce.add_argument("--kind", choices=["right", "left", "two-sided"], default="right")
    p_ce.add_argument("--z", help="base z (JSON list)")
    p_ce.add_argument("--q", help="base q (JSON list)")
    p_ce.add_argument("--steps", type=int, default=48)
    p_ce.set_defaults(func=cmd_cells)

    return parser


def _apply_config_file(argv):
    """Prepend key=value pairs from --config as flags, so real flags win."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise UsageError("--config needs a file path")
    path = argv[idx + 1]
    extra = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"bad config line: {line!r}")
                key, value = line.split("=", 1)
                extra.extend([f"--{key.strip().replace('_', '-')}", value.strip()])
    except OSError as err:
        raise UsageError(f"cannot read config: {err}")
    # insert defaults right after the subcommand so explicit flags override
    return argv[:1] + extra + argv[1:]


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_file(argv)
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
