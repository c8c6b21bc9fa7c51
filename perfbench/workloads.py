"""The four benchmark workloads.

Each workload builds its inputs from the seed in its constructor (that is
set-up). `tasks(out)` lists the tasks of one pass as callables that record
into the `Outcome` out; the worker times them one by one. A task raises
`WrongResult` when the program's output is wrong:
a flow pairing that differs from RSK (exit 1), a cell partition that
differs from the Kazhdan-Lusztig reference, a false exact identity, a
failed RSK round trip, or an unexpected exit code. An inconclusive flow or
cell run (exit 2) is counted, not rejected.

Every call into gaudinrsk goes through a module attribute looked up at
call time, so the wrappers of a traced pass see it. Import this module
only after the checkout's src/ directory is on sys.path.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from gaudinrsk import cli, cmcells, crystals, liealg
from gaudinrsk import combinatorics as cb

EXIT_OK, EXIT_MISMATCH, EXIT_INCONCLUSIVE = 0, 1, 2


class WrongResult(Exception):
    """The program gave a wrong or unexpected answer."""


@dataclass
class Outcome:
    attempted: int = 0
    inconclusive: int = 0
    items: int = 0
    # task name -> sha256 of the CLI report it wrote
    digests: dict = field(default_factory=dict)


class Workload:
    def tasks(self, out):
        raise NotImplementedError

    def run_pass(self):
        """Run every task of one pass without timing them."""
        out = Outcome()
        for task in self.tasks(out):
            task()
        return out


def _run_cli(out, name, argv, path):
    """Run one CLI task in process and count it in out.

    Returns (exit code, report), or None when the task ended inconclusive
    (exit 2 with the reason in the report).
    """
    code = cli.main(argv + ["--out", path])
    if not os.path.exists(path):
        raise WrongResult(f"{name}: exit {code} without a report")
    with open(path, "rb") as fh:
        data = fh.read()
    os.remove(path)
    out.attempted += 1
    out.digests[name] = hashlib.sha256(data).hexdigest()
    report = json.loads(data)
    if code == EXIT_INCONCLUSIVE and (report.get("error") or report.get("failures")):
        out.inconclusive += 1
        return None
    return code, report


class FlowBlocks(Workload):
    """`gaudinrsk flow` on five whole blocks, given as (r, n, col_sums)."""

    BLOCKS = (
        (2, 3, (1, 1, 1)),
        (3, 4, (1, 1, 1, 1)),
        (2, 4, (2, 1, 1, 2)),
        (4, 3, (2, 1, 1)),
        (3, 3, (2, 2, 2)),
    )

    def __init__(self, seed, workdir):
        self.runs = []
        for r, n, k in self.BLOCKS:
            name = f"flow-{r}-{n}-{'.'.join(map(str, k))}"
            argv = ["flow", "--r", str(r), "--n", str(n),
                    "--col-sums", json.dumps(list(k)), "--seed", str(seed)]
            # each label of the block is one basis monomial
            dim = math.prod(math.comb(ka + r - 1, r - 1) for ka in k)
            self.runs.append((name, argv, os.path.join(workdir, name + ".json"), dim))

    def tasks(self, out):
        return [functools.partial(self._flow, out, *run) for run in self.runs]

    @staticmethod
    def _flow(out, name, argv, path, dim):
        ran = _run_cli(out, name, argv, path)
        if ran is None:
            return
        code, report = ran
        if code == EXIT_MISMATCH:
            raise WrongResult(f"{name}: flow pairing differs from RSK: "
                              f"{report.get('mismatches')}")
        if code != EXIT_OK:
            raise WrongResult(f"{name}: unexpected exit code {code}")
        if not (report["agreement"] and report["checked"] == dim
                and not report["mismatches"] and not report["failures"]):
            raise WrongResult(f"{name}: exit 0 but the report does not show "
                              f"{dim} labels agreeing with RSK")
        out.items += report["checked"]


class CellsS5(Workload):
    """`gaudinrsk cells --n 5` for right and left cells of S_5."""

    N = 5
    KINDS = ("right", "left")

    def __init__(self, seed, workdir):
        self.runs = []
        for kind in self.KINDS:
            name = f"cells-{self.N}-{kind}"
            argv = ["cells", "--n", str(self.N), "--kind", kind, "--seed", str(seed)]
            reference = cmcells.kl_reference_cells(self.N, kind)
            blocks = [[list(w.one_line) for w in block] for block in reference.blocks]
            self.runs.append((name, argv, os.path.join(workdir, name + ".json"), blocks))

    def tasks(self, out):
        return [functools.partial(self._cells, out, *run) for run in self.runs]

    @staticmethod
    def _cells(out, name, argv, path, reference):
        ran = _run_cli(out, name, argv, path)
        if ran is None:
            return
        code, report = ran
        if code != EXIT_OK or not report["matches_kl"] or report["blocks"] != reference:
            raise WrongResult(f"{name}: exit {code}; cell partition differs from "
                              f"the Kazhdan-Lusztig reference")
        out.items += sum(len(block) for block in report["blocks"])


class ExactIdentities(Workload):
    """The exact-identity corpus of the acceptance tests on blocks of
    dimension at most 36, through the public liealg functions."""

    CORPUS = (
        (2, 2, (2, 1)),
        (2, 3, (1, 1, 1)),
        (2, 2, (4, 3)),
        (3, 3, (1, 1, 1)),
        (3, 2, (2, 2)),
        (2, 4, (2, 1, 1, 2)),
    )

    def __init__(self, seed, workdir):
        self.blocks = []
        for r, n, k in self.CORPUS:
            z = tuple(Fraction(x) for x in range(n + 1, 1, -1))
            q = tuple(Fraction(x) for x in (3, 1, 4, 2, 5)[:r])
            self.blocks.append((r, n, k, z, q))

    @staticmethod
    def _checks(r, n, z, q):
        """(family, check, op1, op2) for the five identity families."""
        nabs = [liealg.nabla(i, z, q, n) for i in range(1, r + 1)]
        for x, y in itertools.combinations(nabs, 2):
            yield "dynamical family commutes", liealg.commute_on, x, y
        jms = [liealg.jm(a, r) for a in range(2, n + 1)]
        for x, y in itertools.combinations(jms, 2):
            yield "exchange limits commute", liealg.commute_on, x, y
        cas = [liealg.nested_casimir(i, n) for i in range(1, r + 1)]
        for x, y in itertools.combinations(cas, 2):
            yield "corner Casimirs commute", liealg.commute_on, x, y
        for op in nabs:
            for j in range(1, r + 1):
                yield ("dynamical commutes with diagonal", liealg.commute_on,
                       op, liealg.delta_n(j, j, n))
        for i, j in itertools.product(range(1, r + 1), repeat=2):
            yield ("adjointness", liealg.is_adjoint_pair,
                   liealg.delta_n(i, j, n), liealg.delta_n(j, i, n))

    def tasks(self, out):
        return [functools.partial(self._block, out, *block) for block in self.blocks]

    def _block(self, out, r, n, k, z, q):
        basis = liealg.weight_basis(r, n, k)
        for family, check, x, y in self._checks(r, n, z, q):
            out.attempted += 1
            if not check(x, y, basis):
                raise WrongResult(f"{family}: false on block r={r} n={n} {k}")
            out.items += len(basis)


class RskSweep(Workload):
    """Seeded random matrices through rsk, rsk_inverse and transpose_check,
    plus the crystal equivariance of the recording tableau."""

    MAX_DIM = 8
    MAX_ENTRY = 4
    # matrices per (r, n) shape; every shape 1..8 x 1..8 is drawn equally
    # often so that the box-count mix, on which insertion cost depends
    # quadratically, barely moves with the seed
    PER_SHAPE = 8
    # matrices per task
    CHUNK = 128
    # (rank, matrices, elements checked)
    CRYSTALS = ((3, (3, 3, 1), 512), (2, (2, 3, 2), 729))

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.matrices = [
            cb.NatMatrix([[rng.randint(0, self.MAX_ENTRY) for _ in range(n)]
                          for _ in range(r)])
            for r in range(1, self.MAX_DIM + 1)
            for n in range(1, self.MAX_DIM + 1)
            for _ in range(self.PER_SHAPE)
        ]
        self.crystal_inputs = [(rank, cb.all_matrices(*spec), checked)
                               for rank, spec, checked in self.CRYSTALS]

    def tasks(self, out):
        chunks = [self.matrices[i:i + self.CHUNK]
                  for i in range(0, len(self.matrices), self.CHUNK)]
        return ([functools.partial(self._round_trips, out, chunk) for chunk in chunks]
                + [functools.partial(self._crystal, out, *c) for c in self.crystal_inputs])

    @staticmethod
    def _round_trips(out, matrices):
        for a in matrices:
            out.attempted += 1
            p, q = cb.rsk(a)
            if cb.rsk_inverse(p, q) != a:
                raise WrongResult(f"rsk_inverse(rsk(A)) != A for A = {a!r}")
            if not cb.transpose_check(a):
                raise WrongResult(f"rsk of the transpose is not swapped for A = {a!r}")
            out.items += 1

    @staticmethod
    def _crystal(out, rank, samples, checked):
        out.attempted += 1
        cmap = crystals.CrystalMap("recording", lambda a: cb.rsk(a)[1], rank=rank)
        report = crystals.verify_isomorphism(cmap, samples)
        if not report.ok or report.checked != checked:
            raise WrongResult(f"crystal equivariance at rank {rank}: {report}")


WORKLOADS = {
    "flow-blocks": FlowBlocks,
    "cells-s5": CellsS5,
    "exact-identities": ExactIdentities,
    "rsk-sweep": RskSweep,
}
