"""End-to-end acceptance suite.

Each test pins one advertised capability at its stated scale and
tolerance: the correspondence worked example, bijection and transpose
sweeps, crystal equivariance, exact commutativity and adjointness of the
operator families, the spectral-flow identification of both tableaux,
cell partitions against tableau-symbol references, the joint-eigenspace
duality, path robustness, and the Calogero-Moser dictionary.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from gaudinrsk.cmcells import (
    cm_point,
    kl_reference_cells,
    left_cells,
    right_cells,
    two_sided_cells,
    upsilon,
    y_scaled,
)
from gaudinrsk.combinatorics import (
    NatMatrix,
    all_matrices,
    rs_permutation,
    rsk,
    rsk_inverse,
    semistandard_tableaux,
    transpose_check,
)
from gaudinrsk.crystals import CrystalMap, verify_isomorphism
from gaudinrsk.liealg import (
    commute_on,
    delta_n,
    dual_nested_casimir,
    is_adjoint_pair,
    jm,
    joint_eigenprojectors,
    nabla,
    nested_casimir,
    weight_basis,
)
from gaudinrsk.spectralflow import FlowOpts, flow_block, verify_main_theorem


class TestWorkedExample:
    def test_correspondence(self):
        p, q = rsk(NatMatrix([[0, 2, 1], [1, 0, 1]]))
        assert p.rows == ((1, 2, 3, 3), (2,))
        assert q.rows == ((1, 1, 1, 2), (2,))


class TestBijection:
    def test_exhaustive_small(self):
        for r, n in itertools.product((1, 2, 3), repeat=2):
            for a in all_matrices(r, n, 2):
                p, q = rsk(a)
                assert rsk_inverse(p, q) == a
                assert transpose_check(a)

    def test_random_sweep(self):
        rng = random.Random(0)
        for _ in range(10**4):
            r = rng.randint(1, 5)
            n = rng.randint(1, 5)
            a = NatMatrix(
                [[rng.randint(0, 4) for _ in range(n)] for _ in range(r)]
            )
            p, q = rsk(a)
            assert rsk_inverse(p, q) == a
            assert transpose_check(a)


class TestCrystalEquivariance:
    def test_rank2_exhaustive(self):
        cmap = CrystalMap("recording", lambda a: rsk(a)[1], rank=2)
        report = verify_isomorphism(cmap, all_matrices(2, 3, 2))
        assert report.checked == 729
        assert report.ok, str(report)

    def test_rank3_exhaustive(self):
        cmap = CrystalMap("recording", lambda a: rsk(a)[1], rank=3)
        report = verify_isomorphism(cmap, all_matrices(3, 3, 1))
        assert report.checked == 512
        assert report.ok, str(report)


# representative graded blocks, all of dimension <= 300
CORPUS = [
    (2, 2, (2, 1)),
    (2, 3, (1, 1, 1)),
    (2, 2, (4, 3)),
    (3, 3, (1, 1, 1)),
    (3, 2, (2, 2)),
    (2, 4, (2, 1, 1, 2)),
    (3, 3, (2, 2, 2)),
]


def _params(r, n):
    z = tuple(Fraction(x) for x in range(n + 1, 1, -1))
    q = tuple(Fraction(x) for x in (3, 1, 4, 2, 5)[:r])
    return z, q


class TestExactIdentities:
    def test_corpus_dimensions(self):
        for r, n, k in CORPUS:
            assert len(weight_basis(r, n, k)) <= 300

    def test_dynamical_family_commutes(self):
        for r, n, k in CORPUS:
            basis = weight_basis(r, n, k)
            z, q = _params(r, n)
            nabs = [nabla(i, z, q, n) for i in range(1, r + 1)]
            for x, y in itertools.combinations(nabs, 2):
                assert commute_on(x, y, basis)

    def test_exchange_limits_commute(self):
        for r, n, k in CORPUS:
            basis = weight_basis(r, n, k)
            jms = [jm(a, r) for a in range(2, n + 1)]
            for x, y in itertools.combinations(jms, 2):
                assert commute_on(x, y, basis)

    def test_corner_casimirs_commute(self):
        for r, n, k in CORPUS:
            basis = weight_basis(r, n, k)
            cas = [nested_casimir(i, n) for i in range(1, r + 1)]
            for x, y in itertools.combinations(cas, 2):
                assert commute_on(x, y, basis)

    def test_dynamical_commutes_with_diagonal(self):
        for r, n, k in CORPUS:
            basis = weight_basis(r, n, k)
            z, q = _params(r, n)
            for i in range(1, r + 1):
                op = nabla(i, z, q, n)
                for j in range(1, r + 1):
                    assert commute_on(op, delta_n(j, j, n), basis)

    def test_adjointness(self):
        for r, n, k in CORPUS:
            basis = weight_basis(r, n, k)
            for i, j in itertools.product(range(1, r + 1), repeat=2):
                assert is_adjoint_pair(delta_n(i, j, n), delta_n(j, i, n), basis)


class TestSpectralFlow:
    OPTS = FlowOpts()

    def test_exhaustive_2x2(self):
        report = verify_main_theorem(2, 2, max_entry=2, opts=self.OPTS)
        assert report["agreement"], report["mismatches"] or report["failures"]
        assert report["checked"] == 225

    def test_2x3_multilinear_block(self):
        report = verify_main_theorem(2, 3, col_sums=(1, 1, 1), opts=self.OPTS)
        assert report["agreement"], report["mismatches"] or report["failures"]
        assert report["checked"] == 8

    def test_3x3_permutation_block(self):
        report = verify_main_theorem(
            3, 3, col_sums=(1, 1, 1), row_sums=(1, 1, 1), opts=self.OPTS
        )
        assert report["agreement"], report["mismatches"] or report["failures"]
        assert report["checked"] == 6

    @pytest.mark.parametrize("seed", range(3))
    def test_2x4_repeated_column_sums(self, seed):
        # at r = 2 every shape has at most two rows; a third row would tie
        # (3, 3) with (4, 1, 1) at the rank-3 corner
        report = verify_main_theorem(2, 4, col_sums=(2, 1, 1, 2), opts=FlowOpts(seed=seed))
        assert report["agreement"], report["mismatches"] or report["failures"]
        assert report["checked"] == 36


class TestCells:
    def test_right_cells(self):
        for n, count in ((2, 2), (3, 4), (4, 10)):
            cells = right_cells(n)
            assert cells == kl_reference_cells(n, "right")
            assert len(cells.blocks) == count
            # each class has the size of its standard-tableau fiber
            for block in cells.blocks:
                shape = rs_permutation(block[0])[0].shape
                assert len(block) == len(semistandard_tableaux(shape, n, (1,) * n))

    def test_left_cells_n3(self):
        assert left_cells(3) == kl_reference_cells(3, "left")

    @pytest.mark.parametrize("n, kind", [(4, "right"), (5, "right"), (5, "left")])
    def test_cells_at_doubling_base_z(self, n, kind):
        # records of one cell differ by up to about 1.4e-6 at these base
        # points, and their residuals link them
        z = tuple(2.0 ** a for a in range(n))
        cells = (right_cells if kind == "right" else left_cells)(n, z=z)
        assert cells == kl_reference_cells(n, kind)

    def test_two_sided_sizes(self):
        assert two_sided_cells(3).block_sizes() == [1, 1, 4]
        assert two_sided_cells(4).block_sizes() == [1, 1, 4, 9, 9]


class TestDuality:
    def test_joint_eigenspaces_agree(self):
        for r, n in ((2, 2), (2, 3)):
            basis = weight_basis(r, n, (1,) * n)
            exchange = [jm(a, r) for a in range(2, n + 1)]
            corner = [
                dual_nested_casimir(a, r, order=order)
                for a in range(1, n + 1)
                for order in (1, 2)
            ]
            assert joint_eigenprojectors(exchange, basis) == joint_eigenprojectors(
                corner, basis
            )


class TestPathRobustness:
    def test_variants_and_grids_agree(self):
        runs = []
        for z, steps in (
            (None, 48),
            ((1.0, 2.0, 4.0), 48),
            (None, 24),
        ):
            opts = FlowOpts(steps=steps)
            result = flow_block(3, 3, (1, 1, 1), (1, 1, 1), z=z, opts=opts)
            labels = [b.label for b in result.branches]
            tableaux = [(b.s_tableau, b.t_tableau) for b in result.branches]
            cells = right_cells(3, z=z, opts=opts)
            runs.append((labels, tableaux, cells))
        for other in runs[1:]:
            assert other == runs[0]


class TestCMDictionary:
    def test_rank_one_invariant(self):
        point = cm_point((0.0, 1.0), (2.0, 3.0), tol=1e-8)
        assert point.rank_defect() < 1e-8

    def test_momentum_labeling(self):
        # large-s degeneration: Y tends to diag(p)
        p = (2.0, 3.0)
        point = y_scaled((0.0, 1.0), p, 1e8)
        _, y_eigs = upsilon(point)
        assert np.allclose(sorted(v.real for v in y_eigs), p, atol=1e-8)
        assert max(abs(v.imag) for v in y_eigs) < 1e-8
