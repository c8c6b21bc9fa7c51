import math

import numpy as np
import pytest

from gaudinrsk import spectralflow
from gaudinrsk.combinatorics import NatMatrix, rsk
from gaudinrsk.liealg import sqnorm, weight_basis
from gaudinrsk.spectralflow import (
    BlockCache,
    ClusteringError,
    ContinuationError,
    FlowContext,
    FlowOpts,
    PathSpec,
    SetupError,
    coalescence_classes,
    col_sum_blocks,
    collision_path,
    flow_block,
    snap_to_monomials,
    transport,
    verify_main_theorem,
)


class TestPathSpec:
    def test_collision_base_point(self):
        path = collision_path(3, (1.0, 2.0, 3.0))
        z, _ = path.point(1.0)
        assert np.allclose(z, (1.0, 2.0, 3.0))

    def test_collision_ordered_on_grid(self):
        path = collision_path(4, (1.0, 2.0, 3.0, 4.0), t_start=1e3, t_end=1e-3)
        for t in path.grid():
            z, _ = path.point(t)
            assert all(a < b for a, b in zip(z, z[1:]))

    def test_collision_separates_at_large_t(self):
        path = collision_path(2, (1.0, 2.0))
        z, _ = path.point(100.0)
        assert z[1] / z[0] > 100

    def test_collision_collapses_at_small_t(self):
        path = collision_path(2, (1.0, 2.0), t_start=1.0, t_end=1e-3)
        z, _ = path.point(1e-3)
        assert max(z) < 1e-2

    def test_unit_variant_drops_base(self):
        path = PathSpec("collision", (1.0, 2.0), (), 1e3, 1.0, variant="unit")
        z, _ = path.point(1.0)
        assert np.allclose(z, (1.0, 2.0))

    def test_rejects_unordered_base(self):
        with pytest.raises(SetupError):
            collision_path(2, (2.0, 1.0))

    def test_rejects_nonpositive_base(self):
        with pytest.raises(SetupError):
            collision_path(2, (0.0, 1.0))

    def test_rejects_unknown_kind(self):
        with pytest.raises(SetupError):
            PathSpec("spiral", (1.0,), (1.0,), 1.0, 0.1)

    def test_straight_schedule(self):
        path = PathSpec("straight-to-zero", (1.0, 2.0), (3.0,), 1.0, 1e-3)
        z, q = path.point(0.5)
        assert z == (0.5, 1.0)
        assert q == (3.0,)

    def test_q_rescale_schedule(self):
        path = PathSpec("q-rescale", (1.0,), (1.0, 2.0), 1.0, 1e-3)
        z, q = path.point(0.1)
        assert z == (1.0,)
        assert np.allclose(q, (0.1, 2.0))


class TestCoalescence:
    def test_clusters_close_records(self):
        records = [[0.0, 1.0], [1e-9, 1.0], [5.0, 1.0]]
        assert coalescence_classes(records) == [[0, 1], [2]]

    def test_all_separate(self):
        records = [[0.0], [1.0], [2.0]]
        assert coalescence_classes(records) == [[0], [1], [2]]

    def test_ambiguous_gap_raises(self):
        # intra distance 1e-7 and inter distance 1e-5 violate safety 1e3
        records = [[0.0], [1e-7], [1e-5]]
        with pytest.raises(ClusteringError):
            coalescence_classes(records, tol=1e-6, safety=1e3)


class TestTransport:
    def test_constant_family_is_identity(self):
        basis = weight_basis(2, 2, (1, 1))
        cache = BlockCache(2, 2, basis)
        # diagonal family: monomials are the joint eigenframe
        ops = [cache.cartan(1, 1), cache.cartan(1, 2), cache.wop(1)]
        path = PathSpec("straight-to-zero", (1.0, 1.0), (1.0, 2.0), 1.0, 0.5, steps=8)
        frame, diag = transport(np.eye(len(basis)), lambda t: ops, path.grid(),
                                np.random.default_rng(0))
        # constant commuting family: the eigenframe cannot move
        off = frame.T @ frame - np.eye(len(basis))
        assert np.max(np.abs(off)) < 1e-10
        assert diag["min_overlap"] > 0.999

    def test_labels_at_infinity(self):
        basis = weight_basis(2, 2, (1, 1))
        cache = BlockCache(2, 2, basis)
        labels = snap_to_monomials(np.eye(4), basis, cache)
        assert labels == basis


class TestBlockCache:
    def test_dense_matches_word_by_word(self, monkeypatch):
        # every operator the cache assembles, against the float matrix
        # built monomial by monomial through Operator.apply_monomial
        built = []

        def recording_dense(op, block):
            mat = dense(op, block)
            built.append((op, mat))
            return mat

        dense = spectralflow.dense
        monkeypatch.setattr(spectralflow, "dense", recording_dense)
        r, n = 2, 3
        basis = weight_basis(r, n, (1, 1, 1))
        cache = BlockCache(r, n, basis)
        for i in range(1, r + 1):
            cache.wop(i)
            cache.casimir2(i)
            for a in range(1, n + 1):
                cache.cartan(i, a)
            for j in range(i + 1, r + 1):
                cache.kappa2(i, j)
        for a in range(1, n + 1):
            cache.jm4(a)
            cache.dual_casimir2(a)
            for b in range(a + 1, n + 1):
                cache.omega4(a, b)
                cache.dual_kappa2(a, b)
        assert len(built) == 2 * r + r * n + math.comb(r, 2) + 2 * n + 2 * math.comb(n, 2)
        index = {m: i for i, m in enumerate(basis)}
        norms = [float(sqnorm(m)) for m in basis]
        for op, mat in built:
            expected = np.zeros((len(basis), len(basis)))
            for src, m in enumerate(basis):
                for image, coeff in op.apply_monomial(m).items():
                    dst = index[image]
                    expected[dst, src] = float(coeff) * math.sqrt(norms[dst] / norms[src])
            assert np.array_equal(mat, expected)


class TestFlowBlock:
    def test_attempts_share_the_block_cache(self, monkeypatch):
        caches = []
        run = FlowContext.run

        def failing_twice(self, *args, **kwargs):
            caches.append(self.cache)
            if len(caches) < 3:
                raise ContinuationError("forced")
            return run(self, *args, **kwargs)

        monkeypatch.setattr(FlowContext, "run", failing_twice)
        result = flow_block(2, 2, (1, 1), row_sums=(1, 1))
        assert result.diagnostics["jitter_attempt"] == 2
        assert len(caches) == 3
        assert all(cache is caches[0] for cache in caches)

    def test_known_antidiagonal_block(self):
        # weight (1,1) block of Mat_{2x2}: both permutation matrices appear
        result = flow_block(2, 2, (1, 1), row_sums=(1, 1))
        assert len(result.branches) == 2
        for branch in result.branches:
            p, q = rsk(branch.label)
            assert branch.s_tableau == q
            assert branch.t_tableau == p
        anti = NatMatrix([[0, 1], [1, 0]])
        branch = next(b for b in result.branches if b.label == anti)
        assert branch.s_tableau.rows == ((1,), (2,))
        assert branch.t_tableau.rows == ((1,), (2,))

    def test_endpoint_eigenvalues_are_exact_limits(self):
        # z = 0 records must match the limit family to continuation accuracy
        result = flow_block(2, 2, (1, 1), row_sums=(1, 1))
        ctx = FlowContext(2, 2, (1, 1), (1, 1))
        cache = ctx.cache
        limit_ops = [cache.nabla0_mat(i, ctx.q) for i in (1, 2)]
        limit_ops += [cache.wop(i) for i in (1, 2)]
        exact = set()
        vals = np.linalg.eigvalsh(limit_ops[0])
        for branch in result.branches:
            rec = branch.eigenvalues["limit_z"]
            assert min(abs(rec[0] - v) for v in vals) < 1e-6
            exact.add(round(rec[0], 6))
        assert len(exact) == 2

    def test_shape_consistency(self):
        result = flow_block(2, 3, (1, 1, 1))
        for branch in result.branches:
            assert branch.s_tableau.shape == branch.t_tableau.shape

    def test_classes_group_by_recording_tableau(self):
        # fibers of (recording tableau, weight): shapes (3) give four
        # singletons, shape (2,1) gives two classes of two
        result = flow_block(2, 3, (1, 1, 1))
        assert sorted(len(c) for c in result.classes) == [1, 1, 1, 1, 2, 2]
        for cls in result.classes:
            symbols = {rsk(result.branches[i].label)[1] for i in cls}
            assert len(symbols) == 1

    def test_path_variants_agree(self):
        kwargs = dict(want=("S", "T"))
        res_a = flow_block(2, 3, (1, 1, 1), path_variant="through-point", **kwargs)
        res_b = flow_block(2, 3, (1, 1, 1), path_variant="unit", **kwargs)
        for ba, bb in zip(res_a.branches, res_b.branches):
            assert ba.label == bb.label
            assert ba.s_tableau == bb.s_tableau
            assert ba.t_tableau == bb.t_tableau

    def test_trace_records_all_legs(self):
        trace = []
        result = flow_block(2, 2, (1, 1), row_sums=(1, 1), trace=trace)
        legs = {row[0] for row in trace}
        assert legs == {"A", "B", "C", "D", "E"}
        assert [d["leg"] for d in result.diagnostics["legs"]] == list("ABCDE")


class TestVerify:
    def test_col_sum_blocks(self):
        blocks = col_sum_blocks(2, 2, 1)
        assert blocks == sorted({(a, b) for a in range(3) for b in range(3)})

    def test_single_block_agreement(self):
        report = verify_main_theorem(2, 2, col_sums=(1, 1))
        assert report["agreement"]
        assert report["checked"] == 4
        assert report["mismatches"] == []
        assert report["failures"] == []

    def test_weight_restricted_block(self):
        report = verify_main_theorem(3, 3, col_sums=(1, 1, 1), row_sums=(1, 1, 1))
        assert report["agreement"]
        assert report["checked"] == 6

    def test_requires_block_selection(self):
        with pytest.raises(SetupError):
            verify_main_theorem(2, 2)
