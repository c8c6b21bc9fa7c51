import gc
import json
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from gaudinrsk import cli, spectralflow
from gaudinrsk.combinatorics import NatMatrix, rsk
from gaudinrsk.liealg import (
    casimir_eigenvalue,
    dense,
    dual_kappa,
    dual_nabla,
    dual_nabla_terms,
    dual_nested_casimir,
    dual_op_E,
    gaudin_h,
    gaudin_terms,
    identity,
    jm,
    kappa,
    nabla,
    nabla_terms,
    nested_casimir,
    omega,
    op_E,
    part_operator,
    sqnorm,
    weight_basis,
    weight_op,
)
from gaudinrsk.liealg import _summed
from gaudinrsk.spectralflow import (
    BATCH_BYTES,
    MATCH_THRESHOLD,
    MAX_BISECTIONS,
    START_GAP_MIN,
    BlockCache,
    ClusteringError,
    ContinuationError,
    DecodingError,
    FlowContext,
    FlowOpts,
    SetupError,
    _composed,
    _decode_chain,
    _draw_coeffs,
    _frozen,
    coalescence_classes,
    col_sum_blocks,
    collision_z,
    flow_block,
    rayleigh,
    snap_to_monomials,
    start_coeffs,
    transport,
    verify_main_theorem,
)


# The dense forms that coefficient rows and weight blocks replaced, kept as
# oracles: every family operator built as its own dim x dim matrix from
# the whole-block matrices of liealg.dense, then each scaled to unit norm
# and added.

def _dense_terms(basis):
    """terms -> float dim x dim sum of coefficient * liealg.dense(part)."""
    mats = {}

    def combine(terms):
        out = np.zeros((len(basis), len(basis)))
        for c, part in terms:
            if c:
                if part not in mats:
                    mats[part] = dense(part_operator(part), basis)
                out = out + c * mats[part]
        return out

    return combine


def _dual_omega(i, j, n):
    """Omega'_ij of the mirrored side from its own words: sum_ab E'^(i)_ab
    E'^(j)_ba, E'^(i)_ab being the gl_n generator E_ab in row i."""
    return _summed(dual_op_E(a, b, i) * dual_op_E(b, a, j)
                   for a in range(1, n + 1) for b in range(1, n + 1))


def _dense_families(ctx):
    """Leg name -> family(t), a list of dense operator matrices, on the
    default leg table. Leg D is built from the gl_n operators of liealg:
    the dual dynamical operators and the mirrored Gaudin operators
    H'_i = sum_a z_a E'^(i)_aa + sum_{j != i} 4 Omega'_ij / (q_i - q_j),
    with q the shifted base q - q_1 + 1 on the collision schedule."""
    r, n, z = ctx.r, ctx.n, ctx.z
    q = tuple(x - ctx.q[0] + 1 for x in ctx.q)
    combine = _dense_terms(ctx.basis)

    def main(t):
        zt = collision_z(z, t)
        return ([combine(nabla_terms(i, zt, q, n)) for i in range(1, r + 1)]
                + [zt[a - 1] * combine(gaudin_terms(a, zt, q, r))
                   for a in range(1, n + 1)])

    def mirrored_gaudin(i, qt):
        return combine([(z[a - 1], (dual_op_E, a, a, i)) for a in range(1, n + 1)]
                       + [(4 / (qt[i - 1] - qt[j - 1]), (_dual_omega, min(i, j), max(i, j), n))
                          for j in range(1, r + 1) if j != i])

    def mirrored_main(t):
        qt = collision_z(q, t)
        return ([combine(dual_nabla_terms(a, qt, z, r)) for a in range(1, n + 1)]
                + [qt[i - 1] * mirrored_gaudin(i, qt) for i in range(1, r + 1)])

    return {"A": main, "B": main, "D": mirrored_main}


def _weight_terms(r, n):
    """The weights W_i = sum_a E_ii^(a) as `FlowContext.run` adds them to
    every family: term lists over the primitive parts."""
    return [[(1.0, (op_E, i, i, a)) for a in range(1, n + 1)] for i in range(1, r + 1)]


def _combined(ops, coeffs):
    out = np.zeros_like(ops[0])
    for c, op in zip(coeffs, ops):
        norm = np.linalg.norm(op)
        if norm > 0:
            out = out + c * op / norm
    return out


def _full_match(new_vecs, old_vecs):
    """Matching of a whole dim x dim frame: (vectors, min overlap)."""
    overlaps = np.abs(new_vecs.T @ old_vecs)
    rows, cols = linear_sum_assignment(-overlaps)
    order = np.empty(len(cols), dtype=int)
    order[cols] = rows
    matched = new_vecs[:, order]
    signs = np.sign(np.einsum("ij,ij->j", matched, old_vecs))
    signs[signs == 0] = 1.0
    return matched * signs, overlaps[order, np.arange(len(order))].min()


def _full_transport(vectors, cache, family, grid, rng):
    """transport on dim x dim matrices: one eigh of the whole operator and
    one matching of the whole frame per grid point."""
    def operator(t, coeffs):
        return cache.full(cache.normalised_sum(family(t), coeffs))

    coeffs = _draw_coeffs(rng, len(family(grid[0])))
    assert np.diff(np.linalg.eigvalsh(operator(grid[0], coeffs))).min() > START_GAP_MIN
    diag = {"steps": 0, "bisections": 0}
    current, overlap = _full_match(np.linalg.eigh(operator(grid[0], coeffs))[1], vectors)
    assert overlap >= MATCH_THRESHOLD
    t_prev = grid[0]
    for t_target in grid[1:]:
        stack = [t_target]
        while stack:
            matched, overlap = _full_match(np.linalg.eigh(operator(stack[-1], coeffs))[1],
                                           current)
            if overlap >= MATCH_THRESHOLD:
                current = matched
                diag["steps"] += 1
                t_prev = stack.pop()
            else:
                assert diag["bisections"] < MAX_BISECTIONS
                stack.append(math.sqrt(t_prev * stack[-1]))
                diag["bisections"] += 1
    return current, diag


def _lsa_match(new_vecs, old_vecs, new_vals):
    """Reorder and sign-align the eigenvector columns of every block of a
    batch, stacks (k, d, d), to the old frame by one linear_sum_assignment
    per block, whatever the overlaps. Returns (vectors, eigenvalues in the
    new column order, min overlap)."""
    overlaps = np.abs(np.swapaxes(new_vecs, 1, 2) @ old_vecs)
    k, d = overlaps.shape[:2]
    order = np.empty((k, d), dtype=int)
    for blk, block in enumerate(overlaps):
        rows, cols = linear_sum_assignment(-block)
        order[blk, cols] = rows
    blk = np.arange(k)[:, None]
    matched = new_vecs[blk, :, order]
    signs = np.sign(np.einsum("kcj,kjc->kc", matched, old_vecs))
    signs[signs == 0] = 1.0
    matched *= signs[:, :, None]
    min_overlap = overlaps[blk, order, np.arange(d)].min()
    return np.swapaxes(matched, 1, 2), new_vals[blk, order], min_overlap


def _pointwise_transport(vectors, cache, family, grid, coeffs, trace=None, leg=""):
    """transport one grid point at a time: the family evaluated at each
    point as a one-point array, one eigh call per block size and point,
    `_lsa_match` at every step and bisection of a step below
    MATCH_THRESHOLD, as before legs ran in batches. Until the first point
    that fails it, each point is tested against the current frame V: where
    every column v of every block of d > 1 either leaves a residual
    r = |S v - rho v| of at most d eps max|rho| over the block, or has
    r <= tau delta, with delta its smallest distance to another Rayleigh
    quotient less the Frobenius norm of the block's residual matrix and
    tau = sqrt((1 - MATCH_THRESHOLD) / 2), the point is not solved: it
    keeps V and takes the Rayleigh quotients rho = v.Sv as its
    eigenvalues, at overlap 1. The last grid point passes on the first
    test only."""
    grid = np.asarray(grid, dtype=float)
    diag = {"leg": leg, "steps": 0, "bisections": 0, "min_overlap": 1.0,
            "frozen": 0, "solved": 0}
    eps = np.finfo(float).eps
    tau = math.sqrt((1 - MATCH_THRESHOLD) / 2)

    def certified(column, residual, rho, spread, bound, final):
        if residual <= bound:
            return True
        gap = min(abs(x - rho[column]) for j, x in enumerate(rho) if j != column) - spread
        return not final and gap > 0 and residual <= tau * gap

    def frozen(stacks, frame, final):
        """The eigenvalues the frame gives every block, or None if some
        column of a block of d > 1 passes neither test."""
        values = []
        for stack, old in zip(stacks, frame):
            d = stack.shape[-1]
            if d == 1:
                values.append(stack[:, 0])
                continue
            image = stack @ old
            rho = np.sum(old * image, axis=-2)
            for blk_image, blk_old, blk_rho in zip(image, old, rho):
                misfit = blk_image - blk_old * blk_rho
                residuals = np.linalg.norm(misfit, axis=0)
                spread = np.sqrt(np.sum(residuals ** 2))
                bound = d * eps * np.abs(blk_rho).max()
                if not all(certified(c, residuals[c], blk_rho, spread, bound, final)
                           for c in range(d)):
                    return None
            values.append(rho)
        return values

    def eigen(t, frame, test, final):
        stacks = cache.normalised_sum(family(np.array([t])), coeffs)
        values = frozen(stacks, frame, final) if test else None
        if values is not None:
            diag["frozen"] += 1
            return frame, values, 1.0, True
        diag["solved"] += 1
        matched, values, overlap = [], [], 1.0
        for stack, old in zip(stacks, frame):
            if stack.shape[-1] == 1:
                matched.append(old)
                values.append(stack[:, 0])
                continue
            vals, vecs = np.linalg.eigh(stack)
            vecs, vals, low = _lsa_match(vecs, old, vals)
            matched.append(vecs)
            values.append(vals)
            overlap = min(overlap, low)
        return matched, values, overlap, False

    def record_trace(t, values):
        if trace is not None:
            trace.append((leg, float(t), [float(v) for v in cache.by_branch(values)]))

    current, cur_vals, overlap, still = eigen(grid[0], vectors, True, len(grid) == 1)
    diag["min_overlap"] = min(diag["min_overlap"], overlap)
    if overlap < MATCH_THRESHOLD:
        raise ContinuationError(
            f"{leg}: start frame overlap {overlap:.4f} below threshold"
        )
    record_trace(grid[0], cur_vals)

    t_prev = grid[0]
    for t_target in grid[1:]:
        stack = [t_target]
        while stack:
            t_next = stack[-1]
            final = len(stack) == 1 and t_target == grid[-1]
            matched, mvals, overlap, frozen_point = eigen(t_next, current, still, final)
            # testing ends at the first point that fails, accepted or not
            still = still and frozen_point
            if overlap >= MATCH_THRESHOLD:
                current, cur_vals = matched, mvals
                diag["min_overlap"] = min(diag["min_overlap"], overlap)
                diag["steps"] += 1
                t_prev = t_next
                stack.pop()
            elif diag["bisections"] >= MAX_BISECTIONS:
                raise ContinuationError(
                    f"{leg}: overlap {overlap:.4f} below threshold at t={t_next} "
                    f"after {MAX_BISECTIONS} bisections"
                )
            else:
                stack.append(math.sqrt(t_prev * t_next))
                diag["bisections"] += 1
        record_trace(t_prev, cur_vals)
    return current, diag


def _whole_flat(cache, part):
    """The flat buffer of a part's weight blocks, cut from liealg.dense."""
    mat = dense(part_operator(part), cache.block)
    return np.concatenate([s.ravel() for s in cache.split(mat)])


def _within_dot_bound(got, pairs, count):
    """Whether the float got is within gamma_count * sum |a b| of the exact
    sum of a * b over the float pairs (a, b), gamma_count = count u / (1 -
    count u) with u = 2^-53: the standard bound on a float sum of count
    products, whatever the order of addition."""
    pairs = [(Fraction(a), Fraction(b)) for a, b in pairs if a and b]
    exact = sum((a * b for a, b in pairs), Fraction(0))
    bound = Fraction(count, 2 ** 53 - count) * sum((abs(a * b) for a, b in pairs), Fraction(0))
    return abs(Fraction(got) - exact) <= bound


def _pairwise_classes(records, residuals, roundoff=1e-9, safety=1e3):
    """coalescence_classes as a double loop over pairs of branches."""
    records = np.asarray(records, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    m = len(records)
    slack = roundoff * np.abs(records).max(initial=0.0)
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    dists = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            gap = np.abs(records[i] - records[j])
            dists[i, j] = dists[j, i] = gap.max(initial=0.0)
            # both records lie within their residuals of one eigenvalue
            if np.all(gap - residuals[i] - residuals[j] <= slack):
                parent[find(i)] = find(j)
    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    classes = sorted(groups.values())
    intra = 0.0
    inter = math.inf
    for i in range(m):
        for j in range(i + 1, m):
            if find(i) == find(j):
                intra = max(intra, dists[i, j])
            else:
                inter = min(inter, dists[i, j])
    if intra * safety > inter:
        raise ClusteringError(f"ambiguous clustering: intra {intra:.3e} vs inter {inter:.3e}")
    return classes


class TestSchedules:
    def test_collision_base_point(self):
        z = collision_z((1.0, 2.0, 3.0), 1.0)
        assert np.allclose(z, (1.0, 2.0, 3.0))

    @pytest.mark.parametrize("z", [(1.0, 2.0, 3.0), (0.1, 0.7, 2.5, 9.0),
                                   (1.0, 2.0, 4.0, 8.0, 16.0), (1e-3, 1.0 + 1e-12)])
    def test_collision_ends_exactly_at_base_z(self, z):
        # leg A ends at t = 1, and every later leg starts from the base z
        assert collision_z(z, 1.0) == z

    def test_collision_ordered_on_grid(self):
        for t in np.geomspace(1e3, 1e-3, 48):
            z = collision_z((1.0, 2.0, 3.0, 4.0), t)
            assert all(a < b for a, b in zip(z, z[1:]))

    def test_collision_separates_at_large_t(self):
        z = collision_z((1.0, 2.0), 100.0)
        assert z[1] / z[0] > 100

    def test_collision_collapses_at_small_t(self):
        z = collision_z((1.0, 2.0), 1e-3)
        assert max(z) < 1e-2

    def test_rejects_unordered_base(self):
        with pytest.raises(SetupError):
            FlowContext(2, 2, (1, 1), z=(2.0, 1.0))

    def test_unordered_schedule_names_its_first_t(self, monkeypatch):
        # a positive increasing base z keeps its order on the whole grid, as
        # z_i(t) / z_{i+1}(t) = 2t / (1 + t^2) z_i / z_{i+1}; a schedule that
        # swaps z_1 and z_2 from t = 10 on is refused at the first grid
        # point there, as a point-by-point loop finds it
        def swapped(z, t):
            zt = collision_z(z, t)
            late = np.asarray(t) >= 10
            return (np.where(late, zt[1], zt[0]), np.where(late, zt[0], zt[1])) + zt[2:]

        monkeypatch.setattr(spectralflow, "collision_z", swapped)
        first = next(t for t in np.geomspace(1.0, spectralflow.T_MAX, 48)
                     if any(a >= b for a, b in zip(swapped((1.0, 2.0, 3.0), t),
                                                   swapped((1.0, 2.0, 3.0), t)[1:])))
        assert 10 <= first < 12
        with pytest.raises(SetupError, match=f"collision schedule unordered at t={first}$"):
            FlowContext(2, 3, (1, 1, 1))

    def test_overflowing_schedule_is_refused_quietly(self, capsys):
        # an increasing z near the float limit overflows to inf on leg A's
        # grid, where inf >= inf is unordered: the run is refused with the
        # first such t and no numpy overflow warning
        argv = ["flow", "--r", "2", "--n", "3", "--col-sums", "[1,1,1]",
                "--z", "[1e297,2e297,3e297]"]
        assert cli.main(argv) == cli.EXIT_INCONCLUSIVE
        out, err = capsys.readouterr()
        assert [f["error"] for f in json.loads(out)["failures"]] == [
            "collision schedule unordered at t=745.3159674382284"]
        assert not err

    def test_rejects_nonpositive_base(self):
        with pytest.raises(SetupError):
            FlowContext(2, 2, (1, 1), z=(0.0, 1.0))

    @pytest.mark.parametrize("q", [(3.0, 1.0), (2.0, 2.0), (1.0, 3.0, 2.0),
                                   (0.0, 1e-300), (0.0, 1e-16), (0.0, 1e-300, 1.0)])
    def test_rejects_q_not_increasing(self, q):
        # the flow pairs branches with RSK only for increasing q: at q =
        # (3, 1) it gave 6 mismatches on (2,3,(1,1,1)), now a failure. The
        # sides take q - q_1 + 1, which makes q closer than one ulp of 1
        # equal, where nabla_i divides by q_i - q_j = 0
        r = len(q)
        with pytest.raises(SetupError, match="strictly increasing base q"):
            FlowContext(r, 3, (1, 1, 1), q=q)
        report = verify_main_theorem(r, 3, col_sums=(1, 1, 1), q=q)
        assert report["failures"] and not report["mismatches"] and not report["checked"]

    def test_rejects_negative_seed(self):
        # numpy's generator raises ValueError on a negative seed
        with pytest.raises(SetupError, match="non-negative seed"):
            FlowContext(2, 2, (1, 1), opts=FlowOpts(seed=-1))

    def test_accepts_increasing_q_of_any_sign(self):
        report = verify_main_theorem(2, 3, col_sums=(1, 1, 1), q=(-1.0, 2.0))
        assert report["agreement"] and report["checked"] == 8
        # the schedules take q - q_1 + 1: leg D's collision schedule of an
        # all-negative q would reverse its order on the way to 0 (q_3 falls
        # below q_1 here), crossing the walls q_i = q_j
        report = verify_main_theorem(3, 3, col_sums=(2, 1, 1), q=(-3.0, -2.0, -1.0))
        assert report["agreement"] and report["checked"] == 54


class TestCoalescence:
    def test_clusters_close_records(self):
        # records 2e-6 apart, as on S_6, are linked by residuals of 1e-3
        records = [[0.0, 1.0], [2e-6, 1.0], [5.0, 1.0]]
        residuals = [[1e-3, 0.0]] * 3
        assert coalescence_classes(records, residuals) == [[0, 1], [2]]
        # only the sum of the two residuals covers the gap
        residuals = [[1.9e-6, 0.0], [2e-7, 0.0], [0.0, 0.0]]
        assert coalescence_classes(records, residuals) == [[0, 1], [2]]
        # exact eigenvectors (zero residuals) on distinct values stay apart
        assert coalescence_classes(records, np.zeros((3, 2))) == [[0], [1], [2]]
        # and on one value they differ by round-off alone
        records = [[1.0], [1.0 + 4e-16], [3.0]]
        assert coalescence_classes(records, np.zeros((3, 1))) == [[0, 1], [2]]

    def test_all_separate(self):
        records = [[0.0], [1.0], [2.0]]
        assert coalescence_classes(records, [[1e-3]] * 3) == [[0], [1], [2]]

    def test_empty(self):
        assert coalescence_classes(np.zeros(0), np.zeros(0)) == []

    def test_rayleigh_residual_bounds_an_eigenvalue(self):
        # Krylov-Weinstein: some eigenvalue of each op lies within the
        # residual of each branch's quotient
        rng = np.random.default_rng(0)
        ops = [x + np.swapaxes(x, 1, 2) for x in rng.standard_normal((2, 3, 5, 5))]
        vecs = np.linalg.qr(rng.standard_normal((3, 5, 5)))[0]
        quotients, residuals = rayleigh(vecs, ops)
        assert quotients.shape == residuals.shape == (3, 5, 2)
        for o, op in enumerate(ops):
            spectra = np.linalg.eigvalsh(op)
            for k in range(3):
                rho = np.einsum("dm,de,em->m", vecs[k], op[k], vecs[k])
                assert np.allclose(quotients[k, :, o], rho)
                nearest = np.abs(spectra[k][:, None] - rho).min(axis=0)
                assert np.all(nearest <= residuals[k, :, o] + 1e-12)
                # an eigenvector has no residual
                _, exact = np.linalg.eigh(op[k])
                assert rayleigh(exact, [op[k]])[1].max() < 1e-12

    def test_ambiguous_gap_raises(self):
        # records 0 and 1 are linked at distance 1e-7, and record 2, 1e-5
        # away, is not: intra over inter violates safety 1e3
        records = [[0.0], [1e-7], [1e-5]]
        residuals = [[1e-7], [1e-7], [1e-9]]
        with pytest.raises(ClusteringError):
            coalescence_classes(records, residuals)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_pairwise_loop(self, seed):
        # planted clusters of records spread by 1e-7 with residuals of 1e-7
        # to 2e-7, against the branch-by-branch double loop; at odd seeds
        # one record sits 5e-6 from another, past both residuals but within
        # safety times the spread
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-3, 3, size=(7, 5))
        members = rng.integers(0, len(centers), size=60)
        records = centers[members] + rng.uniform(-1e-7, 1e-7, size=(60, 5))
        residuals = rng.uniform(1e-7, 2e-7, size=(60, 5))
        if seed % 2:
            records[0] = records[1] + 5e-6
            with pytest.raises(ClusteringError) as expected:
                _pairwise_classes(records, residuals)
            with pytest.raises(ClusteringError) as got:
                coalescence_classes(records, residuals)
            assert str(got.value) == str(expected.value)
        else:
            expected = _pairwise_classes(records, residuals)
            assert len(expected) == len(set(members.tolist()))
            assert coalescence_classes(records, residuals) == expected

    def test_error_text_matches_pairwise_loop(self):
        records = [[0.0, 1.0], [1e-7, 1.0], [1e-5, 1.0], [4.0, 1.0]]
        residuals = [[1e-7, 0.0]] * 4
        with pytest.raises(ClusteringError) as expected:
            _pairwise_classes(records, residuals)
        with pytest.raises(ClusteringError) as got:
            coalescence_classes(records, residuals)
        assert str(got.value) == str(expected.value)


class TestMatch:
    @staticmethod
    def _frames(rng, k, d):
        """k seeded orthonormal d x d frames."""
        return np.linalg.qr(rng.standard_normal((k, d, d)))[0]

    @staticmethod
    def _check(new, old):
        """_match, applied to each block's overlap product as `_composed`
        applies it, against one linear_sum_assignment per block."""
        vals = np.random.default_rng(7).standard_normal(new.shape[:2])
        cols, picked = spectralflow._match(np.swapaxes(old, 1, 2) @ new)
        blk = np.arange(len(new))[:, None]
        matched = new[blk, :, cols] * np.where(picked < 0, -1.0, 1.0)[:, :, None]
        expected = _lsa_match(new, old, vals)
        assert np.array_equal(np.swapaxes(matched, 1, 2), expected[0])
        assert np.array_equal(vals[blk, cols], expected[1])
        assert np.abs(picked).min() == expected[2]

    def test_rows_are_old_columns(self):
        # row j of old^T @ new is old column j: the new frame holds old
        # column j at column perm[j], flipped where flip[j] is -1, so
        # _match names perm[j] and overlap flip[j] for every old column j
        old = self._frames(np.random.default_rng(3), 1, 4)[0]
        perm, flip = np.array([2, 0, 3, 1]), np.array([1.0, -1.0, -1.0, 1.0])
        new = np.empty_like(old)
        new[:, perm] = old * flip
        cols, picked = spectralflow._match(old.T @ new)
        assert np.array_equal(cols, perm)
        assert np.allclose(picked, flip, rtol=0, atol=1e-12)
        # the transposed product names the inverse permutation instead
        assert np.array_equal(spectralflow._match(new.T @ old)[0], np.argsort(perm))

    @pytest.mark.parametrize("seed", range(4))
    def test_small_rotations(self, seed):
        # the rotated frames of a step: every column's best overlap is
        # near 1, so the column-wise argmax is the optimal assignment
        rng = np.random.default_rng(seed)
        old = self._frames(rng, 5, 6)
        step = np.linalg.qr(np.eye(6) + 0.05 * rng.standard_normal((5, 6, 6)))[0]
        self._check(old @ step, old)

    @pytest.mark.parametrize("seed", range(4))
    def test_permuted_and_sign_flipped_columns(self, seed):
        rng = np.random.default_rng(seed)
        old = self._frames(rng, 3, 5)
        new = np.stack([frame[:, rng.permutation(5)] * rng.choice([-1.0, 1.0], 5)
                        for frame in old])
        self._check(new, old)

    def test_one_dimensional_blocks(self):
        signs = np.array([1.0, -1.0, -1.0, 1.0])
        self._check(signs[:, None, None], signs[::-1, None, None])

    @staticmethod
    def _refused(start, cache, family, coeffs):
        """The overlap at which `_composed` refuses a single point from the
        start frame, which it returns unchanged with no step; `_frozen`
        does not certify the start frame there either."""
        weights = cache.coefficients(family(np.array([1.0])), coeffs)
        stacks = cache._views(cache.sum_parts(weights))
        assert _frozen(stacks, start)[0] == 0
        frame, steps, refused = _composed(stacks, start)
        assert frame is start and steps == []
        assert refused < MATCH_THRESHOLD
        return refused

    @pytest.mark.parametrize("seed", range(4))
    def test_rotations_near_45_degrees(self, seed):
        # the 2 x 2 block of the planted cache, whose eigenvectors under Z
        # are the basis vectors, from a start frame turned by 42-48 degrees:
        # every overlap is about 0.7, the product copies the frame's entries
        cache = TestBatchedTransport._planted()
        angle = np.radians(np.random.default_rng(seed).uniform(42, 48))
        turn = np.array([[[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]])
        start = cache.identity()
        start[1] = turn
        got = self._refused(start, cache, lambda t: [TestBatchedTransport.Z], [1.0])
        assert got == np.abs(turn).max(axis=1).min()

    @pytest.mark.parametrize("seed", range(4))
    def test_unrelated_frames(self, seed):
        # a random start frame on the one weight block of S_3: best
        # overlaps far below MATCH_THRESHOLD, whether or not the column-wise
        # argmax is a permutation
        ctx = FlowContext(3, 3, (1, 1, 1), (1, 1, 1))
        cache = ctx.cache
        leg = ctx.legs()[0]
        coeffs = start_coeffs(cache, leg.family(leg.grid[:1]), np.random.default_rng(0))
        old = self._frames(np.random.default_rng(seed), 1, cache.dim)
        _, vecs = np.linalg.eigh(cache.normalised_sum(leg.family(np.array([1.0])), coeffs)[0])
        overlaps = np.abs(np.swapaxes(vecs, 1, 2) @ old)[0]
        got = self._refused([old], cache, leg.family, coeffs)
        assert got == pytest.approx(overlaps.max(axis=0).min(), abs=1e-12)


class TestTransport:
    def test_constant_family_is_identity(self):
        basis = weight_basis(2, 2, (1, 1))
        cache = BlockCache(2, 2, basis)
        # diagonal family: monomials are the joint eigenframe
        ops = [[(1.0, (op_E, 1, 1, 1))], [(1.0, (op_E, 1, 1, 2))]] + _weight_terms(2, 2)[:1]
        coeffs = start_coeffs(cache, ops, np.random.default_rng(0))
        frame, diag = transport(cache.split(np.eye(len(basis))), cache, lambda t: ops,
                                np.geomspace(1.0, 0.5, 8), coeffs)
        frame = cache.full(frame)
        # constant commuting family: the eigenframe cannot move
        off = frame.T @ frame - np.eye(len(basis))
        assert np.max(np.abs(off)) < 1e-10
        assert diag["min_overlap"] > 0.999

    def test_labels_at_infinity(self):
        basis = weight_basis(2, 2, (1, 1))
        cache = BlockCache(2, 2, basis)
        labels = snap_to_monomials(np.eye(4), basis, cache)
        assert labels == basis

    @pytest.mark.parametrize("overlap, columns, error", [
        (math.sqrt(0.5), [0, 1, 2, 3], "branch 0: start overlap 0.70711 with nearest monomial"),
        (1.0, [0, 1, 1, 3], "branch 2: duplicate monomial label"),
        # above SNAP_THRESHOLD, but the branch's E_ii^(a) values mix two labels
        ((1 + spectralflow.SNAP_THRESHOLD) / 2, [0, 1, 2, 3],
         "branch 0: diagonal eigenvalue .* disagrees with label"),
    ], ids=["low-overlap", "duplicate-label", "mixed-diagonal"])
    def test_snap_refusals(self, overlap, columns, error):
        # the monomial frame, branch 0 turned towards monomial 1 until its
        # overlap with monomial 0 is `overlap`, then the columns picked
        frame = np.eye(4)
        frame[:2, 0] = overlap, math.sqrt(1 - overlap ** 2)
        basis = weight_basis(2, 2, (1, 1))
        with pytest.raises(ContinuationError, match=error):
            snap_to_monomials(frame[:, columns], basis, BlockCache(2, 2, basis))

    @pytest.mark.parametrize("r, n, col_sums, row_sums", [
        (2, 3, (1, 1, 1), None),
        (4, 4, (1, 1, 1, 1), (1, 1, 1, 1)),
    ])
    def test_labels_are_the_diagonal_eigenvalues(self, r, n, col_sums, row_sums):
        # each branch label is the monomial whose E_ii^(a) eigenvalues are
        # the label's entries
        ctx = FlowContext(r, n, col_sums, row_sums)
        labels = [branch.label for branch in flow_block(r, n, col_sums, row_sums).branches]
        assert labels == ctx.basis
        for i in range(1, r + 1):
            for a in range(1, n + 1):
                diag = np.diag(ctx.cache.full(ctx.cache.combine([(1.0, (op_E, i, i, a))])))
                assert diag.tolist() == [label[i - 1, a - 1] for label in labels]

    def test_frame_matches_full_eigh(self):
        # each leg of the table, chained and drawn as FlowContext.run chains
        # and draws them (one stream, one draw per leg in leg order), against
        # whole-block eigh and matching from the same frame and coefficient
        # draw: two streams of one seed give both the same draws
        ctx = FlowContext(2, 3, (1, 1, 1))
        cache = ctx.cache
        assert len(cache.batches) > 1
        weight_terms = _weight_terms(2, 3)
        blocks, wholes = {}, {}
        rng, whole_rng = np.random.default_rng(3), np.random.default_rng(3)
        for leg in ctx.legs():
            def family(t, leg=leg):
                return leg.family(t) + weight_terms
            whole = np.eye(cache.dim) if leg.start is None else wholes[leg.start]
            frame = cache.split(whole) if leg.start is None else blocks[leg.start]
            coeffs = start_coeffs(cache, family(leg.grid[:1]), rng, leg.name)
            frame, diag = transport(frame, cache, family, leg.grid, coeffs, leg=leg.name)
            whole, whole_diag = _full_transport(whole, cache, family, leg.grid, whole_rng)
            blocks[leg.name], wholes[leg.name] = frame, whole
            overlaps = np.abs(np.sum(cache.full(frame) * whole, axis=0))
            assert overlaps.min() > 1 - 1e-10, (leg.name, overlaps.min())
            assert (diag["steps"], diag["bisections"]) == (
                whole_diag["steps"], whole_diag["bisections"])

    def test_degenerate_draw_is_not_redrawn(self, monkeypatch):
        # a planted first draw weights the two weights W_i of leg D's start
        # family on (2,3,(1,1,1)) alone; each is a scalar on a weight block,
        # so the start operator is exactly degenerate on the blocks with
        # d > 1. The next draw would not be, but a leg draws once and ends
        # there
        ctx = FlowContext(2, 3, (1, 1, 1))
        leg = ctx.legs()[2]
        ops = leg.family(leg.grid[:1]) + _weight_terms(2, 3)
        rng = np.random.default_rng(3)
        draw = spectralflow._draw_coeffs

        def planted(rng, count):
            monkeypatch.setattr(spectralflow, "_draw_coeffs", draw)
            return np.r_[np.zeros(count - 2), draw(rng, 2)]

        monkeypatch.setattr(spectralflow, "_draw_coeffs", planted)
        with pytest.raises(ContinuationError) as err:
            start_coeffs(ctx.cache, ops, rng, leg.name)
        assert str(err.value) == "D: degenerate combined spectrum"
        assert len(start_coeffs(ctx.cache, ops, rng, leg.name)) == len(ops)


class TestBatchedTransport:
    """transport against the per-point loop it replaced: frames, diag and
    trace rows equal bit for bit, or the same error."""

    @staticmethod
    def _both(monkeypatch, start, cache, family, grid, coeffs, leg="X"):
        """Run transport and the per-point loop on the same input; returns
        the two outcomes and the eigh calls each made."""
        outcomes, calls = [], []
        real_eigh = np.linalg.eigh

        def counting(a, *args, **kwargs):
            calls[-1] += 1
            return real_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        for run in (transport, _pointwise_transport):
            calls.append(0)
            trace = []
            try:
                frame, diag = run(start, cache, family, grid, coeffs, trace=trace, leg=leg)
                outcomes.append((frame, diag, trace))
            except ContinuationError as err:
                outcomes.append(str(err))
        monkeypatch.undo()
        return outcomes, calls

    @staticmethod
    def _assert_same(got, want):
        if isinstance(want, str):
            assert got == want
            return
        assert not isinstance(got, str), got
        (frame, diag, trace), (want_frame, want_diag, want_trace) = got, want
        assert len(frame) == len(want_frame)
        for a, b in zip(frame, want_frame):
            assert np.array_equal(a, b)
        # a batch also solves the points after a refused one, which the
        # next batch solves again
        solved, want_solved = diag["solved"], want_diag["solved"]
        assert solved >= want_solved if diag["bisections"] else solved == want_solved
        assert {**diag, "solved": 0} == {**want_diag, "solved": 0}
        assert trace == want_trace

    def _legs(self, monkeypatch, ctx, points=None):
        """Every leg of the table, chained as FlowContext.run chains them;
        points, if given, fixes the grid points per batch."""
        cache = ctx.cache
        if points is not None:
            monkeypatch.setattr(spectralflow, "BATCH_BYTES", points * 8 * cache.size)
        weight_terms = _weight_terms(ctx.r, ctx.n)
        frames, calls = {}, [0, 0]
        for leg in ctx.legs():
            def family(t, leg=leg):
                return leg.family(t) + weight_terms
            coeffs = start_coeffs(cache, family(leg.grid[:1]), np.random.default_rng(0))
            start = cache.identity() if leg.start is None else frames[leg.start]
            (got, want), leg_calls = self._both(monkeypatch, start, cache, family, leg.grid,
                                                coeffs, leg.name)
            self._assert_same(got, want)
            frames[leg.name] = got[0]
            calls = [a + b for a, b in zip(calls, leg_calls)]
        return calls

    @pytest.mark.parametrize("r, n, col_sums", [
        (2, 3, (1, 1, 1)),
        (3, 4, (1, 1, 1, 1)),
        (2, 4, (2, 1, 1, 2)),
        (4, 3, (2, 1, 1)),
        (3, 3, (2, 2, 2)),
    ])
    def test_blocks(self, monkeypatch, r, n, col_sums):
        batched, pointwise = self._legs(monkeypatch, FlowContext(r, n, col_sums))
        assert batched < pointwise

    @pytest.mark.parametrize("points", [None, 1, 5])
    def test_s4_block(self, monkeypatch, points):
        ctx = FlowContext(4, 4, (1, 1, 1, 1), (1, 1, 1, 1))
        batched, pointwise = self._legs(monkeypatch, ctx, points)
        if points is None:
            # one weight block of dim 24: a whole leg per batch, so one
            # eigh call for each of the three legs
            assert BATCH_BYTES // (8 * ctx.cache.size) >= FlowOpts().steps
            assert batched == 3
        else:
            assert batched <= pointwise

    # on the (1,1) weight block of (2,2,(1,1)), spanned by x_11 x_22 and
    # x_12 x_21: E_11^(1) - E_11^(2) is diag(1, -1), Omega_12 swaps them
    Z = [(1.0, (op_E, 1, 1, 1)), (-1.0, (op_E, 1, 1, 2))]
    X = (omega, 1, 2, 2)

    @staticmethod
    def _planted():
        cache = BlockCache(2, 2, weight_basis(2, 2, (1, 1)))
        assert [idx.shape for idx in cache.batches] == [(2, 1), (1, 2)]
        return cache

    @pytest.mark.parametrize("points", [None, 4])
    def test_avoided_crossing_mid_batch(self, monkeypatch, points):
        # (t - c) Z + eps X: the eigenvectors of the 2 x 2 block turn by
        # about 45 degrees across the step from grid[7] to grid[8], a best
        # overlap of about 0.71, so that step is bisected while the steps
        # around it, at most 14 degrees, are not
        cache = self._planted()
        if points is not None:
            monkeypatch.setattr(spectralflow, "BATCH_BYTES", points * 8 * cache.size)
        grid = np.geomspace(1.0, 2.0, 16)
        c = math.sqrt(grid[7] * grid[8])
        eps = (grid[8] - grid[7]) / 2

        def family(t):
            return [[((t - c) * w, part) for w, part in self.Z] + [(eps, self.X)]]

        (got, want), (batched, pointwise) = self._both(monkeypatch, cache.identity(), cache,
                                                       family, grid, [1.5])
        self._assert_same(got, want)
        assert 0 < got[1]["bisections"] < MAX_BISECTIONS
        assert got[1]["steps"] == len(grid) - 1 + got[1]["bisections"]
        assert batched < pointwise

    def test_bisections_run_out(self, monkeypatch):
        # cos(theta) Z + sin(theta) X with theta = rate * log t: the
        # eigenvectors turn by 40 degrees per grid step, so each step is
        # bisected once until MAX_BISECTIONS are used; the next refused
        # step, at an overlap of cos(40 deg), ends the leg
        cache = self._planted()
        grid = np.geomspace(1.0, 2.0, 60)
        rate = math.radians(80) / math.log(grid[1] / grid[0])

        def family(t):
            theta = rate * np.log(t)
            return [[(np.cos(theta) * w, part) for w, part in self.Z]
                    + [(np.sin(theta), self.X)]]

        (got, want), _ = self._both(monkeypatch, cache.identity(), cache, family, grid, [1.0])
        self._assert_same(got, want)
        assert got == (f"X: overlap {math.cos(math.radians(40)):.4f} below threshold at "
                       f"t={grid[MAX_BISECTIONS + 1]} after {MAX_BISECTIONS} bisections")

    def test_part_list_changes_mid_leg(self, monkeypatch):
        # a coefficient that is exactly 0 at grid[3] drops its part there;
        # the part keeps weight 0 in that point's sum, so one batch holds
        # the whole leg
        cache = self._planted()
        grid = np.geomspace(1.0, 2.0, 8)

        def family(t):
            return [[(t - grid[3], (op_E, 1, 1, 1)), (0.1, self.X)]]

        (got, want), (batched, pointwise) = self._both(monkeypatch, cache.identity(), cache,
                                                       family, grid, [1.0])
        self._assert_same(got, want)
        assert got[1]["bisections"] == 0
        assert (batched, pointwise) == (1, len(grid))

    def test_constant_diagonal_family_solves_nothing(self, monkeypatch):
        # the start frame diagonalises every point exactly: each point
        # keeps it and takes its diagonal as eigenvalues, with no eigh call
        cache = self._planted()
        grid = np.geomspace(1.0, 2.0, 8)
        ops = [self.Z, _weight_terms(2, 2)[0]]
        start = cache.identity()
        (got, want), calls = self._both(monkeypatch, start, cache, lambda t: ops, grid,
                                        [1.5, 1.25])
        self._assert_same(got, want)
        assert calls == [0, 0]
        frame, diag, trace = got
        assert frame is start
        assert (diag["steps"], diag["min_overlap"]) == (len(grid) - 1, 1.0)
        diagonal = [float(x) for x in np.diag(cache.full(cache.normalised_sum(ops, [1.5, 1.25])))]
        assert [values for _, _, values in trace] == [diagonal] * len(grid)

    # the certificate's bound on sin(v, u): two frames each within asin(TAU)
    # of the eigenvectors overlap by at least 1 - 2 TAU^2 = MATCH_THRESHOLD
    TAU = math.sqrt((1 - MATCH_THRESHOLD) / 2)

    @pytest.mark.parametrize("coupling, solved", [
        # 2 eps, within eigh's backward error: every point keeps the frame,
        # the last one too
        pytest.param(2 * np.finfo(float).eps, 0, id="2.0-0"),
        # Davis-Kahan ratio 0.99 tau at the first point, less further on:
        # every point keeps the frame but the last, which ends the leg and
        # is solved
        pytest.param(3 * 0.99 * TAU / (1 + math.sqrt(2) * 0.99 * TAU), 1, id="0.99tau-1"),
        # ratio 1.01 tau at the first point: it is solved, and testing ends
        pytest.param(3 * 1.01 * TAU / (1 + math.sqrt(2) * 1.01 * TAU), 16, id="1.01tau-16"),
    ])
    def test_frozen_until_past_the_bound(self, monkeypatch, coupling, solved):
        # Z + t E_11^(1) + e X is c [[1 + t, e], [e, -1]] on the 2 x 2
        # block. From the identity frame the Rayleigh quotients are
        # c (1 + t) and -c, each column residual is c e, and the residual
        # matrix has Frobenius norm sqrt(2) c e, so the Davis-Kahan ratio
        # r / delta is e / (2 + t - sqrt(2) e), largest at the first point,
        # t = 1; the backward-error bound d eps max|rho| is 2 eps c (1 + t).
        # One point per batch
        cache = self._planted()
        monkeypatch.setattr(spectralflow, "BATCH_BYTES", 8 * cache.size)
        grid = np.geomspace(1.0, 2.0, 16)

        def family(t):
            return [self.Z + [(t, (op_E, 1, 1, 1)), (coupling, self.X)]]

        (got, want), calls = self._both(monkeypatch, cache.identity(), cache, family, grid,
                                        [1.0])
        self._assert_same(got, want)
        assert calls == [solved, solved]
        assert (got[1]["frozen"], got[1]["solved"]) == (len(grid) - solved, solved)
        assert got[1]["bisections"] == 0

    def test_refused_after_frozen_points(self, monkeypatch):
        # the 2 x 2 block is cos(theta) Z + sin(theta) X, with theta 0 up to
        # the midpoint m of grid[2] and grid[3] and turning to 60 degrees at
        # grid[3], then constant: its eigenvectors turn by theta / 2. The
        # first three points keep the frame; grid[3] fails the test and is
        # refused at overlap cos(30 deg). Testing has ended, so the midpoint
        # m, which the frame would pass, is solved; the next midpoint, at a
        # turn of 15 degrees, is accepted, and so is grid[3] after it: 2
        # bisections and 9 points solved, one per batch
        cache = self._planted()
        monkeypatch.setattr(spectralflow, "BATCH_BYTES", 8 * cache.size)
        grid = np.geomspace(1.0, 2.0, 8)
        m = math.sqrt(grid[2] * grid[3])

        def family(t):
            theta = math.radians(60) * np.clip(np.log(t / m) / math.log(grid[3] / m), 0, 1)
            return [[(np.cos(theta) * w, part) for w, part in self.Z]
                    + [(np.sin(theta), self.X)]]

        (got, want), calls = self._both(monkeypatch, cache.identity(), cache, family, grid,
                                        [1.0])
        self._assert_same(got, want)
        frame, diag, _ = got
        assert (diag["frozen"], diag["solved"], diag["bisections"]) == (3, 9, 2)
        assert diag["steps"] == len(grid) - 1 + diag["bisections"]
        assert calls == [9, 9]
        # the end frame holds the eigenvectors at 60 degrees
        turn = np.radians(30)
        assert np.abs(np.abs(frame[1][0]) - np.abs([[np.cos(turn), np.sin(turn)],
                                                    [np.sin(turn), np.cos(turn)]])).max() < 1e-12

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 2: the certificate bounds each point, not the segment "
        "between two points, so a step over an avoided crossing is accepted "
        "onto the other branch"))
    def test_planted_avoided_crossing(self):
        # (t - 1) Z + e X, e = 1e-3, is [[t - 1, e], [e, 1 - t]] up to the
        # order of the basis: the lower branch starts on one basis vector
        # at t = 0.5 and ends on the other at t = 2. The step from 0.9 to
        # 1.1 crosses the gap of 2e at t = 1 at an overlap of about 1, and
        # each of 0.5, 0.9 and 1.1 is certified alone. The run must end on
        # the lower eigenvector, or inconclusive
        cache = self._planted()

        def family(t):
            return [[((t - 1) * w, part) for w, part in self.Z] + [(1e-3, self.X)]]

        grid = np.array([0.5, 0.9, 1.1, 2.0])
        # the identity frame's columns are the basis vectors
        lower = int(np.diag(cache.normalised_sum(family(grid[:1]), [1.0])[1][0]).argmin())
        try:
            frame, _ = transport(cache.identity(), cache, family, grid, [1.0])
        except ContinuationError:
            return
        _, vecs = np.linalg.eigh(cache.normalised_sum(family(grid[-1:]), [1.0])[1][0])
        assert abs(vecs[:, 0] @ frame[1][0][:, lower]) > MATCH_THRESHOLD

    @pytest.mark.parametrize("n", [4, 5])
    def test_certified_points_match_in_order(self, monkeypatch, n):
        # leg A of S_n from the monomial frame: at every point kept without
        # eigh, matching eigh's frame to the kept frame pairs each kept
        # column with the eigenvector of its Rayleigh quotient's rank, the
        # pairing of the certificate's Weyl bound, so eigh's frame in the
        # kept frame's order is the identity permutation of it, at overlap
        # at least MATCH_THRESHOLD. The end frame is the one a run that
        # tests no point reaches, bit for bit
        ctx = FlowContext(n, n, (1,) * n, (1,) * n)
        cache, leg = ctx.cache, ctx.legs()[0]
        weight_terms = _weight_terms(n, n)

        def family(t):
            return leg.family(t) + weight_terms

        coeffs = start_coeffs(cache, family(leg.grid[:1]), np.random.default_rng(0))
        start = cache.identity()
        frame, diag = transport(start, cache, family, leg.grid, coeffs, leg="A")
        assert diag["frozen"] > 0
        # frozen points lead the leg, and no midpoint is frozen
        for t in leg.grid[:diag["frozen"]]:
            for stack, kept in zip(cache.normalised_sum(family(np.array([t])), coeffs), start):
                if stack.shape[-1] == 1:
                    continue
                cols, picked = spectralflow._match(np.swapaxes(kept, 1, 2)
                                                   @ np.linalg.eigh(stack)[1])
                rho = np.sum(kept * (stack @ kept), axis=-2)
                assert np.array_equal(cols, rho.argsort(axis=-1).argsort(axis=-1))
                assert np.abs(picked).min() >= MATCH_THRESHOLD
        monkeypatch.setattr(spectralflow, "_frozen",
                            lambda stacks, frame, final=False: (0, [None] * len(frame)))
        untested, untested_diag = transport(start, cache, family, leg.grid, coeffs, leg="A")
        assert untested_diag["frozen"] == 0
        assert all(np.array_equal(a, b) for a, b in zip(frame, untested))

    @pytest.mark.parametrize("n", [4, 5])
    def test_frozen_multiplies_each_point_once(self, monkeypatch, n):
        # leg A of S_n from the monomial frame, its first six points in one
        # batch, all certified by one product over the whole batch, whose
        # rows for a point are those of a product over fewer points
        ctx = FlowContext(n, n, (1,) * n, (1,) * n)
        cache, leg = ctx.cache, ctx.legs()[0]

        def family(t):
            return leg.family(t) + _weight_terms(n, n)

        coeffs = start_coeffs(cache, family(leg.grid[:1]), np.random.default_rng(0))
        weights = cache.coefficients(family(leg.grid[:6]), coeffs, 6)
        stacks, start = cache._views(cache.sum_parts(weights)), cache.identity()
        multiplied = []

        def counting(vectors, ops):
            multiplied.append(sum(len(op) for op in ops))
            return rayleigh(vectors, ops)

        monkeypatch.setattr(spectralflow, "rayleigh", counting)
        count, quotients = _frozen(stacks, start)
        monkeypatch.undo()
        assert count == 6 and multiplied == [6]
        for stack, old, rho in zip(stacks, start, quotients):
            whole = rayleigh(old, [stack])
            parts = [rayleigh(old, [stack[:1]]), rayleigh(old, [stack[1:]])]
            assert rho.tobytes() == whole[0][..., 0].tobytes()
            for k in (0, 1):
                assert np.concatenate([p[k] for p in parts]).tobytes() == whole[k].tobytes()

    @pytest.mark.parametrize("r, n, col_sums, row_sums", [
        (4, 4, (1, 1, 1, 1), (1, 1, 1, 1)),
        (2, 4, (2, 1, 1, 2), None),
        (3, 3, (2, 1, 1), None),
    ])
    def test_trace_sink_changes_nothing(self, r, n, col_sums, row_sums):
        # every leg, chained as FlowContext.run chains them, with a trace
        # sink and without one: the same frame bytes and diagnostics, and a
        # trace row per grid point
        ctx = FlowContext(r, n, col_sums, row_sums)
        cache, frames = ctx.cache, {}
        for leg in ctx.legs():
            def family(t, leg=leg):
                return leg.family(t) + _weight_terms(r, n)

            coeffs = start_coeffs(cache, family(leg.grid[:1]), np.random.default_rng(0))
            start = cache.identity() if leg.start is None else frames[leg.start]
            trace = []
            frame, diag = transport(start, cache, family, leg.grid, coeffs, trace, leg.name)
            bare, bare_diag = transport(start, cache, family, leg.grid, coeffs, leg=leg.name)
            assert diag == bare_diag
            assert [a.tobytes() for a in frame] == [b.tobytes() for b in bare]
            assert [t for _, t, _ in trace] == list(leg.grid)
            frames[leg.name] = frame

    def test_refused_start(self, monkeypatch):
        # a start frame turned by 30 degrees in the 2 x 2 block
        cache = self._planted()
        start = cache.identity()
        cos, sin = math.cos(math.radians(30)), math.sin(math.radians(30))
        start[1] = np.array([[[cos, -sin], [sin, cos]]])
        (got, want), _ = self._both(monkeypatch, start, cache, lambda t: [self.Z],
                                    np.geomspace(1.0, 2.0, 8), [1.0])
        self._assert_same(got, want)
        assert got == "X: start frame overlap 0.8660 below threshold"

    def test_start_check_stays_inside_weight_blocks(self):
        # E_11^(1) - E_11^(2) is 0 on both 1 x 1 blocks, a tie across blocks
        # that never interact, and diag(1, -1) on the 2 x 2 block: the first
        # draw is accepted
        cache = self._planted()
        ones, pair = cache.normalised_sum([self.Z], [1.0])
        assert not ones.any() and np.diff(np.linalg.eigvalsh(pair)).min() > 1
        coeffs = start_coeffs(cache, [self.Z], np.random.default_rng(0), "X")
        assert np.array_equal(coeffs, _draw_coeffs(np.random.default_rng(0), 1))


class TestDiagonalParts:
    # the last two blocks are degenerate: their second column is empty, so
    # Omega_12 and Omega_23 are 0 on (2,3,(2,0,1)) and Omega_12 is 0 on
    # (2,2,(2,0)), where every weight block is 1 x 1, so kappa_12 is diagonal
    BLOCKS = [(3, 3, (1, 1, 1), (1, 1, 1)), (3, 3, (2, 1, 1), None),
              (2, 3, (2, 0, 1), None), (2, 2, (2, 0), None)]
    # the kappa_ij and Omega_ab with no off-diagonal entry on the block; they
    # are rows of F like every other kappa_ij and Omega_ab
    DEGENERATE = {(2, 0, 1): {(omega, 1, 2, 2), (omega, 2, 3, 2)},
                  (2, 0): {(omega, 1, 2, 2), (kappa, 1, 2, 2)}}

    @staticmethod
    def exchange(i, j, a, b):
        """E_ij^(a) E_ji^(b), a part that is not diagonal."""
        return op_E(i, j, a) * op_E(j, i, b)

    @staticmethod
    def held(cache):
        """The parts held as rows of F and those held as rows of D, in the
        order of the rows."""
        return ([cache.parts[j] for j in cache._full_at],
                [cache.parts[j] for j in cache._diag_at])

    @pytest.mark.parametrize("r, n, col_sums, row_sums", BLOCKS)
    def test_detection_is_exact(self, r, n, col_sums, row_sums):
        # the store follows the kind: D holds the E_ii^(a) and the identity,
        # each with no off-diagonal nonzero and dense's diagonal bit for bit;
        # F holds every kappa_ij and Omega_ab, each its flat buffer at U and 0
        # off U, also the DEGENERATE ones, whose diagonal lies in U
        cache = BlockCache(r, n, weight_basis(r, n, col_sums, row_sums))
        full, diagonal = self.held(cache)
        cartans = [(op_E, i, i, a) for i in range(1, r + 1) for a in range(1, n + 1)]
        assert diagonal == cartans + [(identity,)]
        assert full == [part for part in cache.parts if part[0] in (kappa, omega)]
        assert (len(cache._full), len(cache._diag)) == (len(full), len(diagonal))
        for row, part in zip(cache._diag, diagonal):
            mat = dense(part_operator(part), cache.block)
            assert not np.count_nonzero(mat - np.diag(np.diag(mat))), part
            assert row.tobytes() == np.diag(mat)[cache.positions].tobytes(), part
        no_off_diagonal = set()
        for row, part in zip(cache._full, full):
            mat = dense(part_operator(part), cache.block)
            if not np.count_nonzero(mat - np.diag(np.diag(mat))):
                no_off_diagonal.add(part)
            flat = _whole_flat(cache, part)
            assert np.array_equal(row, flat[cache._support]), part
            assert not np.delete(flat, cache._support).any(), part
        assert no_off_diagonal == self.DEGENERATE.get(col_sums, set())
        if col_sums in self.DEGENERATE:
            return
        # composites are not held; the exact test on their dense matrices,
        # whose weight blocks hold all of them
        composites = [(weight_op, i, n) for i in range(1, r + 1)]
        others = [(self.exchange, 1, 2, 1, 2), (self.exchange, 2, 3, 3, 1),
                  (nested_casimir, 2, n)]
        for part in composites + others:
            mat = dense(part_operator(part), cache.block)
            off_diagonal = np.count_nonzero(mat - np.diag(np.diag(mat)))
            assert (part in composites) == (off_diagonal == 0), part
            assert np.array_equal(cache.full(cache.split(mat)), mat), part

    @pytest.mark.parametrize("r, n, col_sums, row_sums", [
        (5, 5, (1, 1, 1, 1, 1), (1, 1, 1, 1, 1)),
        (4, 3, (2, 1, 1), None),
        (2, 3, (2, 0, 1), None),
    ])
    def test_entry_rows_are_dense_diagonals(self, r, n, col_sums, row_sums):
        # the rows of the E_ii^(a) and the identity, written off the entry
        # array: the diagonal of dense's matrix bit for bit, and no
        # off-diagonal nonzero in it; so D, and the Gram matrix computed
        # from F and D, are what building every part by dense gives
        cache = BlockCache(r, n, weight_basis(r, n, col_sums, row_sums))
        written = [part for part in cache.parts if part[0] in (op_E, identity)]
        assert len(written) == r * n + 1
        assert self.held(cache)[1] == written
        assert cache._diag.shape == (len(written), cache.dim)
        for row, part in zip(cache._diag, written):
            mat = dense(part_operator(part), cache.block)
            assert not np.count_nonzero(mat - np.diag(np.diag(mat))), part
            assert row.tobytes() == np.diag(mat)[cache.positions].tobytes(), part

    @pytest.mark.parametrize("r, n, col_sums, row_sums", BLOCKS)
    def test_stacks_and_mat_are_dense(self, r, n, col_sums, row_sums):
        cache = BlockCache(r, n, weight_basis(r, n, col_sums, row_sums))
        for part in cache.parts:
            mat = dense(part_operator(part), cache.block)
            stacks = cache.combine([(1.0, part)])
            for got, want in zip(stacks, cache.split(mat)):
                assert np.array_equal(got, want)
            assert np.array_equal(cache.full(stacks), mat)
        # the weights W_i summed from their E_ii^(a) parts: the weight
        # blocks of weight_op's own dense matrix, bit for bit
        for i, terms in enumerate(_weight_terms(r, n), start=1):
            mat = dense(weight_op(i, n), cache.block)
            for got, want in zip(cache.combine(terms), cache.split(mat)):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("r, n, col_sums, row_sums", BLOCKS)
    def test_sums_match_whole_buffers(self, r, n, col_sums, row_sums):
        # mixed diagonal and full parts, a repeated part, zeros and
        # negatives, summed for several points at once, against the exact
        # sums of the float weights and parts
        cache = BlockCache(r, n, weight_basis(r, n, col_sums, row_sums))
        parts = [(op_E, 1, 1, 1), (omega, 1, 2, r), (identity,), (op_E, r, r, 2),
                 (kappa, 1, r, n), (op_E, 1, 1, n), (op_E, 2, 2, n), (omega, 1, 2, r)]
        rng = np.random.default_rng(5)
        coeffs = rng.uniform(-3.0, 3.0, (4, len(parts))) / 7
        coeffs[1, 2] = coeffs[2, 1] = coeffs[3, :] = 0.0
        coeffs[:, 5] = 0.0  # a part left out at every point
        # one operator whose coefficients are arrays over the four points
        weights = cache._rows([list(zip(coeffs.T, parts))], len(coeffs))[:, 0]
        assert weights.shape == (len(coeffs), len(cache.parts))
        assert not weights[:, cache.parts.index(parts[5])].any()
        flats = np.array([_whole_flat(cache, part) for part in cache.parts])
        sums = cache.sum_parts(weights)
        for w, got in zip(weights, sums):
            for e in range(cache.size):
                assert _within_dot_bound(got[e], zip(w, flats[:, e]), len(cache.parts))
            for a, b in zip(cache.combine(zip(w, cache.parts)), cache._views(got)):
                assert np.array_equal(a, b)
        # the Gram matrix of the whole part list
        assert cache._gram.shape == (len(cache.parts), len(cache.parts))
        for j in range(len(cache.parts)):
            for k in range(len(cache.parts)):
                assert _within_dot_bound(cache._gram[j, k], zip(flats[j], flats[k]), cache.size)

    @pytest.mark.parametrize("r, n, col_sums, row_sums", [
        (4, 4, (1, 1, 1, 1), (1, 1, 1, 1)),
        (3, 3, (2, 1, 1), None),
    ])
    def test_sum_does_not_depend_on_batch(self, r, n, col_sums, row_sums):
        # each point's sum alone, against the same weights at every position
        # of batches of 1 to 5 points: equal bit for bit
        ctx = FlowContext(r, n, col_sums, row_sums)
        cache = ctx.cache
        weight_terms = _weight_terms(r, n)
        rng = np.random.default_rng(2)
        weights = []
        for leg in ctx.legs():
            for t in leg.grid[::16]:
                ops = leg.family(t) + weight_terms
                weights.append(cache.coefficients(ops, rng.uniform(1.0, 2.0, len(ops)))[0])
        alone = [cache.sum_parts([w])[0] for w in weights]
        for count in range(1, 6):
            for g in range(count):
                for i, w in enumerate(weights):
                    others = rng.choice(len(weights), count)
                    batch = [weights[j] for j in others]
                    batch[g] = w
                    assert np.array_equal(cache.sum_parts(batch)[g], alone[i])

    @pytest.mark.parametrize("r, n, col_sums, row_sums", [
        (2, 3, (1, 1, 1), None),
        (3, 4, (1, 1, 1, 1), None),
        (2, 4, (2, 1, 1, 2), None),
        (4, 3, (2, 1, 1), None),
        (3, 3, (2, 2, 2), None),
        (4, 4, (1, 1, 1, 1), (1, 1, 1, 1)),
    ])
    def test_weights_do_not_depend_on_points(self, r, n, col_sums, row_sums):
        # every leg's family evaluated once on its whole grid, as transport
        # evaluates it, against each grid point evaluated alone as a
        # one-point array: equal bit for bit
        ctx = FlowContext(r, n, col_sums, row_sums)
        cache = ctx.cache
        weight_terms = _weight_terms(r, n)
        rng = np.random.default_rng(2)
        for leg in ctx.legs():
            def family(t, leg=leg):
                return leg.family(t) + weight_terms
            coeffs = rng.uniform(1.0, 2.0, len(family(leg.grid[:1])))
            whole = cache.coefficients(family(leg.grid), coeffs, len(leg.grid))
            assert whole.shape == (len(leg.grid), len(cache.parts))
            for p, t in enumerate(leg.grid):
                alone = cache.coefficients(family(np.array([t])), coeffs)
                assert np.array_equal(alone, whole[p:p + 1]), (leg.name, p)

    def test_zero_coefficients_weigh_nothing(self):
        # a part whose coefficient is 0 at every point has weight 0 at every
        # point; a part whose coefficient is 0 at one point has weight 0 there
        cache = TestBatchedTransport._planted()
        grid = np.geomspace(1.0, 2.0, 8)
        ops = [[(grid - grid[3], (op_E, 1, 1, 1)), (0.0 * grid, (op_E, 1, 1, 2)),
                (0.0, TestBatchedTransport.X)],
               _weight_terms(2, 2)[1]]
        weights = cache.coefficients(ops, [1.0, 1.0], len(grid))
        for part in [(op_E, 1, 1, 2), TestBatchedTransport.X]:
            assert not weights[:, cache.parts.index(part)].any()
        column = weights[:, cache.parts.index((op_E, 1, 1, 1))]
        assert column[3] == 0.0
        assert np.count_nonzero(column) == len(grid) - 1
        # that point's sum is the weight operator's alone
        alone = cache.sum_parts(cache.coefficients(ops[1:], [1.0]))[0]
        assert np.array_equal(cache.sum_parts(weights[3:4])[0], alone)


class TestBlockCache:
    def test_uses_the_block_it_is_given(self):
        block = weight_basis(2, 3, (1, 1, 1))
        cache = BlockCache(2, 3, block)
        assert cache.block is block
        assert BlockCache(2, 3, list(block)).block is not block

    @pytest.mark.parametrize("r, n, col_sums, row_sums, sizes", [
        # a whole block past the cap's 11,585 monomials, told by its
        # closed-form size 2^14 before any count
        (2, 14, (1,) * 14, None, None),
        # row sums of the wrong length or total select no weight space
        (2, 3, (1, 1, 1), (1, 1, 1), []),
        (2, 3, (1, 1, 1), (2, 2), []),
        # one weight space of C(16, 8) = 12,870 monomials: the count stops
        # once its ways pass the cap
        (2, 16, (1,) * 16, (8, 8), None),
    ])
    def test_weight_sizes_past_the_cap_or_empty(self, r, n, col_sums, row_sums, sizes):
        assert spectralflow.weight_sizes(r, n, col_sums, row_sums) == sizes

    @pytest.mark.parametrize("r, n, col_sums, row_sums", [
        (2, 3, (1, 1, 1), None),
        (3, 3, (2, 0, 1), None),
        (1, 2, (2, 1), None),
        (4, 4, (1, 1, 1, 1), (1, 1, 1, 1)),
    ])
    def test_holds_exactly_the_primitive_parts(self, r, n, col_sums, row_sums):
        # the fixed part list: for each row i the E_ii^(a) and then the
        # kappa_ij, j > i; the Omega_ab, a < b, lexicographically; the
        # identity. It is the order in which the legs' families first name
        # the parts, leg A first, so float sums keep that order
        ctx = FlowContext(r, n, col_sums, row_sums)
        cache = ctx.cache
        want = ([part for i in range(1, r + 1)
                 for part in [(op_E, i, i, a) for a in range(1, n + 1)]
                 + [(kappa, i, j, n) for j in range(i + 1, r + 1)]]
                + [(omega, a, b, r) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
                + [(identity,)])
        assert len(want) == r * n + math.comb(r, 2) + math.comb(n, 2) + 1
        assert cache.parts == spectralflow.primitive_parts(r, n) == want
        named = {}
        for leg in ctx.legs():
            for terms in leg.family(leg.grid[:1]):
                named.update(dict.fromkeys(part for _, part in terms))
        assert list(named) == want
        # one row of F or D per part, and weights over exactly this list
        assert sorted(cache._full_at.tolist() + cache._diag_at.tolist()) == list(range(len(want)))
        assert (len(cache._full), len(cache._diag)) == (len(cache._full_at), len(cache._diag_at))
        assert cache._gram.shape == (len(want), len(want))
        rows = cache.coefficients([[(1.0, part)] for part in want], np.ones(len(want)))
        assert rows.shape == (1, len(want))

    @pytest.mark.parametrize("r, n, col_sums, row_sums", [
        (2, 3, (1, 1, 1), None),
        (3, 3, (2, 0, 1), None),
        (1, 2, (2, 1), None),
        (4, 4, (1, 1, 1, 1), (1, 1, 1, 1)),
    ])
    def test_estimate_covers_the_parts(self, r, n, col_sums, row_sums):
        # the weight spaces counted by columns are the cache's blocks, and
        # the estimate's part term, C(r,2) + C(n,2) rows of sum d^2 floats
        # and every part as a diagonal, covers F and D as the cache built
        # them (a row of F takes |U| <= sum d^2 floats, and a part held as a
        # diagonal dim <= sum d^2)
        cache = FlowContext(r, n, col_sums, row_sums).cache
        sizes = spectralflow.weight_sizes(r, n, col_sums, row_sums)
        assert sorted(sizes) == [idx.shape[1] for idx in cache.batches for _ in idx]
        assert sum(d * d for d in sizes) == cache.size
        assert cache._full.shape[1] == len(cache._support) <= cache.size
        parts = 8 * ((math.comb(r, 2) + math.comb(n, 2)) * cache.size
                     + len(cache.parts) * cache.dim)
        assert parts >= cache._full.nbytes + cache._diag.nbytes
        estimate = spectralflow.flow_bytes(r, n, sizes, FlowOpts().steps)
        assert estimate >= parts + 8 * cache.dim ** 2 + cache._gram.nbytes

    @pytest.mark.parametrize("r, n, col_sums, row_sums", [
        (2, 3, (1, 1, 1), None),
        (3, 3, (2, 0, 1), None),
        (3, 4, (2, 1, 1, 2), None),
        (3, 4, (2, 1, 1, 2), (2, 2, 2)),
        (2, 3, (1, 1, 1), (2, 0)),
        (2, 0, (), None),
    ])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_batches_group_the_weight_spaces(self, r, n, col_sums, row_sums, reverse):
        # the weight spaces by the row sums of the basis monomials, in order
        # of first appearance with their positions ascending, batched by
        # size; a list of monomials in another order is split the same way
        block = weight_basis(r, n, col_sums, row_sums)
        if reverse:
            block = list(block)[::-1]
        spaces = {}
        for pos, m in enumerate(block):
            spaces.setdefault(m.row_sums(), []).append(pos)
        by_size = {}
        for positions in spaces.values():
            by_size.setdefault(len(positions), []).append(positions)
        cache = BlockCache(r, n, block)
        assert [idx.tolist() for idx in cache.batches] == [by_size[d] for d in sorted(by_size)]
        assert cache.positions.tolist() == [p for idx in cache.batches for p in idx.ravel()]
        assert cache.size == sum(d * d * len(by_size[d]) for d in by_size)

    # the blocks above, S_5, and (2,3,(2,0,1)), whose Omega_12 and Omega_23
    # are 0, rows of F that are 0
    COMPACT = [
        (2, 3, (1, 1, 1), None),
        (3, 3, (2, 0, 1), None),
        (1, 2, (2, 1), None),
        (4, 4, (1, 1, 1, 1), (1, 1, 1, 1)),
        (5, 5, (1, 1, 1, 1, 1), (1, 1, 1, 1, 1)),
        (2, 3, (2, 0, 1), None),
    ]

    @staticmethod
    def _dense_rows(cache):
        """The rows of F as flat buffers of all sum k d^2 weight-block
        entries, cut from liealg.dense, in the order of F's rows."""
        rows = [_whole_flat(cache, cache.parts[j]) for j in cache._full_at]
        return np.array(rows).reshape(len(rows), cache.size)

    @pytest.mark.parametrize("r, n, col_sums, row_sums", COMPACT)
    def test_rows_are_held_on_their_union(self, r, n, col_sums, row_sums):
        # U is the sorted union of the positions where some row of F is
        # nonzero: each row of F is its dense row at U, and every dense row
        # is zero off U; every part, F's, D's or 0, combines to its dense
        # weight blocks exactly
        cache = BlockCache(r, n, weight_basis(r, n, col_sums, row_sums))
        rows = self._dense_rows(cache)
        assert np.array_equal(cache._support, np.flatnonzero(rows.any(axis=0)))
        assert np.array_equal(cache._full, rows[:, cache._support])
        assert not np.delete(rows, cache._support, axis=1).any()
        for part in cache.parts:
            mat = dense(part_operator(part), cache.block)
            stacks = cache.combine([(1.0, part)])
            assert len(stacks) == len(cache.batches)
            for got, want in zip(stacks, cache.split(mat)):
                assert np.array_equal(got, want), part

    @pytest.mark.parametrize("r, n, col_sums, row_sums", COMPACT)
    def test_sum_matches_dense_rows(self, r, n, col_sums, row_sums):
        # each point's sum on U against the same products over the dense
        # rows of F, w_F @ F and then w_D @ D on the diagonal positions
        cache = BlockCache(r, n, weight_basis(r, n, col_sums, row_sums))
        rows = self._dense_rows(cache)
        weights = np.random.default_rng(4).uniform(-2.0, 2.0, (5, len(cache.parts)))
        weights[1, :] = 0.0
        for w, got in zip(weights, cache.sum_parts(weights)):
            want = w[cache._full_at] @ rows
            want[cache._diagonal] += w[cache._diag_at] @ cache._diag
            assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)
            assert not np.delete(got, np.union1d(cache._support, cache._diagonal)).any()

    @pytest.mark.parametrize("part", [
        (weight_op, 1, 3),
        (nested_casimir, 2, 3),
        (jm, 2, 2),
        (kappa, 2, 1, 3),  # kappa_ij is listed with i < j only
        (omega, 1, 2, 3),  # an Omega of the wrong rank
        (op_E, 1, 2, 1),
        (op_E, 3, 3, 1),  # a row the block does not have
    ])
    def test_other_parts_raise(self, monkeypatch, part):
        # a term naming a part outside the list is refused, not built
        cache = BlockCache(2, 3, weight_basis(2, 3, (1, 1, 1)))

        def forbidden(*args, **kwargs):
            raise AssertionError("a part was built")

        monkeypatch.setattr(spectralflow, "dense", forbidden)
        message = "is not a primitive part of the r = 2, n = 3 block"
        with pytest.raises(ValueError, match=message):
            cache.combine([(1.0, (op_E, 1, 1, 1)), (1.0, part)])
        with pytest.raises(ValueError, match=message):
            cache.coefficients([[(1.0, (op_E, 1, 1, 1))], [(0.0, part)]], [1.0, 1.0])
        with pytest.raises(ValueError, match=message):
            cache.combine([(1.0, part)])
        assert part not in cache.parts

    @pytest.mark.parametrize("r, n, col_sums, row_sums", [
        (2, 3, (1, 1, 1), None),
        (3, 2, (2, 2), None),
        (2, 4, (2, 1, 1, 2), None),
        (4, 4, (1, 1, 1, 1), (1, 1, 1, 1)),
    ])
    def test_parts_vanish_outside_weight_blocks(self, r, n, col_sums, row_sums):
        # every part of every leg family, limit and decoder, dual parts
        # included: its whole-block matrix is exactly 0 between monomials of
        # different row sums, so the weight blocks hold all of it
        ctx = FlowContext(r, n, col_sums, row_sums)
        basis = ctx.basis
        z0, q0 = (0.0,) * n, (0.0,) * r
        limits = ([nabla_terms(i, z0, ctx.q, n) for i in range(1, r + 1)]
                  + [gaudin_terms(a, ctx.z, q0, r) for a in range(1, n + 1)])
        parts = set()
        for leg in ctx.legs():
            for terms in leg.family(leg.grid[len(leg.grid) // 2]) + limits:
                parts |= {part for _, part in terms}
        # the legs sum primitive parts only; the composites the flow reads
        # through them are listed here so that they are checked too
        assert {part[0] for part in parts} == {op_E, kappa, omega, identity}
        assert parts <= set(ctx.cache.parts)
        parts |= {(weight_op, i, n) for i in range(1, r + 1)}
        parts |= {(nested_casimir, i, n) for i in range(1, r + 1)}
        parts |= {(dual_nested_casimir, a, r) for a in range(1, n + 1)}
        parts |= {(jm, a, r) for a in range(2, n + 1)}
        parts |= {(dual_op_E, a, a, i) for a in range(1, n + 1) for i in range(1, r + 1)}
        parts |= {(dual_kappa, a, b, r) for b in range(2, n + 1) for a in range(1, b)}
        assert {part[0] for part in parts} >= {dual_op_E, dual_kappa, dual_nested_casimir,
                                               jm, weight_op, nested_casimir}
        weights = [m.row_sums() for m in basis]
        outside = np.array([[wi != wj for wj in weights] for wi in weights])
        for part in parts:
            mat = dense(part_operator(part), basis)
            assert not mat[outside].any(), part
            # a primitive as the cache holds it, a composite by its weight blocks
            got = ctx.cache.full(ctx.cache.combine([(1.0, part)]) if part in ctx.cache.parts
                                 else ctx.cache.split(mat))
            assert np.array_equal(got, mat), part

    def test_dense_matches_word_by_word(self, monkeypatch):
        # every part the leg table uses, against the float matrix built
        # monomial by monomial through Operator.apply_monomial
        built = []

        def recording_dense(op, block):
            mat = spectralflow_dense(op, block)
            built.append((op, mat))
            return mat

        spectralflow_dense = spectralflow.dense
        monkeypatch.setattr(spectralflow, "dense", recording_dense)
        r, n = 2, 3
        ctx = FlowContext(r, n, (1, 1, 1))
        frames = {name: frame for name, frame, _ in ctx.run("ABD")}
        ctx.classes(frames["B"], 0)
        ctx.extract_T(frames["B"], ctx.basis)
        ctx.extract_S(frames["D"], ctx.basis)
        basis = ctx.basis
        # only the off-diagonal primitives, kappa_ij and Omega_ab, go through
        # dense: the E_ii^(a) and the identity are written off the entry
        # array, and the weights, dual kappa_ab and both corner Casimirs are
        # read off the parts, so no composite is built
        off_diagonal = ([kappa(i, j, n) for j in range(2, r + 1) for i in range(1, j)]
                        + [omega(a, b, r) for b in range(2, n + 1) for a in range(1, b)])
        assert len(built) == math.comb(r, 2) + math.comb(n, 2)
        assert ({frozenset(op.terms.items()) for op, _ in built}
                == {frozenset(op.terms.items()) for op in off_diagonal})
        # built once each, when the cache is built, in the order of the list
        assert [op.terms for op, _ in built] == [
            part_operator(part).terms for part in ctx.cache.parts
            if part[0] in (kappa, omega)]
        # the parts written off the entry array, as the cache holds them
        for part in ctx.cache.parts:
            if part[0] in (op_E, identity):
                built.append((part_operator(part),
                              ctx.cache.full(ctx.cache.combine([(1.0, part)]))))
        # the composites, which the flow no longer builds, word by word too
        for op in ([weight_op(i, n) for i in range(1, r + 1)]
                   + [jm(a, r) for a in range(2, n + 1)]
                   + [dual_kappa(a, b, r) for b in range(2, n + 1) for a in range(1, b)]
                   + [nested_casimir(i, n) for i in range(1, r + 1)]
                   + [dual_nested_casimir(a, r) for a in range(1, n + 1)]):
            built.append((op, spectralflow_dense(op, basis)))
        index = {m: i for i, m in enumerate(basis)}
        norms = [float(sqnorm(m)) for m in basis]
        for op, mat in built:
            expected = np.zeros((len(basis), len(basis)))
            for src, m in enumerate(basis):
                for image, coeff in op.apply_monomial(m).items():
                    dst = index[image]
                    expected[dst, src] = float(coeff) * math.sqrt(norms[dst] / norms[src])
            assert np.array_equal(mat, expected)

    @pytest.mark.parametrize("r, n, col_sums", [(2, 3, (1, 1, 1)), (3, 2, (2, 2))])
    def test_float_families_match_exact(self, r, n, col_sums):
        # each family the leg table sums in floats, against the dense matrix
        # of the exact liealg family at the same (dyadic, so exact) point
        basis = weight_basis(r, n, col_sums)
        cache = BlockCache(r, n, basis)
        z = (Fraction(3, 4), Fraction(5, 2), Fraction(29, 8))[:n]
        q = (Fraction(7, 2), Fraction(1, 4), Fraction(9, 8))[:r]
        zf, qf = tuple(map(float, z)), tuple(map(float, q))
        z0, q0 = (0,) * n, (0,) * r
        pairs = []
        for i in range(1, r + 1):
            pairs.append((cache.nabla_mat(i, zf, qf), nabla(i, z, q, n)))
            pairs.append((cache.nabla_mat(i, (0.0,) * n, qf), nabla(i, z0, q, n)))
        for a in range(1, n + 1):
            pairs.append((cache.gaudin_mat(a, zf, qf), gaudin_h(a, z, q, r)))
            pairs.append((cache.gaudin_mat(a, zf, (0.0,) * r), gaudin_h(a, z, q0, r)))
            pairs.append((cache.dual_nabla0_mat(a, zf), dual_nabla(a, q0, z, r)))
        for stacks, op in pairs:
            assert np.max(np.abs(cache.full(stacks) - dense(op, basis))) < 1e-12

    @pytest.mark.parametrize("r, n, col_sums", [(2, 3, (1, 1, 1)), (3, 2, (2, 2))])
    def test_normalised_sum_matches_dense_families(self, r, n, col_sums):
        # coefficient rows and the Gram matrix against every operator of
        # the family built and normalised as a dense matrix
        ctx = FlowContext(r, n, col_sums)
        cache = ctx.cache
        weight_terms = _weight_terms(r, n)
        # the weights summed from their E_ii^(a) parts, against weight_op
        weights = [dense(weight_op(i, n), ctx.basis) for i in range(1, r + 1)]
        families = _dense_families(ctx)
        rng = np.random.default_rng(1)
        for leg in ctx.legs():
            grid = leg.grid
            for t in (grid[0], grid[len(grid) // 2], grid[-1]):
                ops = leg.family(t) + weight_terms
                coeffs = rng.uniform(1.0, 2.0, len(ops))
                expected = _combined(families[leg.name](t) + weights, coeffs)
                got = cache.full(cache.normalised_sum(ops, coeffs))
                err = np.linalg.norm(got - expected) / np.linalg.norm(expected)
                assert err < 1e-12, (leg.name, t, err)

    def test_each_part_is_held_once(self):
        # every part is one row of F (|U| < sum k d^2 floats) or of D (dim
        # floats), however often and however it is asked for, and the
        # weight-block stacks of a part are views of one flat buffer of sum
        # k d^2 floats: no dim x dim copy
        cache = BlockCache(2, 4, weight_basis(2, 4, (2, 1, 1, 2)))
        full = [(omega, 3, 4, 2), (omega, 1, 2, 2), (kappa, 1, 2, 4)]
        diagonal = [(op_E, 1, 1, 2), (identity,)]
        for part in full + diagonal:
            cache.combine([(1.0, part)])
        cache.combine([(0.5, part) for part in full + diagonal])
        cache.coefficients([[(1.0, part)] for part in diagonal + full], np.ones(5))
        cache.combine([(1.0, full[0])])
        held_full, held_diagonal = TestDiagonalParts.held(cache)
        assert set(full) <= set(held_full) and set(diagonal) <= set(held_diagonal)
        # the 8 E_ii^(a) and the identity in D; kappa_12 and the 6 Omega_ab in F
        assert (len(held_full), len(held_diagonal)) == (7, 9)
        assert len(cache.parts) == len(cache._full) + len(cache._diag) == 16
        assert len(cache._support) < cache.size
        assert cache._full.nbytes == len(held_full) * len(cache._support) * 8
        assert cache._diag.nbytes == len(held_diagonal) * cache.dim * 8
        for part in full:
            stacks = cache.combine([(1.0, part)])
            assert len(stacks) > 1
            assert all(stack.base is stacks[0].base for stack in stacks)
            assert stacks[0].base.size == sum(stack.size for stack in stacks) == cache.size
        assert cache.size < cache.dim ** 2

    @pytest.mark.parametrize("cancelling", [
        [(1.0, (op_E, 1, 1, 1)), (-1.0, (op_E, 1, 1, 1))],
        # W_1 + W_2 = sum_a (E_11^(a) + E_22^(a)) is 3 times the identity on
        # the block; in floats 0.1 + 0.1 + 0.1 - 0.3 is not 0, so the dense
        # sum keeps a rounding-noise operator of norm about 1e-16
        [(0.1, (op_E, i, i, a)) for i in (1, 2) for a in (1, 2, 3)] + [(-0.3, (identity,))],
    ])
    def test_cancelling_operator_is_skipped(self, cancelling):
        cache = BlockCache(2, 3, weight_basis(2, 3, (1, 1, 1)))
        other = [(1.0, (op_E, 1, 1, 1)), (2.0, (op_E, 2, 2, 3))]
        got = cache.full(cache.normalised_sum([cancelling, other], [1.5, 1.25]))
        mat = cache.full(cache.combine(other))
        assert np.max(np.abs(got - 1.25 * mat / np.linalg.norm(mat))) < 1e-12

    @pytest.mark.parametrize("ops, coeffs", [
        # a coefficient that is not finite, at one of three points
        ([[(np.array([1.0, np.inf, 2.0]), (op_E, 1, 1, 1))]], [1.0]),
        # finite coefficients whose squared norm overflows
        ([[(1e200, (op_E, 1, 1, 1)), (1.0, (op_E, 2, 2, 3))]], [1.0]),
        # finite coefficients and norms, a weight that overflows
        ([[(1.0, (op_E, 1, 1, 1))]], [np.inf]),
    ])
    def test_overflow_is_named(self, ops, coeffs):
        # numpy warns of nothing (RuntimeWarning is an error here): the leg
        # is named with the overflow
        cache = BlockCache(2, 3, weight_basis(2, 3, (1, 1, 1)))
        with pytest.raises(ContinuationError, match=r"^X: family overflows the float range"):
            cache.coefficients(ops, coeffs, 3, leg="X")


class TestFlowBlock:
    @pytest.mark.parametrize("s", [10, 1000])
    def test_z_and_q_scales_trade(self, s):
        # (s z, q) and (z, s q) give legs A and B one normalised family up to
        # constants on the block, and q spread s wide is s q shifted: each
        # decodes the tableaux of the base point
        def tableaux(**kwargs):
            return [(b.label, b.s_tableau, b.t_tableau)
                    for b in flow_block(3, 3, (2, 1, 1), **kwargs).branches]

        base = tableaux()
        assert tableaux(z=(s, 2 * s, 3 * s), q=(1, 2, 3)) == base
        assert tableaux(z=(1, 2, 3), q=(s, 2 * s, 3 * s)) == base
        assert tableaux(z=(1, 2, 3), q=(0, s, 2 * s)) == base

    def test_product_of_scales_is_what_fails(self):
        # a q spread of 1e4 and a z scale of 1e4 end on one leg B error, with
        # one Casimir value to 15 digits; scaling z down by as much lets the
        # q spread of 1e4 run, so the flow fails to follow the product of the
        # scales, not the q spread
        prefix = "B: no corner shape matches Casimir value 2.7498 at letter 2: "
        values = []
        for z, q in [(None, (0, 1e4)), ((1e4, 2e4), None)]:
            with pytest.raises(DecodingError) as err:
                flow_block(2, 2, (1, 1), z=z, q=q)
            assert str(err.value).startswith(prefix)
            values.append(float(str(err.value)[len(prefix):].split()[0]))
        assert values[0] == pytest.approx(values[1], rel=1e-14, abs=0)
        report = verify_main_theorem(2, 2, col_sums=(1, 1), z=(1e-4, 2e-4), q=(0, 1e4))
        assert report["agreement"] and report["checked"] == 4 and not report["failures"]

    def test_failure_is_not_retried(self, monkeypatch):
        calls = []

        def failing(self, *args, **kwargs):
            calls.append(self)
            raise ContinuationError("forced")

        monkeypatch.setattr(FlowContext, "run", failing)
        with pytest.raises(ContinuationError, match="forced"):
            flow_block(2, 2, (1, 1), row_sums=(1, 1))
        assert len(calls) == 1

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

    @staticmethod
    def _clustered(monkeypatch, ctx):
        """ctx.classes at leg B's end frame, after legs A and B, with the
        (records, residuals) handed to each coalescence_classes call
        captured; returns (the classes, the captured pairs)."""
        handed = []

        def capture(records, residuals):
            handed.append((np.asarray(records), np.asarray(residuals)))
            return coalescence_classes(records, residuals)

        monkeypatch.setattr(spectralflow, "coalescence_classes", capture)
        *_, (_, frame, _) = ctx.run("AB")
        return ctx.classes(frame, 0), handed

    def test_endpoint_eigenvalues_are_exact_limits(self, monkeypatch):
        # z = 0 records must match the limit family to continuation accuracy
        ctx = FlowContext(2, 2, (1, 1), (1, 1))
        _, [(records, _)] = self._clustered(monkeypatch, ctx)
        cache = ctx.cache
        limit_ops = [cache.full(cache.nabla_mat(i, (0.0, 0.0), ctx.q)) for i in (1, 2)]
        exact = set()
        vals = np.linalg.eigvalsh(limit_ops[0])
        for rec in records:
            assert min(abs(rec[0] - v) for v in vals) < 1e-6
            exact.add(round(rec[0], 6))
        assert len(exact) == 2

    def test_records_end_in_exact_row_sums(self, monkeypatch):
        # the r weight columns of the records are the branches' row sums,
        # exactly, with residual 0; the classes are those of the records
        ctx = FlowContext(2, 3, (1, 1, 1))
        classes, [(records, residuals)] = self._clustered(monkeypatch, ctx)
        row_sums = np.array([m.row_sums() for m in ctx.basis], dtype=float)
        assert records.shape == residuals.shape == (ctx.cache.dim, ctx.r + ctx.r)
        assert np.array_equal(records[:, -ctx.r:], row_sums)
        assert not residuals[:, -ctx.r:].any()
        assert classes == _pairwise_classes(records, residuals)

    def test_flow_computes_no_records(self, monkeypatch):
        # the tableau check reads out only the decoders: no record is
        # computed and nothing is clustered
        def forbidden(*args, **kwargs):
            raise AssertionError("flow computed a record")

        monkeypatch.setattr(spectralflow, "coalescence_classes", forbidden)
        monkeypatch.setattr(FlowContext, "classes", forbidden)
        report = verify_main_theorem(2, 3, col_sums=(1, 1, 1))
        assert report["agreement"]
        assert report["checked"] == 8
        assert report["failures"] == report["mismatches"] == []

    def test_context_is_freed_with_its_last_reference(self):
        # no attribute of a context, such as the mirrored side's part map,
        # refers back to it, so its block cache goes with its last
        # reference and not at a later pass of the cycle collector, which
        # would let the caches of several flows pile up
        ctx = FlowContext(2, 3, (1, 1, 1))
        for _ in ctx.run("ABD"):
            pass
        ref = weakref.ref(ctx)
        gc.disable()
        try:
            del ctx
            assert ref() is None
        finally:
            gc.enable()

    def test_shape_consistency(self):
        result = flow_block(2, 3, (1, 1, 1))
        for branch in result.branches:
            assert branch.s_tableau.shape == branch.t_tableau.shape

    def test_classes_group_by_recording_tableau(self):
        # fibers of (recording tableau, weight): shapes (3) give four
        # singletons, shape (2,1) gives two classes of two
        ctx = FlowContext(2, 3, (1, 1, 1))
        *_, (_, frame, _) = ctx.run("AB")
        classes = ctx.classes(frame, 0)
        assert sorted(len(c) for c in classes) == [1, 1, 1, 1, 2, 2]
        for cls in classes:
            symbols = {rsk(ctx.basis[i])[1] for i in cls}
            assert len(symbols) == 1

    def test_base_points_agree(self):
        res_a = flow_block(2, 3, (1, 1, 1))
        res_b = flow_block(2, 3, (1, 1, 1), z=(1.0, 2.0, 4.0))
        for ba, bb in zip(res_a.branches, res_b.branches):
            assert ba.label == bb.label
            assert ba.s_tableau == bb.s_tableau
            assert ba.t_tableau == bb.t_tableau

    def test_later_legs_start_at_leg_a_end(self):
        ctx = FlowContext(2, 3, (1, 1, 1), z=(1.0, 2.0, 4.0))
        legs = {leg.name: leg for leg in ctx.legs()}
        def combine(terms):
            return ctx.cache.full(ctx.cache.combine(terms))

        a_end = [combine(terms) for terms in legs["A"].family(legs["A"].grid[-1])]
        for mat_a, terms_b in zip(a_end, legs["B"].family(legs["B"].grid[0])):
            assert np.max(np.abs(mat_a - combine(terms_b))) < 1e-12
        # leg D starts on the mirrored side at the base point, where its
        # dynamical operators nabla'_a are the H_a of leg A's z_a H_a, and
        # its q_i H'_i are q_i nabla_i, each up to one scalar per weight
        # block
        z, q, r, n = ctx.z, ctx.q, ctx.r, ctx.n
        d_start = [combine(terms) for terms in legs["D"].family(1.0)]
        pairs = ([(d_start[a], a_end[r + a] / z[a]) for a in range(n)]
                 + [(d_start[n + i], q[i] * a_end[i]) for i in range(r)])
        for mat_d, mat_a in pairs:
            for stack in ctx.cache.split(mat_d - mat_a):
                scalars = stack[:, :1, :1] * np.eye(stack.shape[-1])
                assert np.max(np.abs(stack - scalars)) < 1e-12

    def test_degenerate_start_ends_before_any_transport(self, monkeypatch):
        # a planted draw weights the three weights W_i of leg D's start
        # family on (3,3,(2,2,2)) alone, a scalar on each weight block, so
        # leg D's start spectrum is degenerate; each leg draws once, and
        # every start is checked before legs A and B run
        calls, draws = [], []
        draw = spectralflow._draw_coeffs

        def counting(*args, **kwargs):
            calls.append(kwargs.get("leg"))
            return transport(*args, **kwargs)

        def planted(rng, count):
            draws.append(count)
            coeffs = draw(rng, count)
            if len(draws) == 3:  # leg D's draw: the weights come last
                coeffs[:-3] = 0
            return coeffs

        monkeypatch.setattr(spectralflow, "transport", counting)
        monkeypatch.setattr(spectralflow, "_draw_coeffs", planted)
        with pytest.raises(ContinuationError) as err:
            flow_block(3, 3, (2, 2, 2))
        assert str(err.value) == "D: degenerate combined spectrum"
        assert len(draws) == 3
        assert calls == []

    def test_decoding_error_names_its_leg(self):
        # the T decoder reads leg B's end frame and the S decoder leg D's;
        # on each of these blocks the rank-3 corner Casimir of one side
        # cannot tell (3,3) from (4,1,1)
        for col_sums, leg in [((2, 2, 2), "B"), ((3, 2, 1), "D")]:
            with pytest.raises(DecodingError) as err:
                flow_block(3, 3, col_sums)
            assert str(err.value) == (f"{leg}: exact Casimir tie at letter 3: "
                                      "shapes (3, 3) and (4, 1, 1) both give 24")

    def test_decoding_error_ends_the_flow_at_its_leg(self, monkeypatch):
        # leg B's frame is decoded as leg B ends, so its tie ends the flow
        # before leg D is transported
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs["leg"])
            return transport(*args, **kwargs)

        monkeypatch.setattr(spectralflow, "transport", counting)
        with pytest.raises(DecodingError, match="^B: exact Casimir tie at letter 3: "):
            flow_block(3, 3, (2, 2, 2))
        assert calls == ["A", "B"]

    def test_family_evaluated_once_per_leg(self, monkeypatch):
        # each leg's family is called once on its whole grid, once on its
        # start point for the coefficient draw, and once per bisection
        # midpoint; leg A of this block bisects one step, and every leg
        # takes its first draw
        calls, draws = [], []
        legs, draw = FlowContext.legs, spectralflow._draw_coeffs

        def counting_legs(self):
            def counted(leg):
                def family(t):
                    calls.append((leg.name, np.shape(t)))
                    return leg.family(t)
                return leg._replace(family=family)
            return tuple(counted(leg) for leg in legs(self))

        def counting_draw(rng, count):
            draws.append(count)
            return draw(rng, count)

        monkeypatch.setattr(FlowContext, "legs", counting_legs)
        monkeypatch.setattr(spectralflow, "_draw_coeffs", counting_draw)
        result = flow_block(2, 4, (2, 1, 1, 2))
        bisections = {d["leg"]: d["bisections"] for d in result.diagnostics["legs"]}
        assert bisections == {"A": 1, "B": 0, "D": 0}
        assert len(draws) == 3
        steps = FlowOpts().steps
        assert len(calls) == 3 + len(draws) + 1
        for name in "BD":
            assert [shape for leg, shape in calls if leg == name] == [(1,), (steps,)]
        assert [shape for leg, shape in calls if leg == "A"] == [(1,), (steps,), (1,)]

    def test_trace_records_all_legs(self):
        trace = []
        result = flow_block(2, 2, (1, 1), row_sums=(1, 1), trace=trace)
        legs = {leg for leg, _, _ in trace}
        assert legs == {"A", "B", "D"}
        assert [d["leg"] for d in result.diagnostics["legs"]] == list("ABD")


class TestDecodeChain:
    def test_exact_casimir_tie_is_named(self):
        # (3,3) and (4,1,1) both extend (3,1) by a horizontal 2-strip and
        # share the rank-3 quadratic Casimir 24
        values = [casimir_eigenvalue((3,), 1), casimir_eigenvalue((3, 1), 2), 24]
        assert casimir_eigenvalue((3, 3), 3) == casimir_eigenvalue((4, 1, 1), 3) == 24
        with pytest.raises(DecodingError) as err:
            _decode_chain((3, 4, 6), values, [0.0] * 3, 3)
        assert str(err.value) == (
            "exact Casimir tie at letter 3: shapes (3, 3) and (4, 1, 1) both give 24"
        )

    def test_nan_value_matches_no_shape(self):
        # the interval of a NaN value holds no integer; it is not decoded
        # to the shape that sorts first
        with pytest.raises(DecodingError) as err:
            _decode_chain([2], [float("nan")], [0.0], 2)
        assert str(err.value) == "no corner shape matches Casimir value nan at letter 1"

    @pytest.mark.parametrize("value, residual, held", [
        # 4.2 is within 0.3 of the Casimir value 4 of the shape (2) at rank
        # 1, but its residual does not exclude the eigenvalue 5
        (4.2, 0.9, "4.2 +- 0.9 holds integers [4, 5]"),
        # 4.25 is within 0.3 of 4, but the residual puts every eigenvalue
        # off every integer
        (4.25, 0.01, "4.25 +- 0.01 holds integers []"),
        # 5 is an integer, but no Pieri step by 2 boxes at rank 1 gives it
        (5.0, 0.1, "5.0 +- 0.1 holds integers [5]"),
    ])
    def test_interval_without_one_pieri_value_is_refused(self, value, residual, held):
        with pytest.raises(DecodingError) as err:
            _decode_chain([2], [value], [residual], 1)
        assert str(err.value) == (
            f"no corner shape matches Casimir value {value:.4f} at letter 1: {held}")

    def test_roundoff_widens_the_interval(self):
        # a quotient whose residual rounds to 0 sits a few ulps off its
        # integer; ROUNDOFF times the value covers it
        assert _decode_chain([2], [4 + 1e-14], [0.0], 1).to_lists() == [[1, 1]]

    @pytest.mark.parametrize("legs, index, casimir, other", [
        ("AD", 0, nested_casimir, "n"),
        ("AB", 1, dual_nested_casimir, "r"),
    ])
    def test_intervals_come_from_the_corner_casimirs(self, monkeypatch, legs, index, casimir,
                                                     other):
        # every branch's values and residuals are the Rayleigh quotient and
        # residual of the dense corner Casimir of the decoded side, on the
        # weight block of the branch, at the leg's end frame; each chain
        # decoded is one of these rows, one per distinct (sizes, integers)
        frames, chains = [], []
        casimirs, decode_chain = FlowContext._casimirs, spectralflow._decode_chain

        def recording_casimirs(self, frame, side, weights):
            data = casimirs(self, frame, side, weights)
            frames.append((frame, side, data))
            return data

        def recording_chain(sizes, values, residuals, max_rows, memo=None):
            chains.append((sizes, values, residuals))
            return decode_chain(sizes, values, residuals, max_rows, memo)

        monkeypatch.setattr(FlowContext, "_casimirs", recording_casimirs)
        monkeypatch.setattr(spectralflow, "_decode_chain", recording_chain)
        ctx = FlowContext(3, 3, (2, 1, 1))
        *_, (_, end, _) = ctx.run(legs)
        (ctx.extract_S, ctx.extract_T)[index](end, ctx.basis)
        (frame, side, (sizes, values, residuals)), = frames
        assert side is ctx.sides[index]
        cache = ctx.cache
        assert values.shape == residuals.shape == (cache.dim, side[0])
        mats = [dense(casimir(i, getattr(ctx, other)), ctx.basis)
                for i in range(1, side[0] + 1)]
        for batch, idx in zip(frame, cache.batches):
            for vecs, at in zip(batch, idx):
                for col, position in enumerate(at):
                    v = vecs[:, col]
                    for i, mat in enumerate(mats):
                        image = mat[np.ix_(at, at)] @ v
                        rho = v @ image
                        res = np.linalg.norm(image - rho * v)
                        scale = 1e-12 * max(1.0, abs(rho))
                        assert abs(values[position, i] - rho) <= scale
                        assert abs(residuals[position, i] - res) <= scale
        letters = np.rint(values).astype(int)
        keys = [(tuple(size), tuple(row)) for size, row in zip(sizes.tolist(), letters.tolist())]
        assert len(chains) == len(set(keys)) < cache.dim
        firsts = [keys.index(key) for key in dict.fromkeys(keys)]
        for (size, vals, res), b in zip(chains, firsts):
            assert size == sizes[b].tolist()
            assert np.array_equal(vals, values[b]) and np.array_equal(res, residuals[b])

    @pytest.mark.parametrize("side", [0, 1])
    def test_shared_chains_decode_as_each_branch_alone(self, side):
        # the tableaux of one decoder call are those of one `_decode_chain`
        # per branch on its own row of corner Casimir data
        ctx = FlowContext(3, 3, (2, 1, 1))
        *_, (_, end, _) = ctx.run("AD" if side == 0 else "AB")
        weights = ([m.row_sums() for m in ctx.basis] if side == 0
                   else [ctx.col_sums] * ctx.cache.dim)
        rows, cols = ctx.sides[side][:2]
        sizes, values, residuals = ctx._casimirs(end, ctx.sides[side], weights)
        alone = [_decode_chain(size, row, res, min(rows, cols))
                 for size, row, res in zip(sizes.tolist(), values, residuals)]
        assert ctx._decode(end, ctx.sides[side], weights) == alone

    @pytest.mark.parametrize("first, second", [(2, 5), (5, 2)])
    def test_first_failing_branch_in_basis_order_raises(self, monkeypatch, first, second):
        # branch `first` fails on an interval holding no integer (a NaN
        # value), branch `second` on one integer that no Pieri step gives
        # (its first letter shifted by 1); whichever comes first in basis
        # order raises, with the message of its chain decoded alone
        ctx = FlowContext(3, 3, (2, 1, 1))
        *_, (_, end, _) = ctx.run("AD")
        weights = [m.row_sums() for m in ctx.basis]
        sizes, values, residuals = ctx._casimirs(end, ctx.sides[0], weights)
        values[first, 0] = np.nan
        values[second, 0] += 1
        monkeypatch.setattr(FlowContext, "_casimirs",
                            lambda self, frame, side, weights: (sizes, values, residuals))
        b = min(first, second)
        with pytest.raises(DecodingError) as expected:
            _decode_chain(sizes[b].tolist(), values[b], residuals[b], 3)
        with pytest.raises(DecodingError) as got:
            ctx.extract_S(end, ctx.basis)
        assert str(got.value) == str(expected.value)


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
