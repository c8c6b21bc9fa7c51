"""Numerical eigenline continuation along parameter degenerations.

A graded piece of the polynomial ring on r-by-n matrices carries the
commuting families built in the operator module. At a large parameter the
joint eigenvectors are monomials, which labels every eigenline by an
exponent matrix. Transporting the eigenframe along degeneration paths and
reading Casimir data at the endpoints attaches a pair of same-shape
tableaux (S, T) to each label; the package's headline check is that this
pair always equals the RSK image of the label.

The transport runs along the legs of one table (`FlowContext.legs`). Each
leg is one schedule: a log-spaced grid and a family of the grid parameter.
All operators of a leg's family commute at every path point, and
`FlowContext.run` carries the frame along each leg in turn. The only input
that selects the paths is the base point z:

  A  large-parameter -> base point: dynamical family plus z-scaled
     exchange operators, z on the ordered-collision schedule
     (`collision_z`), which passes through the base z at t = 1; branches
     start as monomials.
  B  from A's end, z -> 0 on the same schedule: same family; the z-scaled
     exchange operators converge to the partial exchange sums J_a, keeping
     the tracked spectrum simple. Its end frame feeds leg C, and, when
     clustered, the z-side records (dynamical limits at z = 0), whose
     coalescence classes are linked by the records' own Rayleigh residuals.
  C  from B's end, q rescaled at z = 0: the rescaled dynamical operators
     converge to the nested commuting limits; its end frame feeds the S
     decoder (`FlowContext.extract_S`, corner Casimirs of gl_r).
  D  from A's end, q -> 0 at A's end point z: exchange family plus q-scaled
     dynamical operators; its end frame feeds leg E, and, when clustered,
     the q-side records (exchange limits at q = 0), shared with the
     mirrored gl_n action.
  E  from D's end, z-rescale at q = 0 on the gl_n side; its end frame
     feeds the T decoder (`FlowContext.extract_T`, dual corner Casimirs).

The tableau check (`flow_block`) runs legs A to E and reads out the two
decoders only; it computes no records and no classes. The cell flows run
leg A and then leg B, with B scaling z straight to zero, or leg D, or
both B and D for two-sided cells, and cluster the records of those legs.

Each leg weights its family's operators by one draw of coefficients
(`start_coeffs`), redrawn until the combined operator at the leg's start
has a simple spectrum on each weight block. No start family depends on a
frame, so `FlowContext.run` draws for every leg it runs, in leg order,
before the first transport: a degenerate start of any leg ends the run
before any leg is transported.

Every family holds the diagonal gl_r Cartan, and the flow adds the
weights W_i to each, so every operator summed along a leg is
block-diagonal by gl_r weight (the row sums of the monomials). A block
with column sums c is built from r*n + C(r,2) + C(n,2) + 1 primitive
parts only: the E_ii^(a), the kappa_ij (i < j), the Omega_ab (a < b) and
the identity. Every other operator the flow uses is an exact sum of
these on the block:

  W_i = sum_a E_ii^(a),
  J_a = sum_{b<a} Omega_ba (`liealg.gaudin_limit_terms`),
  dual kappa_ab = 4 Omega_ab + 2 (c_a + c_b) (`liealg.block_dual_nabla_terms`),
  C_i = sum_{a<=i} W_a^2 + 1/2 sum_{a<b<=i} kappa_ab (`FlowContext.extract_S`),
  C'_a = sum_{b<=a} c_b^2 + sum_{b<d<=a} (2 Omega_bd + c_b + c_d)
         (`FlowContext.extract_T`).

The `BlockCache` builds these parts once, when it is built, in one fixed
order (`primitive_parts`), so every float sum over them adds its terms in
one order; a term that names any other part raises. It holds each as a
row of one of two matrices: the flat buffer of its weight blocks, viewed
as stacks by block size, or, for a part with no off-diagonal entry (the
E_ii^(a) and the identity), its diagonal alone. A weighted sum of parts
is a matrix-vector product with each. A family is a function of an array of points whose term lists'
coefficients broadcast over those points: each leg evaluates it once on
its whole grid and turns it into one array of weights, a row per point
(`BlockCache.coefficients`); a bisection midpoint, and the start point
of the coefficient draw, are one-point arrays. A leg runs in batches of
consecutive points, as many as fit BATCH_BYTES: each point's operator
is summed on its own, so a part it does not use has weight 0 and the
batch goes on, and each block size is diagonalised by one batched eigh
call per batch. A 1 x 1 weight block is not solved: its frame stays +-1
and its value is its entry, which is what LAPACK returns. Each old
column takes the new column of largest
overlap (`_match`); the leading points of a batch whose smallest such
overlap reaches MATCH_THRESHOLD are matched at once by composing these
matchings. Every column's overlap then exceeds 1/sqrt(2), so each
matching is a permutation and the unique optimal assignment. A refused
point gets the geometric midpoint between it and the last accepted
point inserted in front of it, and the next batch starts there; a leg
that is refused again after MAX_BISECTIONS midpoints ends with a
ContinuationError. There is still one flow, one coefficient draw per
leg and one cache per graded block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, NamedTuple

import numpy as np

from .combinatorics import (
    NatMatrix,
    Partition,
    SemistandardTableau,
    rsk,
)
from .crystals import pieri_shapes
from .liealg import (
    _as_block,
    block_dual_nabla_terms,
    casimir_eigenvalue,
    dense,
    gaudin_limit_terms,
    gaudin_terms,
    identity,
    kappa,
    nabla_terms,
    omega,
    op_E,
    part_operator,
    weight_basis,
)


class FlowError(Exception):
    """Base class for continuation failures."""


class SetupError(FlowError):
    pass


class ContinuationError(FlowError):
    pass


class ClusteringError(FlowError):
    pass


class DecodingError(FlowError):
    pass


T_MAX = 1e3  # leg A starts at this collision parameter
T_MIN = 1e-3  # leg B ends at this z scale
S_MIN = 1e-3  # legs C, D and E end at this scale
MATCH_THRESHOLD = 0.9  # a step with a lower overlap is bisected
SNAP_THRESHOLD = 0.999  # start overlap needed to label a branch by a monomial
MAX_BISECTIONS = 40  # per leg
BATCH_BYTES = 256 * 1024  # summed operators of one transport batch
START_GAP_MIN = 1e-9  # smallest gap of the combined start spectrum
MAX_REDRAWS = 8  # coefficient draws tried for a simple start spectrum
DECODE_TOL = 0.3  # Casimir residual accepted when decoding a letter
CANCEL_TOL = 1e-12  # relative squared norm below which a family operator is zero
GAP_SAFETY = 1e3  # inter-class distance over intra-class distance a clustering needs
ROUNDOFF = 1e-9  # round-off allowed between two records, relative to the largest record


@dataclass
class FlowOpts:
    seed: int = 0
    steps: int = 48


def collision_z(z, t):
    """The ordered-collision schedule through z: z_i(t) = t^(n-i+1)
    (1 + t^2)^(i-1) 2^(1-i) z_i, so z(1) = z, the points separate as t
    grows and all collide at 0 as t -> 0."""
    n = len(z)
    return tuple(t ** (n - i + 1) * (1 + t * t) ** (i - 1) * (2.0 ** (1 - i) * z[i - 1])
                 for i in range(1, n + 1))


@dataclass
class EigenBranch:
    label: NatMatrix
    s_tableau: SemistandardTableau = None
    t_tableau: SemistandardTableau = None


@dataclass
class FlowResult:
    branches: list
    classes: dict  # leg name -> coalescence classes of its records
    diagnostics: dict


def primitive_parts(r, n):
    """The r*n + C(r,2) + C(n,2) + 1 parts of a block of r x n matrices, in
    the order in which the legs first name them: for each row i the
    E_ii^(a), a = 1..n, then the kappa_ij, j > i; then the Omega_ab, a < b,
    in lexicographic order; then the identity. A `BlockCache` holds them in
    this fixed order, so every float sum over them keeps one order."""
    return ([part for i in range(1, r + 1)
             for part in [(op_E, i, i, a) for a in range(1, n + 1)]
             + [(kappa, i, j, n) for j in range(i + 1, r + 1)]]
            + [(omega, a, b, r) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
            + [(identity,)])


class BlockCache:
    """The part matrices of a block, each built once and held as its gl_r
    weight blocks.

    Every part the flow uses commutes with the diagonal gl_r Cartan, so it
    maps each weight space (the monomials with fixed row sums) to itself.
    The basis is split once into these weight blocks, and blocks of equal
    size d form a batch: `batches` holds one (k, d) array of basis
    positions per batch, in increasing d. The cache holds the parts
    `primitive_parts(r, n)`, in that order, as `parts`, and no other: every
    operator the flow sums is a combination of them (see the module
    docstring). Each is assembled once, when the cache is built, by
    `liealg.dense`, a walk of its words over the entry array of one
    MonomialBlock, which fills no generator table: the block the cache is
    given, as `weight_basis` returns it, or one built from a list of
    monomials. No part depends on z or q, so one cache serves every leg.
    On a block of one weight, such as the S_n block, there is one batch
    with k = 1. `col_sums` holds the block's column sums, the constants of
    the dual operators.

    Each part is written into a row of one of two matrices: a row of the
    part matrix F (parts, size) holds a flat buffer of its weight blocks,
    batch after batch; a part whose matrix has no off-diagonal nonzero (the
    E_ii^(a), the identity, and any part that is diagonal or 0 on a
    degenerate block) is held instead as its diagonal, a row of the matrix
    D (parts, dim). `stacks(part)` gives the weight blocks as one
    (k, d, d) stack per batch, views of F's row or a diagonal part
    expanded.

    Weights are rows over `parts`. `sum_parts` gives each point's sum as
    its own two matrix-vector products, w_F @ F plus w_D @ D added on the
    diagonal positions, so a point's sum does not depend on the other
    points summed with it; a part a point does not use has weight 0.

    A flow family, evaluated on an array of points, is a list of term
    lists whose coefficients are numbers or arrays over those points.
    `_rows` lays them out as one (points, operators, parts) array, and
    `coefficients` turns that into one weight row per point on the parts
    of the operators, each scaled to unit Frobenius norm: the norms come
    from the coefficient rows and the Gram matrix of the parts (F F^T, D
    D^T and F[:, diagonal] D^T, computed once with the parts), so no
    operator of the family is ever built as a matrix of its own. A point's
    row is the same whichever points it is evaluated with.
    `normalised_sum` is the one-point sum of a family, and `combine` that
    of one liealg term list, unnormalised."""

    def __init__(self, r, n, basis):
        self.r = r
        self.n = n
        self.block = _as_block(basis)
        self.basis = self.block.basis
        self.dim = self.block.dim
        self.col_sums = self.basis[0].col_sums() if self.dim else (0,) * n
        weights = {}
        for pos, m in enumerate(self.basis):
            weights.setdefault(m.row_sums(), []).append(pos)
        by_size = {}
        for positions in weights.values():
            by_size.setdefault(len(positions), []).append(positions)
        self.batches = [np.array(by_size[d]) for d in sorted(by_size)]
        self.size = sum(idx.size * idx.shape[1] for idx in self.batches)
        # basis position of each frame column, batch after batch
        self.positions = np.concatenate([idx.ravel() for idx in self.batches] or [[]]).astype(int)
        # flat-buffer position of each diagonal entry, in the same order
        self._diagonal = np.concatenate(
            [start + np.arange(idx.size) * (d + 1) - np.arange(idx.size) // d * d
             for idx, start, d in self._layout()] or [[]]).astype(int)
        self.parts = primitive_parts(r, n)
        self._index = {part: j for j, part in enumerate(self.parts)}
        # a row of F and of D for every part; the rows a part does not take
        # are never written, so they take no memory
        full = np.empty((len(self.parts), self.size))
        diag = np.empty((len(self.parts), self.dim))
        self._where = []  # position -> (held as a diagonal, row of its matrix)
        full_at, diag_at = [], []  # the position of each row of F and of D
        for position, part in enumerate(self.parts):
            mat = dense(part_operator(part), self.block)
            diagonal = np.diagonal(mat)
            if np.count_nonzero(mat) == np.count_nonzero(diagonal):
                self._where.append((True, len(diag_at)))
                diag[len(diag_at)] = diagonal[self.positions]
                diag_at.append(position)
            else:
                for view, stack in zip(self._views(full[len(full_at)]), self.split(mat)):
                    view[...] = stack
                self._where.append((False, len(full_at)))
                full_at.append(position)
            del mat, diagonal  # free this dim x dim matrix before the next is built
        self._full, self._diag = full[:len(full_at)], diag[:len(diag_at)]
        self._full_at = np.array(full_at, dtype=int)
        self._diag_at = np.array(diag_at, dtype=int)
        # the Gram matrix: Frobenius inner products of the parts
        cross = self._full[:, self._diagonal] @ self._diag.T
        self._gram = np.empty((len(self.parts),) * 2)
        self._gram[self._full_at[:, None], self._full_at] = self._full @ self._full.T
        self._gram[self._diag_at[:, None], self._diag_at] = self._diag @ self._diag.T
        self._gram[self._full_at[:, None], self._diag_at] = cross
        self._gram[self._diag_at[:, None], self._full_at] = cross.T

    def _layout(self):
        """(positions, flat-buffer start, d) of each batch."""
        start = 0
        for idx in self.batches:
            k, d = idx.shape
            yield idx, start, d
            start += k * d * d

    def _views(self, flat):
        """The (..., k, d, d) stacks of flat buffers (..., size) of weight
        blocks, as views."""
        return [flat[..., start:start + idx.size * d].reshape(flat.shape[:-1] + idx.shape + (d,))
                for idx, start, d in self._layout()]

    def split(self, mat):
        """The weight blocks of a dim x dim matrix, one stack per batch."""
        return [mat[idx[:, :, None], idx[:, None, :]] for idx in self.batches]

    def full(self, stacks):
        """The dim x dim matrix with the given weight blocks, zero elsewhere."""
        out = np.zeros((self.dim, self.dim))
        for idx, stack in zip(self.batches, stacks):
            out[idx[:, :, None], idx[:, None, :]] = stack
        return out

    def identity(self):
        """The identity frame: np.eye(d) broadcast to (k, d, d) per batch."""
        return [np.broadcast_to(np.eye(d), (k, d, d)).copy() for k, d in
                (idx.shape for idx in self.batches)]

    def by_branch(self, values):
        """Per-batch arrays (k, d, ...) laid out like the batches, as one
        array indexed by basis position."""
        if not values:  # the empty block
            return np.zeros(0)
        out = np.empty((self.dim,) + values[0].shape[2:])
        for idx, vals in zip(self.batches, values):
            out[idx] = vals
        return out

    def _position(self, part):
        """The part's position in `parts`; any other part raises ValueError."""
        try:
            return self._index[part]
        except KeyError:
            raise ValueError(f"{part[0].__name__}{part[1:]} is not a primitive part "
                             f"of the r = {self.r}, n = {self.n} block") from None

    def _flat(self, part):
        """The flat buffer of the part's weight blocks: its row of F, or
        its diagonal expanded into a new buffer."""
        diagonal, row = self._where[self._position(part)]
        if not diagonal:
            return self._full[row]
        flat = np.zeros(self.size)
        flat[self._diagonal] = self._diag[row]
        return flat

    def stacks(self, part):
        """The weight blocks of the part's matrix, one stack per batch."""
        return self._views(self._flat(part))

    def mat(self, part):
        """Dense dim x dim matrix of the part, rebuilt from its stacks."""
        return self.full(self.stacks(part))

    def sum_parts(self, weights):
        """Flat buffers (points, size) of sum_j weights[p][j] * part_j over
        `parts`, one row per point p. Each point's sum is its own pair of
        products, w_F @ F and then w_D @ D added on the diagonal positions,
        each into a buffer of its own, so it does not depend on the other
        points summed with it."""
        out = np.empty((len(weights), self.size))
        for flat, w in zip(out, weights):
            flat[...] = w[self._full_at] @ self._full
            flat[self._diagonal] += w[self._diag_at] @ self._diag
        return out

    def _rows(self, ops, points):
        """Coefficient rows (points, ops, parts) of the term lists ops over
        `parts`. Each coefficient is a number or an array over the points;
        a term that names a part outside `parts` raises ValueError."""
        rows = np.zeros((points, len(ops), len(self.parts)))
        for o, terms in enumerate(ops):
            for c, part in terms:
                rows[:, o, self._position(part)] += c
        return rows

    def combine(self, terms):
        """Float sum of coefficient * part as per-batch stacks, the one-point
        rows of `_rows`."""
        return self._views(self.sum_parts(self._rows([terms], 1)[:, 0])[0])

    def coefficients(self, ops, coeffs, points=1):
        """Weights (points, parts) over `parts` with
        sum_o coeffs[o] * op_o / |op_o|_F = sum_j weights[p, j] * part_j at
        each point p, for term lists ops whose coefficients are numbers or
        arrays over the points (`_rows`).

        Row o of a point's coefficient matrix holds op_o's coefficients on
        the parts, so |op_o|_F^2 = m_o G m_o^T at that point. An operator
        whose terms cancel on the block there, its squared norm at most
        CANCEL_TOL times sum_jk |m_oj m_ok G_jk|, is left out at that point.
        Every product is taken per point, so a point's weights do not
        depend on the other points evaluated with it.
        """
        rows = self._rows(ops, points)
        gram = self._gram
        sq = np.sum(rows @ gram * rows, axis=-1)
        scale = np.sum(np.abs(rows) @ np.abs(gram) * np.abs(rows), axis=-1)
        live = sq > CANCEL_TOL * scale
        factors = np.zeros(sq.shape)
        factors[live] = np.broadcast_to(coeffs, sq.shape)[live] / np.sqrt(sq[live])
        return (factors[:, None, :] @ rows)[:, 0]

    def normalised_sum(self, ops, coeffs):
        """sum_o coeffs[o] * op_o / |op_o|_F over the term lists ops of one
        point, as per-batch stacks (`coefficients`)."""
        return self._views(self.sum_parts(self.coefficients(ops, coeffs))[0])

    def nabla_mat(self, i, z, q):
        return self.combine(nabla_terms(i, z, q, self.n))

    def gaudin_mat(self, a, z, q):
        return self.combine(gaudin_terms(a, z, q, self.r))

    def dual_nabla0_mat(self, a, z):
        return self.combine(block_dual_nabla_terms(a, (0.0,) * self.r, z, self.r,
                                                   self.col_sums))


def _scaled(scalar, terms):
    """The term list of scalar times an operator."""
    return [(scalar * c, part) for c, part in terms]


def _draw_coeffs(rng, count):
    # rationals in [1, 2): generic but tame scale
    return np.array([1 + rng.integers(0, 1000) / 1000 for _ in range(count)])


def start_coeffs(cache, ops, rng, leg=""):
    """A draw of coefficients for the family ops, a leg's start family
    evaluated at a one-point array, whose combined operator
    (`BlockCache.normalised_sum`) has every gap inside each weight block
    above START_GAP_MIN. Blocks never interact, so
    values of two blocks are not compared; each batch with d > 1 is
    checked by one eigvalsh call. Draws again up to MAX_REDRAWS times, then
    raises ContinuationError."""
    for _ in range(MAX_REDRAWS):
        coeffs = _draw_coeffs(rng, len(ops))
        if all(np.diff(np.linalg.eigvalsh(stack), axis=-1).min() > START_GAP_MIN
               for stack in cache.normalised_sum(ops, coeffs) if stack.shape[-1] > 1):
            return coeffs
    raise ContinuationError(f"{leg}: degenerate combined spectrum after {MAX_REDRAWS} redraws")


def _match(overlaps):
    """The matching rule of every transport step, on signed overlaps
    (..., d, d) whose entry (i, j) is new column i dotted with old column
    j: each old column j takes the new column of largest |overlap|.

    Both frames are orthonormal, so where every such overlap exceeds
    1/sqrt(2), as on every step that reaches MATCH_THRESHOLD, this is a
    permutation, and the unique one of largest summed overlap.

    Returns (new column of each old column, its signed overlap), two
    arrays (..., d).
    """
    rows = np.abs(overlaps).argmax(axis=-2)
    return rows, np.take_along_axis(overlaps, rows[..., None, :], axis=-2)[..., 0, :]


def _composed(weights, frame, cache):
    """Eigenframes of the combined operator at consecutive points, given by
    their weight rows over the cache's parts (`BlockCache.coefficients`),
    each matched to the frame before it (the first to frame), up to the
    first point whose smallest best overlap is below MATCH_THRESHOLD.

    The operators of all points are summed into one buffer
    (`BlockCache.sum_parts`, each point's sum on its own, a part that a
    point does not use weighted 0), and each batch with d > 1 is
    diagonalised by one eigh call over its (points, k, d, d) stack. One
    batched product gives the overlaps of every point's eigenvectors with
    the frame before: the given frame for the first point, the unmatched
    eigenvectors of the point before for the others. `_match` pairs each
    column of the frame before with a row of that product, and the
    matchings and signs of the accepted points compose; a 1 x 1 block
    keeps its frame and takes its entry as value.

    Returns (frame at the last accepted point, per accepted point a pair
    (eigenvalues in basis order, min overlap), the min overlap of the
    first refused point or None); the points after the accepted ones are
    left to the caller.
    """
    count = len(weights)
    stacks = cache._views(cache.sum_parts(weights))
    # per point and column j of the frame before it, batch after batch:
    # the global column of the eigenvector j matches, the sign and the
    # overlap of that match, and the eigenvalue of global column j
    best, signs, top, values, solved = [], [], [], [], []
    offset = 0
    for stack, old in zip(stacks, frame):
        k, d = old.shape[:2]
        if d == 1:
            # LAPACK's eigenvector of a 1 x 1 block is 1, which matching
            # aligns back to the frame's +-1 at overlap 1
            vals, vecs = stack[..., 0], None
            rows, picked = np.zeros((count, k, 1), dtype=int), np.ones((count, k, 1))
        else:
            vals, vecs = np.linalg.eigh(stack)
            # the frames before each point, transposed in memory as matched
            # frames are, so each product rounds as one with a matched frame
            before = np.empty((count, k, d, d))
            before[0] = np.swapaxes(old, 1, 2)
            before[1:] = np.swapaxes(vecs[:-1], 2, 3)
            rows, picked = _match(np.swapaxes(vecs, 2, 3) @ np.swapaxes(before, 2, 3))
        best.append((rows + (offset + d * np.arange(k))[:, None]).reshape(count, -1))
        signs.append(np.where(picked < 0, -1.0, 1.0).reshape(count, -1))
        top.append(np.abs(picked).reshape(count, -1))
        values.append(vals.reshape(count, -1))
        solved.append(vecs)
        offset += k * d
    best, signs, top, values = (np.concatenate(a, axis=1) for a in (best, signs, top, values))
    overlaps = top.min(axis=1, initial=1.0)
    refused = np.flatnonzero(overlaps < MATCH_THRESHOLD)
    accepted = int(refused[0]) if refused.size else count
    order, sign, steps = np.arange(cache.dim), np.ones(cache.dim), []
    for g in range(accepted):
        # branch c sits at column order[c] of the frame before point g
        sign = signs[g, order] * sign
        order = best[g, order]
        branch_values = np.empty(cache.dim)
        branch_values[cache.positions] = values[g, order]
        steps.append((branch_values, overlaps[g]))
    if accepted:
        frame = list(frame)
        offset = 0
        for b, (vecs, old) in enumerate(zip(solved, frame)):
            k, d = old.shape[:2]
            if vecs is not None:
                local = (order[offset:offset + k * d] - offset).reshape(k, d)
                blk = np.arange(k)[:, None]
                matched = vecs[accepted - 1, blk, :, local - blk * d]
                matched *= sign[offset:offset + k * d].reshape(k, d, 1)
                frame[b] = np.swapaxes(matched, 1, 2)
            offset += k * d
    return frame, steps, float(overlaps[accepted]) if accepted < count else None


def transport(vectors, cache, family, grid, coeffs, trace=None, leg=""):
    """Continue the eigenframe of a commuting family along the grid.

    vectors: per-batch stacks (k, d, d) of orthonormal columns
    approximating joint eigenlines at grid[0], one frame per weight block
    of the cache (`cache.identity()` or a frame of an earlier leg); column
    c of block j of a batch follows the branch at basis position idx[j, c]
    of that batch. family(t) lists the family's operators at an array of
    points t as term lists whose coefficients broadcast over the points;
    the coefficients coeffs (`start_coeffs` of family(grid[:1])) weight
    them, each scaled to unit norm, into a single operator, block-diagonal
    on the weight blocks.

    The family is evaluated once on the whole grid, and
    `BlockCache.coefficients` turns it into one weight row per grid point.
    The points still to reach are taken in batches of consecutive points,
    as many as keep the batch's summed operators within BATCH_BYTES (at
    least one); each point's operator is the same whichever batch it is
    summed in. `_composed` accepts a batch's leading points whose smallest
    best overlap is at least MATCH_THRESHOLD. A refused start point fails
    the leg. Any other refused point gets the geometric midpoint between
    it and the last accepted point inserted in front of it, evaluated as a
    one-point array, and the next batch starts there; a refusal after
    MAX_BISECTIONS such midpoints in the leg fails it. Every accepted point
    after the start is a step; each grid point, and no midpoint, hands
    trace.append one record (leg, t, eigenvalues as a list of floats in
    branch order). Returns (vectors at grid[-1], diagnostics).
    """
    diag = {"leg": leg, "steps": 0, "bisections": 0, "min_overlap": 1.0}
    per_batch = max(1, BATCH_BYTES // (8 * cache.size))
    grid = np.asarray(grid, dtype=float)
    weights = cache.coefficients(family(grid), coeffs, len(grid))
    # (point, on the grid, weight row)
    pending = [(t, True, w) for t, w in zip(grid, weights)]
    current, t_prev = vectors, None  # t_prev: the last accepted point
    while pending:
        batch = pending[:per_batch]
        current, steps, refused = _composed([w for _, _, w in batch], current, cache)
        for (t, on_grid, _), (values, overlap) in zip(batch, steps):
            diag["min_overlap"] = min(diag["min_overlap"], overlap)
            if t_prev is not None:
                diag["steps"] += 1
            if on_grid and trace is not None:
                trace.append((leg, float(t), values.tolist()))
            t_prev = t
        del pending[:len(steps)]
        if refused is None:
            continue
        t = pending[0][0]
        if t_prev is None:
            raise ContinuationError(f"{leg}: start frame overlap {refused:.4f} below threshold")
        if diag["bisections"] >= MAX_BISECTIONS:
            raise ContinuationError(
                f"{leg}: overlap {refused:.4f} below threshold at t={t} "
                f"after {MAX_BISECTIONS} bisections"
            )
        mid = math.sqrt(t_prev * t)
        pending.insert(0, (mid, False, cache.coefficients(family(np.array([mid])), coeffs)[0]))
        diag["bisections"] += 1
    return current, diag


def snap_to_monomials(vectors, basis, cache):
    """Identify each start eigenline with a monomial; returns labels.

    Cross-checks the coordinate match against rounded diagonal eigenvalues.
    """
    labels = []
    used = set()
    diagonals = {(i, a): cache.mat((op_E, i, i, a))
                 for i in range(1, cache.r + 1) for a in range(1, cache.n + 1)}
    for b in range(vectors.shape[1]):
        v = vectors[:, b]
        idx = int(np.argmax(np.abs(v)))
        if abs(v[idx]) < SNAP_THRESHOLD:
            raise ContinuationError(
                f"branch {b}: start overlap {abs(v[idx]):.5f} with nearest monomial"
            )
        if idx in used:
            raise ContinuationError(f"branch {b}: duplicate monomial label")
        used.add(idx)
        label = basis[idx]
        for (i, a), mat in diagonals.items():
            val = v @ mat @ v
            if abs(val - label[i - 1, a - 1]) > 1e-6:
                raise ContinuationError(
                    f"branch {b}: diagonal eigenvalue {val} disagrees with label"
                )
        labels.append(label)
    return labels


def rayleigh(vectors, ops):
    """Per-branch Rayleigh quotients rho = v.Lv of the columns v of vectors
    (..., dim, m) under the ops L (..., dim, dim), and their residuals
    |Lv - rho v|, each within that distance of L's spectrum
    (Krylov-Weinstein): two arrays (..., m, len(ops)), a row per branch."""
    quotients, residuals = [], []
    for op in ops:
        image = op @ vectors
        rho = np.sum(vectors * image, axis=-2)
        quotients.append(rho)
        residuals.append(np.linalg.norm(image - vectors * rho[..., None, :], axis=-2))
    return np.stack(quotients, axis=-1), np.stack(residuals, axis=-1)


def coalescence_classes(records, residuals):
    """Group branches whose records agree within their own residuals.

    records, residuals: arrays (branches, values) from `rayleigh`, the
    quotients rho of limit operators L_o and their residuals r. Branches b
    and c on one eigenvalue of every L_o have |rho_bo - rho_co| <= r_bo +
    r_co; where this holds up to ROUNDOFF times the largest |record| (the
    round-off of records whose residuals round to zero) they are linked.
    Classes are the connected components of the links, validated by a gap
    ratio: the largest intra-class distance times GAP_SAFETY must stay
    below the smallest inter-class distance (sup norms over the columns)."""
    records, residuals = (np.asarray(a, dtype=float) for a in (records, residuals))
    m = len(records)
    slack = ROUNDOFF * np.abs(records).max(initial=0.0)
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # sup-norm distances and links, one record column at a time
    dists = np.zeros((m, m))
    linked = np.ones((m, m), dtype=bool)
    diff = np.empty((m, m))
    for col, res in zip(records.T, residuals.T):
        np.subtract.outer(col, col, out=diff)
        np.maximum(dists, np.abs(diff, out=diff), out=dists)
        diff -= res[:, None]
        diff -= res
        linked &= diff <= slack
    upper = np.triu(np.ones((m, m), dtype=bool), 1)
    for i, j in np.argwhere(upper & linked).tolist():
        parent[find(i)] = find(j)
    roots = np.array([find(i) for i in range(m)], dtype=int)
    groups = {}
    for i, root in enumerate(roots):
        groups.setdefault(root, []).append(i)
    classes = sorted(groups.values())
    same = roots[:, None] == roots[None, :]
    intra = float(dists[upper & same].max(initial=0.0))
    inter = float(dists[upper & ~same].min(initial=math.inf))
    if intra * GAP_SAFETY > inter:
        raise ClusteringError(f"ambiguous clustering: intra {intra:.3e} vs inter {inter:.3e}")
    return classes


def _decode_chain(sizes, casimir_values, max_rows, memo=None):
    """Recover a tableau from corner Casimir data.

    sizes[i] is the exact number of boxes after step i+1; casimir_values[i]
    approximates the quadratic Casimir of the rank-(i+1) corner. Each step
    adds a horizontal strip filled with the letter i+1, and no shape has
    more than max_rows rows. memo, a dict shared by the chains of one
    decoder call (one max_rows), keeps the candidate shapes and their
    exact Casimir values per (shape, boxes added, letter).
    """
    memo = {} if memo is None else memo
    shape = Partition([])
    rows = []
    for step, (size, c2) in enumerate(zip(sizes, casimir_values), start=1):
        added = size - shape.size
        if added < 0:
            raise DecodingError(f"negative strip size at letter {step}")
        exact = memo.get((shape, added, step))
        if exact is None:
            exact = memo[shape, added, step] = {
                mu: casimir_eigenvalue(mu, step)
                for mu in pieri_shapes(shape, added, min(step, max_rows))}
        candidates = sorted(((abs(val - c2), mu) for mu, val in exact.items()),
                            key=lambda pair: (pair[0], pair[1].parts))
        if not candidates or candidates[0][0] > DECODE_TOL:
            raise DecodingError(
                f"no corner shape matches Casimir value {c2:.4f} at letter {step}"
            )
        if len(candidates) > 1:
            (_, first), (_, second) = candidates[:2]
            if exact[first] == exact[second]:
                # no choice of z or q separates shapes with equal eigenvalues
                raise DecodingError(
                    f"exact Casimir tie at letter {step}: shapes {first.parts} "
                    f"and {second.parts} both give {exact[first]}"
                )
            if candidates[1][0] < 2 * DECODE_TOL:
                raise DecodingError(
                    f"ambiguous corner shape at letter {step}: {candidates[:2]}"
                )
        mu = candidates[0][1]
        for i in range(1, len(mu) + 1):
            while len(rows) < i:
                rows.append([])
            rows[i - 1].extend([step] * (mu.part(i) - shape.part(i)))
        shape = mu
    return SemistandardTableau(rows, len(sizes))


class Leg(NamedTuple):
    """One row of the leg table."""

    name: str
    start: str | None  # leg whose end frame this one continues; None: monomials
    grid: np.ndarray
    # array of points -> term lists whose coefficients broadcast over them,
    # without the weights
    family: Callable
    limit: Callable | None = None  # () -> exact limit operators (weight-block stacks)
    decode: Callable | None = None  # (end frame, labels) -> tableaux
    key: str | None = None  # where each branch keeps the decoded tableaux


class FlowContext:
    """Everything needed to run the legs on one graded block, with the
    block's BlockCache. A base z that is not positive and increasing, or
    that the collision schedule reorders on leg A's grid, raises
    SetupError."""

    def __init__(self, r, n, col_sums, row_sums=None, z=None, q=None, opts=None):
        self.r = r
        self.n = n
        self.col_sums = tuple(col_sums)
        self.row_sums = None if row_sums is None else tuple(row_sums)
        self.z = tuple(float(x) for x in (z if z is not None else range(1, n + 1)))
        self.q = tuple(float(x) for x in (q if q is not None else range(1, r + 1)))
        self.opts = opts or FlowOpts()
        if any(x <= 0 for x in self.z):
            raise SetupError("collision schedule needs positive base z")
        if list(self.z) != sorted(set(self.z)):
            raise SetupError("collision schedule needs increasing base z")
        for t in np.geomspace(1.0, T_MAX, self.opts.steps):
            zt = collision_z(self.z, t)
            if any(a >= b for a, b in zip(zt, zt[1:])):
                raise SetupError(f"collision schedule unordered at t={t}")
        self.cache = BlockCache(r, n, weight_basis(r, n, self.col_sums, self.row_sums))
        self.basis = self.cache.basis
        self.rng = np.random.default_rng(self.opts.seed)

    def legs(self, straight_b=False):
        """The leg table in run order; each leg is a log-spaced grid and a
        family of the grid parameter. Leg A follows the ordered-collision
        schedule `collision_z` from T_MAX down to t = 1, where it ends at
        the base z; every later leg starts there. Leg B follows the same
        schedule on to t = T_MIN, or with straight_b scales z straight to
        zero, as the right-cell flow does. Each family stays bounded on its
        leg; its path scalars are folded into the coefficients of its term
        lists."""
        cache, r, n, z, q = self.cache, self.r, self.n, self.z, self.q
        steps = self.opts.steps
        s_grid = np.geomspace(1.0, S_MIN, steps)
        z0, q0 = (0.0,) * n, (0.0,) * r

        def collision(t):
            return collision_z(z, t)

        def straight(t):
            return tuple(t * x for x in z)

        def main(z_of):
            def family(t):
                zt = z_of(t)
                return ([nabla_terms(i, zt, q, n) for i in range(1, r + 1)]
                        + [_scaled(zt[a - 1], gaudin_terms(a, zt, q, r))
                           for a in range(1, n + 1)])
            return family

        def gt(s):
            qs = tuple(q[i - 1] * s ** (r - i) for i in range(1, r + 1))
            return ([_scaled(s ** (r - i), nabla_terms(i, z0, qs, n)) for i in range(1, r + 1)]
                    + [gaudin_limit_terms(a, r) for a in range(2, n + 1)])

        def qshrink(s):
            qs = tuple(s * x for x in q)
            return ([_scaled(s, nabla_terms(i, z, qs, n)) for i in range(1, r + 1)]
                    + [gaudin_terms(a, z, qs, r) for a in range(1, n + 1)])

        def dual_gt(u):
            zu = tuple(z[a - 1] * u ** (n - a) for a in range(1, n + 1))
            return ([_scaled(u ** (n - a), block_dual_nabla_terms(a, q0, zu, r, self.col_sums))
                     for a in range(1, n + 1)]
                    + [_scaled(u ** (n - a), gaudin_terms(a, zu, q0, r))
                       for a in range(1, n + 1)]
                    + [nabla_terms(i, z0, q, n) for i in range(1, r + 1)])

        def z_limit():
            return [cache.nabla_mat(i, z0, q) for i in range(1, r + 1)]

        def q_limit():
            return [cache.gaudin_mat(a, z, q0) for a in range(1, n + 1)]

        return (
            Leg("A", None, np.geomspace(T_MAX, 1.0, steps), main(collision)),
            Leg("B", "A", np.geomspace(1.0, T_MIN, steps),
                main(straight if straight_b else collision), limit=z_limit),
            Leg("C", "B", s_grid, gt, decode=self.extract_S, key="s_tableau"),
            Leg("D", "A", s_grid, qshrink, limit=q_limit),
            Leg("E", "D", s_grid, dual_gt, decode=self.extract_T, key="t_tableau"),
        )

    def run(self, names, classes_from="", straight_b=False, trace=None):
        """Run the named legs of the table (`legs(straight_b)`) in order;
        returns a FlowResult.

        Each leg's coefficients are drawn (`start_coeffs`) before any leg
        runs, in leg order, so a degenerate start spectrum of any leg ends
        the run before the first transport.

        Every leg's family gets the weights W_i = sum_a E_ii^(a) added, as
        sums of the E_ii^(a) parts. Frames are kept as weight-block stacks
        (`BlockCache.split`). Only a leg named in classes_from reads records
        off its end frame: the Rayleigh quotients of its limit operators,
        with residuals, and then the r weights W_i, taken as each branch's
        exact row sums with residual 0 (a frame column lies in one weight
        block, where W_i is the constant row sum i). `coalescence_classes`
        clusters them into the result's classes under the leg's name. A
        decoding leg stores its tableaux on the branches.
        """
        cache = self.cache
        weight_terms = [[(1.0, (op_E, i, i, a)) for a in range(1, self.n + 1)]
                        for i in range(1, self.r + 1)]
        # leg A starts from the identity frame, so its start-overlap test
        # checks that the monomials are the start eigenlines
        labels = list(self.basis)
        branches = [EigenBranch(label) for label in labels]
        legs = [leg for leg in self.legs(straight_b) if leg.name in names]

        def family(leg):
            return lambda t: leg.family(t) + weight_terms

        coeffs = {}
        if cache.dim > 1:
            for leg in legs:
                coeffs[leg.name] = start_coeffs(cache, family(leg)(leg.grid[:1]), self.rng,
                                                leg.name)
        frames, classes, diags = {}, {}, []
        for leg in legs:
            frame = cache.identity() if leg.start is None else frames[leg.start]
            if cache.dim <= 1:
                diag = {"leg": leg.name, "steps": 0, "bisections": 0, "min_overlap": 1.0}
            else:
                frame, diag = transport(frame, cache, family(leg), leg.grid, coeffs[leg.name],
                                        trace=trace, leg=leg.name)
            frames[leg.name] = frame
            diags.append(diag)
            if leg.name in classes_from:
                records, residuals = self._rayleigh(frame, leg.limit())
                weights = np.array([m.row_sums() for m in self.basis], dtype=float)
                classes[leg.name] = coalescence_classes(
                    np.column_stack([records, weights]),
                    np.column_stack([residuals, np.zeros_like(weights)]))
            if leg.decode is not None:
                for branch, tab in zip(branches, leg.decode(frame, labels)):
                    setattr(branch, leg.key, tab)
        return FlowResult(branches, classes, {"legs": diags})

    def _rayleigh(self, frame, ops):
        """Rayleigh quotients of the ops (weight-block stacks) on a frame and
        their residuals, block by block; rows per branch, in basis order."""
        batches = [rayleigh(vecs, batch_ops) for vecs, batch_ops in zip(frame, zip(*ops))]
        return tuple(self.cache.by_branch([batch[k] for batch in batches]) for k in (0, 1))

    def extract_S(self, frame, labels):
        """Decode tableau S of every branch from a leg C end frame. By Howe
        duality every shape on an r x n block has at most min(r, n) rows.

        The corner Casimir C_i = sum_{a<=i} W_a^2 + 1/2 sum_{a<b<=i} kappa_ab
        is read off the kappa parts the legs hold: a branch lies in one
        weight block, where W_a is its row sum w_a, so its value is the exact
        integer sum_{a<=i} w_a^2 plus the Rayleigh quotient of the summed
        kappa stacks."""
        r, n = self.r, self.n
        quotients, _ = self._rayleigh(frame, [
            self.cache.combine([(0.5, (kappa, a, b, n)) for b in range(2, i + 1)
                                for a in range(1, b)])
            for i in range(1, r + 1)])
        out, memo = [], {}
        for label, row in zip(labels, quotients):
            wt = label.row_sums()
            sizes = [sum(wt[:i]) for i in range(1, r + 1)]
            values = [sum(x * x for x in wt[:i]) + row[i - 1] for i in range(1, r + 1)]
            out.append(_decode_chain(sizes, values, min(r, n), memo))
        return out

    def extract_T(self, frame, labels):
        """Decode the mirrored tableau T of every branch from a leg E end
        frame, with shapes of at most min(r, n) rows as for S.

        The dual corner Casimir C'_a = sum_{b<=a} c_b^2 + sum_{b<d<=a}
        (2 Omega_bd + c_b + c_d) on the block with column sums c is read off
        the Omega parts the legs hold: the Rayleigh quotient of the summed
        Omega stacks plus the exact integer, the same on every branch."""
        r, n, c = self.r, self.n, self.col_sums
        quotients, _ = self._rayleigh(frame, [
            self.cache.combine([(2.0, (omega, b, d, r)) for d in range(2, a + 1)
                                for b in range(1, d)])
            for a in range(1, n + 1)])
        constants = np.array([sum(x * x for x in c[:a]) + (a - 1) * sum(c[:a])
                              for a in range(1, n + 1)])
        sizes = [sum(c[:a]) for a in range(1, n + 1)]
        memo = {}
        return [_decode_chain(sizes, constants + row, min(r, n), memo) for row in quotients]


def flow_block(r, n, col_sums, row_sums=None, z=None, q=None, opts=None, trace=None):
    """Run all legs once on one graded block and decode (S, T) on every
    branch; returns a FlowResult with no classes, as no leg is clustered.

    A continuation or decoding failure, or branches whose S and T shapes
    differ, raise a FlowError; the block is not run again.
    """
    ctx = FlowContext(r, n, col_sums, row_sums, z, q, opts)
    result = ctx.run("ABCDE", trace=trace)
    result.diagnostics.update(q=list(ctx.q), z=list(ctx.z), seed=ctx.opts.seed)
    for branch in result.branches:
        if branch.s_tableau.shape != branch.t_tableau.shape:
            raise DecodingError(
                f"shape mismatch for label {branch.label!r}: "
                f"{branch.s_tableau.shape} vs {branch.t_tableau.shape}"
            )
    return result


def col_sum_blocks(r, n, max_entry):
    """All column-sum vectors realized by matrices with bounded entries, in
    lexicographic order."""
    return list(product(range(r * max_entry + 1), repeat=n))


def verify_main_theorem(r, n, col_sums=None, row_sums=None, max_entry=None,
                        z=None, q=None, opts=None, trace=None):
    """Check flow-extracted (S, T) against RSK on the requested blocks.

    Either fix one block by col_sums (and optional row_sums), or sweep all
    blocks touched by matrices with entries bounded by max_entry. Labels
    with entries above max_entry inside a swept block are still checked.
    """
    opts = opts or FlowOpts()
    if col_sums is not None:
        blocks = [tuple(col_sums)]
    elif max_entry is not None:
        blocks = col_sum_blocks(r, n, max_entry)
    else:
        raise SetupError("need col_sums or max_entry")
    report = {
        "r": r,
        "n": n,
        "blocks": [],
        "checked": 0,
        "mismatches": [],
        "failures": [],
        "agreement": True,
    }
    for k in blocks:
        try:
            result = flow_block(r, n, k, row_sums, z, q, opts, trace=trace)
        except FlowError as err:
            report["failures"].append({"col_sums": list(k), "error": str(err)})
            report["agreement"] = False
            continue
        block_entry = {"col_sums": list(k), "dim": len(result.branches),
                       "mismatches": 0}
        for branch in result.branches:
            p, q_tab = rsk(branch.label)
            report["checked"] += 1
            # recording side has entries bounded by r, insertion side by n
            if branch.s_tableau != q_tab or branch.t_tableau != p:
                block_entry["mismatches"] += 1
                report["mismatches"].append({
                    "label": branch.label.to_lists(),
                    "S": branch.s_tableau.to_lists(),
                    "T": branch.t_tableau.to_lists(),
                    "P": p.to_lists(),
                    "Q": q_tab.to_lists(),
                })
                report["agreement"] = False
        report["blocks"].append(block_entry)
    return report
