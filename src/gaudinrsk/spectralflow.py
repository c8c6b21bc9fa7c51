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
`FlowContext.run` carries the frame along each leg in turn and yields its
end frame; it reads nothing out.

Each family is written once, for a side: a rows x cols block at (z, q)
and a map to this block's parts (`FlowContext._family`). Leg D is leg B
of the mirrored side (n, r, q, z) of the transposed block, whose Gaudin
and dynamical operators are this side's dynamical and Gaudin ones up to
scalars (bispectral duality). Both sides take q - q_1 + 1 for q, positive
as the schedules need. The base point selects the paths:

  A  large-parameter -> base point: dynamical family plus z-scaled
     exchange operators (`main`), z on the ordered-collision schedule
     (`collision_z`), which passes through the base z at t = 1; branches
     start as monomials.
  B  from A's end, z -> 0 on the same schedule: same family; the z-scaled
     exchange operators converge to the partial exchange sums J_a =
     sum_{b<a} Omega_ba, keeping the tracked spectrum simple. Its end is
     the caterpillar point in z, where the J_a fix the Casimirs of the
     nested partial tensor products of the columns: its end frame feeds
     the T decoder (`FlowContext.extract_T`) and the z-side records
     (dynamical limits at z = 0).
  D  leg B of the mirrored side, from A's end: q -> 0 at z, to the
     caterpillar point in q; its end frame feeds the S decoder
     (`FlowContext.extract_S`) and the q-side records (Gaudin limits at
     q = 0, up to scalars).

The S decoder reads the gl_r corner Casimirs and the T decoder the
mirrored side's, the gl_n ones; each letter is the one integer eigenvalue
of a corner Casimir in its residual interval. The callers read each end
frame out as its leg ends, so a failing readout ends the flow there. The
tableau check (`flow_block`) decodes T at leg B's end and S at leg D's; it
computes no records, and a decoder's error names its leg. The cell flows
run leg A and then B, or D, or both, and cluster the records at each of
their ends (`FlowContext.classes`), linked by the records' own Rayleigh
residuals.

Each leg weights its family's operators by one draw of coefficients
(`start_coeffs`); a combined start operator whose spectrum is not simple
on some weight block ends the run. No start family depends on a frame, so
`FlowContext.run` draws for every leg it runs, in leg order, before the
first transport.

Every family holds the diagonal gl_r Cartan, and the flow adds the
weights W_i to each, so every operator summed along a leg is
block-diagonal by gl_r weight (the row sums of the monomials). A block
with column sums c is built from r*n + C(r,2) + C(n,2) + 1 primitive
parts only: the E_ii^(a), the kappa_ij (i < j), the Omega_ab (a < b) and
the identity. Every other operator the flow uses is an exact sum of
these on the block:

  W_i = sum_a E_ii^(a),
  C_i = sum_{a<=i} W_a^2 + 1/2 sum_{a<b<=i} kappa_ab (`FlowContext._casimirs`),
  E'^(i)_aa = E_ii^(a), kappa'_ab = 4 Omega_ab + 2 (c_a + c_b) and
  Omega'_ij = 1/4 kappa_ij - 1/2 (W_i + W_j), the mirrored side's parts
  (`liealg.mirrored_terms`).

The `BlockCache` builds these parts once, in one fixed order
(`primitive_parts`), so every float sum over them adds its terms in one
order, and holds each by its kind: a kappa_ij or Omega_ab as its
weight-block entries at the flat positions where some such part is
nonzero, an E_ii^(a) or the identity, diagonal on monomials, as its
diagonal. A family is a function of an array of points: each leg
evaluates it once on its whole grid, as one array of weights, a row per
point (`BlockCache.coefficients`). A leg runs
in batches of consecutive points, as many as fit BATCH_BYTES, each
point's operator summed on its own (`transport`). A 1 x 1 weight block
is not solved: its frame stays +-1 and its value is its entry, as LAPACK
returns.

Each batch is first certified, then solved. Until the first point that
fails it, `_frozen` tests whether the incoming frame V is close enough
to a point's eigenvectors (Weyl and Davis-Kahan bounds against tau =
sqrt((1 - MATCH_THRESHOLD) / 2), which adds no tolerance); a certified
point keeps V and reports its Rayleigh quotients, as on most of leg A,
which starts from the monomial frame. Then `_composed` diagonalises the
rest of the batch, one batched eigh call per block size, and matches it:
each old column takes the new column of largest overlap (`_match`), and
the leading points whose smallest such overlap reaches MATCH_THRESHOLD
are accepted at once: each batch composes its own matchings and signs,
and batches share only the count of accepted points. Every column's
overlap then exceeds 1/sqrt(2), so each matching is a permutation and the
unique optimal assignment. A refused point gets the geometric midpoint
between it and the last accepted point inserted in front of it, and the
next batch starts there; a leg that is refused again after
MAX_BISECTIONS midpoints ends with a ContinuationError.
There is one flow, one coefficient draw per leg and one cache per graded
block. The command line refuses a run whose peak memory, estimated from
the block's weight-space sizes (`flow_bytes`, `weight_sizes`), passes
MAX_BYTES.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable, NamedTuple

import numpy as np

from .combinatorics import (
    NatMatrix,
    Partition,
    SemistandardTableau,
    components,
    rsk,
)
from .crystals import pieri_shapes
from .liealg import (
    _as_block,
    casimir_eigenvalue,
    dense,
    gaudin_terms,
    identity,
    kappa,
    mirrored_terms,
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
T_MIN = 1e-3  # legs B and D end at this scale
MATCH_THRESHOLD = 0.9  # a step with a lower overlap is bisected
SNAP_THRESHOLD = 0.999  # start overlap needed to label a branch by a monomial
MAX_BISECTIONS = 40  # per leg
BATCH_BYTES = 256 * 1024  # summed operators of one transport batch
START_GAP_MIN = 1e-9  # smallest gap of the combined start spectrum
CANCEL_TOL = 1e-12  # relative squared norm below which a family operator is zero
GAP_SAFETY = 1e3  # inter-class distance over intra-class distance a clustering needs
ROUNDOFF = 1e-9  # round-off allowed relative to the largest record or to a Casimir value


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
    s_tableau: SemistandardTableau
    t_tableau: SemistandardTableau


@dataclass
class FlowResult:
    branches: list
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
    The basis is split once into these weight blocks, by the row sums of
    the block's entry array, and blocks of equal size d form a batch:
    `batches` holds one (k, d) array of basis positions per batch, in
    increasing d, its weight blocks in order of first appearance in the
    basis and each block's positions ascending. The cache holds the parts
    `primitive_parts(r, n)`, in that order, as `parts`, and no other: every
    operator the flow sums is a combination of them (see the module
    docstring), built once from the entry array of the MonomialBlock the
    cache is given (or one built from a list of monomials): the diagonals
    of E_ii^(a) and the identity straight from that array, each kappa_ij
    and Omega_ab by `liealg.dense` as a dim x dim matrix that lives until
    its weight blocks are copied out. One cache serves every leg.
    On a block of one weight, such as the S_n block, there is one batch
    with k = 1. `col_sums` holds the block's column sums, the constants of
    the dual operators.

    Each part is a row of the part matrix F (parts, |U|), its flat buffer
    of weight blocks, batch after batch, read at U (`_support`): the sorted
    flat positions where some row of F is nonzero, a tenth of the buffer
    on the S_5 block. F is filled from each part's nonzero entries once
    all are built, so no (parts, size) array is held. The store follows
    the part's kind, the rule `flow_bytes` charges: each kappa_ij and
    Omega_ab is a row of F, also where a degenerate block makes it
    diagonal or 0 (its diagonal then lies in U), and each E_ii^(a) and
    the identity, diagonal on monomials, is its diagonal, a row of D
    (r*n + 1, dim).

    Weights are rows over `parts`: `sum_parts` sums them per point, and
    `coefficients` turns a flow family, term lists whose coefficients are
    numbers or arrays over an array of points, into one weight row per
    point with each operator at unit Frobenius norm, through the Gram
    matrix of the parts, so no operator is built as a matrix of its own.
    `normalised_sum` is the one-point sum of a family, and `combine` that
    of one liealg term list, unnormalised, as one (k, d, d) stack per batch;
    `combine([(1.0, part)])` gives a part's own weight blocks."""

    def __init__(self, r, n, basis):
        self.r = r
        self.n = n
        self.block = _as_block(basis)
        self.basis = self.block.basis
        self.dim = self.block.dim
        self.col_sums = self.basis[0].col_sums() if self.dim else (0,) * n
        # the weight space of each monomial, its first position and its size
        row_sums = self.block.entry_array.reshape(self.dim, r, n).sum(axis=2)
        _, first, space, sizes = np.unique(row_sums, axis=0, return_index=True,
                                           return_inverse=True, return_counts=True)
        # basis position of each frame column, batch after batch: by weight
        # space size, then weight space in order of first appearance, then
        # basis position
        self.positions = np.lexsort((np.arange(self.dim), first[space], sizes[space]))
        ds, ks = np.unique(sizes, return_counts=True)
        ends = np.cumsum(ds * ks)
        self.batches = [self.positions[end - k * d:end].reshape(k, d)
                        for d, k, end in zip(ds.tolist(), ks.tolist(), ends.tolist())]
        self.size = sum(idx.size * idx.shape[1] for idx in self.batches)
        # flat-buffer position of each diagonal entry, in the same order
        self._diagonal = np.concatenate(
            [start + np.arange(idx.size) * (d + 1) - np.arange(idx.size) // d * d
             for idx, start, d in self._layout()] or [[]]).astype(int)
        self.parts = primitive_parts(r, n)
        self._index = {part: j for j, part in enumerate(self.parts)}
        # the store follows the kind: the E_ii^(a) and the identity are rows
        # of D, every kappa_ij and Omega_ab a row of F
        in_d = np.array([part[0] in (op_E, identity) for part in self.parts])
        self._full_at = np.flatnonzero(~in_d)
        self._diag_at = np.flatnonzero(in_d)
        # E_ii^(a) multiplies each monomial by its entry (i, a), and the
        # identity by 1: the exact values `dense` gives on their diagonals.
        # `parts` lists the E_ii^(a) row by row, as the entry array's columns
        self._diag = np.ones((r * n + 1, self.dim))
        self._diag[:-1] = self.block.entry_array[self.positions].reshape(self.dim, r * n).T
        held = []  # (flat positions, values) of the nonzero entries of each row of F
        support = np.zeros(self.size, dtype=bool)  # where some row of F is nonzero
        row = np.empty(self.size)  # one part's weight blocks, reused part by part
        for position in self._full_at:
            # the dim x dim matrix lives until its weight blocks are copied out
            stacks = self.split(dense(part_operator(self.parts[position]), self.block))
            for view, stack in zip(self._views(row), stacks):
                view[...] = stack
            at = np.flatnonzero(row)
            support[at] = True
            held.append((at, row[at]))
        # F on U, the sorted flat positions where some row of F is nonzero
        self._support = np.flatnonzero(support)
        self._full = np.zeros((len(held), self._support.size))
        for flat, (at, values) in zip(self._full, held):
            flat[np.searchsorted(self._support, at)] = values
        # the Gram matrix: Frobenius inner products of the parts; F meets D
        # on the diagonal positions in U only
        on = support[self._diagonal]
        cross = (self._full[:, np.searchsorted(self._support, self._diagonal[on])]
                 @ self._diag[:, on].T)
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

    def sum_parts(self, weights):
        """Flat buffers (points, size) of sum_j weights[p][j] * part_j over
        `parts`, one row per point p. Each point's sum is its own pair of
        products, w_F @ F written at U into a zeroed buffer and then w_D @ D
        added on the diagonal positions, so it does not depend on the other
        points summed with it."""
        out = np.zeros((len(weights), self.size))
        for flat, w in zip(out, weights):
            flat[self._support] = w[self._full_at] @ self._full
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

    def coefficients(self, ops, coeffs, points=1, leg=""):
        """Weights (points, parts) over `parts` with
        sum_o coeffs[o] * op_o / |op_o|_F = sum_j weights[p, j] * part_j at
        each point p, for term lists ops whose coefficients are numbers or
        arrays over the points (`_rows`).

        Row o of a point's coefficient matrix holds op_o's coefficients on
        the parts, so |op_o|_F^2 = m_o G m_o^T at that point. An operator
        whose terms cancel on the block there, its squared norm at most
        CANCEL_TOL times sum_jk |m_oj m_ok G_jk|, is left out at that point.
        Every product is taken per point, so a point's weights do not
        depend on the other points evaluated with it. A coefficient, squared
        norm or weight that is not finite, as a q spread near the float
        limit gives, raises ContinuationError naming the leg.
        """
        gram = self._gram
        with np.errstate(over="ignore", invalid="ignore"):
            rows = self._rows(ops, points)
            sq = np.sum(rows @ gram * rows, axis=-1)
            scale = np.sum(np.abs(rows) @ np.abs(gram) * np.abs(rows), axis=-1)
            live = sq > CANCEL_TOL * scale
            factors = np.zeros(sq.shape)
            factors[live] = np.broadcast_to(coeffs, sq.shape)[live] / np.sqrt(sq[live])
            weights = (factors[:, None, :] @ rows)[:, 0]
        if not all(np.isfinite(x).all() for x in (rows, sq, scale, weights)):
            raise ContinuationError(f"{leg}: family overflows the float range "
                                    "(a coefficient, norm or weight is not finite)")
        return weights

    def normalised_sum(self, ops, coeffs, leg=""):
        """sum_o coeffs[o] * op_o / |op_o|_F over the term lists ops of one
        point, as per-batch stacks (`coefficients`)."""
        return self._views(self.sum_parts(self.coefficients(ops, coeffs, leg=leg))[0])

    # no flow code calls these: the benchmark's layer table and tests do
    def nabla_mat(self, i, z, q):
        return self.combine(nabla_terms(i, z, q, self.n))

    def gaudin_mat(self, a, z, q):
        return self.combine(gaudin_terms(a, z, q, self.r))

    def dual_nabla0_mat(self, a, z):
        return self.combine(mirrored_terms(nabla_terms(a, (0.0,) * self.r, z, self.r),
                                           self.r, self.n, self.col_sums))


# the largest estimated peak of a run (`flow_bytes`): 1 GiB lets two runs, one per core of a
# 2-core host, share its memory; CI's blocks and `cells --n 6` (234 MiB) fit, `cells --n 7` not
MAX_BYTES = 2**30


def weight_sizes(r, n, col_sums, row_sums=None):
    """The sizes d_w of the block's gl_r weight spaces (of its one weight
    space row_sums, if given), counted entry by entry down each column with
    no monomial listed: a state is the row sums still open and the rest of
    the column, with its number of ways. Every way starts a monomial, so
    the count stops, returning None, once they outnumber the monomials of a
    block whose dense part, 8 d^2 bytes, fits MAX_BYTES; a whole block
    tells that first by its closed-form size."""
    most = math.isqrt(MAX_BYTES // 8)
    if row_sums is None:
        if math.prod(math.comb(c + r - 1, r - 1) for c in col_sums) > most:
            return None
        caps = (sum(col_sums),) * r
    elif len(row_sums) == r and sum(row_sums) == sum(col_sums):
        caps = tuple(row_sums)
    else:
        return []
    states = {(caps, 0): 1}
    for c in filter(None, col_sums):  # an empty column changes no state
        states = {(free, c): ways for (free, _), ways in states.items()}
        for i in range(r):
            placed = {}
            for (free, left), ways in states.items():
                # the rows below must take what is left of the column
                for x in range(max(0, left - sum(free[i + 1:])), min(left, free[i]) + 1):
                    key = (free[:i] + (free[i] - x,) + free[i + 1:], left - x)
                    placed[key] = placed.get(key, 0) + ways
            if sum(placed.values()) > most:
                return None
            states = placed
    return list(states.values())


def flow_bytes(r, n, sizes, steps):
    """Bytes a flow on a block holds at its peak above the imported modules,
    from the sizes d of its gl_r weight spaces (dim = sum d), its P parts and
    the grid steps per leg: the C(r,2) + C(n,2) kappa_ij and Omega_ab, the
    rows of F, sum d^2 floats each (a bound: a row of F takes |U| of them),
    the parts as diagonals, dim floats each, and the P x P Gram matrix
    twice (`BlockCache`); the one dense dim x dim part held while F is
    built;
    max(r, n) + 20 buffers of sum d^2 floats: six frames, about eleven of a
    point's eigensolve and matching, a decoder's max(r, n) stacks and three
    products (the m x m clustering arrays of `cells`, on the one weight
    block of S_n, take fewer); five (steps, 2(r + n), P) coefficient arrays
    of a leg; 1 KiB per monomial; and 8 MiB, what a 1 x 1 block takes."""
    dim, flat = sum(sizes), sum(d * d for d in sizes)
    parts = r * n + math.comb(r, 2) + math.comb(n, 2) + 1
    buffers = math.comb(r, 2) + math.comb(n, 2) + max(r, n) + 20
    return (8 * (buffers * flat + dim * dim + parts * dim + 2 * parts * parts
                 + 10 * steps * (r + n) * parts)
            + 1024 * dim + 2**23)


def _scaled(scalar, terms):
    """The term list of scalar times an operator."""
    return [(scalar * c, part) for c, part in terms]


def _draw_coeffs(rng, count):
    # rationals in [1, 2): generic but tame scale
    return np.array([1 + rng.integers(0, 1000) / 1000 for _ in range(count)])


def start_coeffs(cache, ops, rng, leg=""):
    """One draw of coefficients for ops, a leg's start family at a
    one-point array, whose combined operator (`BlockCache.normalised_sum`)
    has every gap inside each weight block above START_GAP_MIN (one
    eigvalsh call per batch with d > 1), or ContinuationError."""
    coeffs = _draw_coeffs(rng, len(ops))
    if all(np.diff(np.linalg.eigvalsh(stack), axis=-1).min() > START_GAP_MIN
           for stack in cache.normalised_sum(ops, coeffs, leg) if stack.shape[-1] > 1):
        return coeffs
    raise ContinuationError(f"{leg}: degenerate combined spectrum")


def _match(overlaps):
    """The matching rule of every transport step, on signed overlaps
    (..., d, d) whose row j holds old column j dotted with each new column:
    each old column j takes the new column of largest |overlap|, the argmax
    along its row.

    Both frames are orthonormal, so where every such overlap exceeds
    1/sqrt(2), as on every step that reaches MATCH_THRESHOLD, this is a
    permutation, and the unique one of largest summed overlap.

    Returns (new column of each old column, its signed overlap), two
    arrays (..., d).
    """
    cols = np.abs(overlaps).argmax(axis=-1)
    return cols, np.take_along_axis(overlaps, cols[..., None], axis=-1)[..., 0]


def _frozen(stacks, frame, final=False):
    """(number of leading points the frame is certified at, Rayleigh
    quotients per batch) for per-batch stacks (points, k, d, d) of summed
    operators S and the frame V they come in with.

    One product S V per batch gives each column's quotient rho_i = v_i.S v_i,
    (points, k, d), and residual r_i = |S v_i - rho_i v_i|. By Weyl every
    eigenvalue lies within |S V - V diag rho|_F of its quotient in sorted
    order, so every eigenvalue but one lies at least delta_i = min_{j!=i}
    |rho_j - rho_i| - |S V - V diag rho|_F from rho_i, and where delta_i > 0
    Davis-Kahan bounds the angle from v_i to that one's eigenvector u_i:
    sin(v_i, u_i) <= r_i / delta_i. A column is certified where r_i <= tau
    delta_i with tau = sqrt((1 - MATCH_THRESHOLD) / 2): two frames each
    within asin(tau) of the eigenvectors overlap by at least cos(2 asin
    tau) = 1 - 2 tau^2 = MATCH_THRESHOLD, so the matched overlap test of a
    solved point would accept V's columns in order, and V overlaps the
    eigenvectors by at least sqrt(1 - tau^2), about 0.975. A column is also
    kept where r_i is at most d eps max|rho| over its block, the
    backward-error scale of LAPACK's eigh, where the frame is as close to
    the eigenvectors as eigh's own would be. A point passes where every
    column of every block with d > 1 passes one of the two; rho_i is then
    within r_i^2 / delta_i of its eigenvalue (Kato-Temple). With final, the
    last point is the end of a leg, whose frame later legs, decoders and
    records read: it passes on eigh's backward-error scale only. A batch
    with d = 1 takes its entries as quotients.

    The quotients and residuals are those of `rayleigh`, one product over
    the whole batch, whose rows for a point do not depend on the other
    points in it. Where the leading point fails, as at the start of most
    legs, the other points' rows go unread."""
    tau = math.sqrt((1 - MATCH_THRESHOLD) / 2)
    count = len(stacks[0])
    passing, within, quotients = np.ones(count, dtype=bool), np.ones(count, dtype=bool), []
    for stack, old in zip(stacks, frame):
        d = old.shape[-1]
        if d == 1:
            quotients.append(stack[..., 0])
            continue
        rho, residual = (a[..., 0] for a in rayleigh(old, [stack]))
        small = residual <= d * np.finfo(float).eps * np.abs(rho).max(axis=-1, keepdims=True)
        gaps = np.abs(rho[..., :, None] - rho[..., None, :])
        gaps[..., np.arange(d), np.arange(d)] = np.inf
        delta = gaps.min(axis=-1) - np.linalg.norm(residual, axis=-1, keepdims=True)
        passing &= np.all(small | ((delta > 0) & (residual <= tau * delta)), axis=(1, 2))
        within &= np.all(small, axis=(1, 2))
        quotients.append(rho)
    if final:
        passing[-1] &= within[-1]
    return (count if passing.all() else int(passing.argmin())), quotients


def _composed(stacks, frame, traced=False):
    """Eigenframes of the summed operators at consecutive points, given as
    per-batch stacks (points, k, d, d), each matched to the frame before it
    (the first to frame), up to the first point whose smallest best overlap
    is below MATCH_THRESHOLD.

    Each batch with d > 1 is diagonalised by one eigh call over its stack.
    Two batched products, written into one array, give the overlaps of
    every point's eigenvectors with the frame before, as (frame before)^T
    @ (eigenvectors), so row j is old column j: the given frame for the
    first point, the unmatched eigenvectors of the point before for the
    others. `_match` pairs each column of the frame before with the argmax
    along its row. Batches share only the count of accepted points: each
    composes its own matchings and signs over them. A 1 x 1 block keeps
    its frame and takes its entry as value.

    Returns (frame at the last accepted point, per accepted point a pair
    (eigenvalues per batch, (k, d) arrays laid out like the frame, or None
    unless traced, min overlap), the min overlap of the first refused
    point or None); the points after the accepted ones are left to the
    caller. The frame returned is the given object itself while no point
    is accepted.
    """
    count = len(stacks[0])
    # a 1 x 1 block's value is its entry and its frame stays: LAPACK's
    # eigenvector 1 would be matched back to the frame's +-1 at overlap 1
    values = [stack[..., 0] for stack in stacks]
    # per batch with d > 1: its index, eigenvectors, the new column each
    # column of the frame before matches and the sign of that match
    solved, overlaps = [], np.ones(count)
    for b, (stack, old) in enumerate(zip(stacks, frame)):
        if old.shape[-1] == 1:
            continue
        values[b], vecs = np.linalg.eigh(stack)
        # (frame before)^T @ (new eigenvectors): row j is old column j
        products = np.empty(stack.shape)
        np.matmul(np.swapaxes(old, 1, 2), vecs[0], out=products[0])
        np.matmul(np.swapaxes(vecs[:-1], 2, 3), vecs[1:], out=products[1:])
        cols, picked = _match(products)
        np.minimum(overlaps, np.abs(picked).min(axis=(1, 2)), out=overlaps)
        solved.append((b, vecs, cols, np.where(picked < 0, -1.0, 1.0)))
    refused = np.flatnonzero(overlaps < MATCH_THRESHOLD)
    accepted = int(refused[0]) if refused.size else count
    if not accepted:
        return frame, [], float(overlaps[0])
    frame, points = list(frame), np.arange(accepted)[:, None, None]
    for b, vecs, cols, signs in solved:
        k, d = cols.shape[1:]
        blk = np.arange(k)[:, None]
        # column c of block j of the frame follows column orders[g + 1, j, c]
        # of point g's eigenvectors; orders[0] is the frame's own order
        orders = np.empty((accepted + 1, k, d), dtype=int)
        orders[0] = np.arange(d)
        for g in range(accepted):
            orders[g + 1] = cols[g][blk, orders[g]]
        if traced:
            values[b] = values[b][points, blk, orders[1:]]
        matched = vecs[accepted - 1][blk, :, orders[-1]]
        matched *= signs[points, blk, orders[:-1]].prod(axis=0)[:, :, None]
        frame[b] = np.swapaxes(matched, 1, 2)
    steps = [([vals[g] for vals in values] if traced else None, overlaps[g])
             for g in range(accepted)]
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

    The family is evaluated once on the whole grid, as one weight row per
    point (`BlockCache.coefficients`), and the points still to reach are
    taken in batches of as many consecutive points as keep their summed
    operators within BATCH_BYTES (at least one), each batch summed once
    (`BlockCache.sum_parts`, each point's sum on its own). Until the first
    point that fails it, each batch's leading points are tested against the
    incoming frame (`_frozen`; the leg's last grid point on eigh's
    backward-error scale only): each certified point keeps the frame and
    takes its Rayleigh quotients as eigenvalues at overlap 1, so every
    bisection midpoint is solved. `_composed` solves the rest of the batch
    and accepts its leading points whose smallest best overlap is at least
    MATCH_THRESHOLD; the first of them is matched to the frame the certified
    points kept. A refused start point fails the leg. Any other refused
    point gets the geometric midpoint between it and the last accepted
    point inserted in front of it, evaluated as a one-point array, and the
    next batch starts there; a refusal after MAX_BISECTIONS such midpoints
    in the leg fails it. Every accepted point after the start is a step;
    each grid point, and no midpoint, hands trace.append one record (leg,
    t, eigenvalues as a list of floats in branch order), the only reader
    of those eigenvalues: certified and solved points alike hand their
    per-batch values to `BlockCache.by_branch` there, and with no trace
    they are not kept. Returns
    (vectors at grid[-1], diagnostics): steps, bisections, the smallest
    accepted overlap, the points kept without eigh (frozen) and the points
    eigensolved (solved), counting the points of a batch solved and then
    discarded after a refusal.
    """
    diag = {"leg": leg, "steps": 0, "bisections": 0, "min_overlap": 1.0,
            "frozen": 0, "solved": 0}
    per_batch = max(1, BATCH_BYTES // (8 * cache.size))
    grid = np.asarray(grid, dtype=float)
    weights = cache.coefficients(family(grid), coeffs, len(grid), leg)
    # (point, on the grid, weight row)
    pending = [(t, True, w) for t, w in zip(grid, weights)]
    current, t_prev = vectors, None  # t_prev: the last accepted point
    testing = True  # no point has failed the test yet
    traced = trace is not None
    while pending:
        batch = pending[:per_batch]
        stacks = cache._views(cache.sum_parts([w for _, _, w in batch]))
        frozen, quotients = 0, None
        if testing:
            # the last pending point is always the leg's last grid point
            frozen, quotients = _frozen(stacks, current, len(batch) == len(pending))
            testing = frozen == len(batch)
        # a point's eigenvalues are read by the trace only
        steps = [([rho[p] for rho in quotients] if traced else None, 1.0)
                 for p in range(frozen)]
        refused = None
        if frozen < len(batch):
            current, solved, refused = _composed([stack[frozen:] for stack in stacks],
                                                 current, traced)
            steps += solved
        diag["frozen"] += frozen
        diag["solved"] += len(batch) - frozen
        for (t, on_grid, _), (values, overlap) in zip(batch, steps):
            diag["min_overlap"] = min(diag["min_overlap"], overlap)
            if t_prev is not None:
                diag["steps"] += 1
            if on_grid and traced:
                trace.append((leg, float(t), cache.by_branch(values).tolist()))
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
        pending.insert(0, (mid, False, cache.coefficients(family(np.array([mid])), coeffs,
                                                           leg=leg)[0]))
        diag["bisections"] += 1
    return current, diag


def snap_to_monomials(vectors, basis, cache):
    """Identify each start eigenline with a monomial; returns labels.

    Cross-checks the coordinate match against the diagonal eigenvalues
    v.E_ii^(a) v, with E_ii^(a) the diagonal of entries (i, a) of the
    block's entry array.
    """
    labels = []
    used = set()
    entries = cache.block.entry_array.reshape(cache.dim, cache.r * cache.n).astype(float)
    diagonals = {(i, a): entries[:, (i - 1) * cache.n + a - 1]
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
        for (i, a), diagonal in diagonals.items():
            val = (v * diagonal) @ v
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
    classes = components(range(m), np.argwhere(upper & linked).tolist())
    class_of = np.empty(m, dtype=int)
    for k, cls in enumerate(classes):
        class_of[cls] = k
    same = class_of[:, None] == class_of[None, :]
    intra = float(dists[upper & same].max(initial=0.0))
    inter = float(dists[upper & ~same].min(initial=math.inf))
    if intra * GAP_SAFETY > inter:
        raise ClusteringError(f"ambiguous clustering: intra {intra:.3e} vs inter {inter:.3e}")
    return classes


def _decode_chain(sizes, values, residuals, max_rows, memo=None):
    """Recover a tableau from corner Casimir data.

    sizes[i] is the exact number of boxes after step i+1; values[i] is a
    Rayleigh quotient rho of the quadratic Casimir of the rank-(i+1) corner
    and residuals[i] its residual r. The Casimir's eigenvalues are integers,
    one within r of rho (Krylov-Weinstein): letter i+1 fills the horizontal
    strip of the Pieri step, of at most max_rows rows, whose value is the
    one integer in [rho - h, rho + h], h = r + ROUNDOFF |rho|. memo, shared
    by the chains of one decoder call (one max_rows), keeps the candidate
    shapes and their exact values per (shape, boxes added, letter).
    """
    memo = {} if memo is None else memo
    shape, rows = Partition([]), []
    for step, (size, rho, res) in enumerate(zip(sizes, values, residuals), start=1):
        added = size - shape.size
        exact = memo.get((shape, added, step))
        if exact is None:
            exact = memo[shape, added, step] = {
                mu: casimir_eigenvalue(mu, step)
                for mu in pieri_shapes(shape, added, min(step, max_rows))}
        half = res + ROUNDOFF * abs(rho)
        finite = math.isfinite(rho) and math.isfinite(res)  # else it holds no integer
        held = range(math.ceil(rho - half), math.floor(rho + half) + 1) if finite else range(0)
        value = held[0] if len(held) == 1 else None
        shapes = sorted((mu for mu, val in exact.items() if val == value), key=lambda mu: mu.parts)
        if len(shapes) > 1:
            # no choice of z or q separates shapes with equal eigenvalues
            raise DecodingError(
                f"exact Casimir tie at letter {step}: shapes {shapes[0].parts} "
                f"and {shapes[1].parts} both give {value}"
            )
        if not shapes:
            where = f": {rho} +- {half:.2g} holds integers {list(held)}" if finite else ""
            raise DecodingError(
                f"no corner shape matches Casimir value {rho:.4f} at letter {step}{where}")
        mu = shapes[0]
        rows += [[] for _ in range(len(mu) - len(rows))]
        for i, row in enumerate(rows, start=1):
            row.extend([step] * (mu.part(i) - shape.part(i)))
        shape = mu
    return SemistandardTableau(rows, len(sizes))


class Leg(NamedTuple):
    """One row of the leg table: what `FlowContext.run` transports."""

    name: str
    start: str | None  # leg whose end frame this one continues; None: monomials
    grid: np.ndarray
    # array of points -> term lists whose coefficients broadcast over them,
    # without the weights
    family: Callable


class FlowContext:
    """Everything needed to run the legs on one graded block, with the
    block's BlockCache. A base z that is not positive and increasing, or
    that the collision schedule reorders on leg A's grid, a base q that is
    not strictly increasing, also once shifted to q - q_1 + 1 (the q the
    sides take), or a negative seed, raise SetupError."""

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
        # the flow pairs its branches with RSK only for increasing q; the
        # sides take q - q_1 + 1, which merges q closer than one ulp of 1
        q = tuple(x - self.q[0] + 1 for x in self.q)
        if list(q) != sorted(set(q)):
            raise SetupError(f"flow needs strictly increasing base q, got q - q_1 + 1 = {q}")
        if self.opts.seed < 0:
            raise SetupError("flow needs a non-negative seed")
        grid = np.geomspace(1.0, T_MAX, self.opts.steps)
        # a z near the float limit overflows to inf on the grid, unordered
        with np.errstate(over="ignore"):
            zt = np.reshape(collision_z(self.z, grid), (n, grid.size))
        unordered = np.flatnonzero((zt[:-1] >= zt[1:]).any(axis=0))
        if unordered.size:
            raise SetupError(f"collision schedule unordered at t={grid[unordered[0]]}")
        # the sides (rows, cols, z, q, map to this block's parts), q - q_1 + 1
        # for q; no map holds self, so a context is freed without the cycle GC
        self.sides = ((r, n, self.z, q, lambda terms: terms),
                      (n, r, q, self.z, partial(mirrored_terms, r=r, n=n, col_sums=self.col_sums)))
        self.cache = BlockCache(r, n, weight_basis(r, n, self.col_sums, self.row_sums))
        self.basis = self.cache.basis
        self.rng = np.random.default_rng(self.opts.seed)

    def legs(self):
        """The leg table in run order; each leg is a log-spaced grid and a
        side's family of the grid parameter (`_family`): A from T_MAX down
        to t = 1, where it ends at the base point, and B and D from there on
        to t = T_MIN."""
        steps = self.opts.steps
        main, main_m = map(self._family, self.sides)
        down = np.geomspace(1.0, T_MIN, steps)
        return (
            Leg("A", None, np.geomspace(T_MAX, 1.0, steps), main),
            Leg("B", "A", down, main),
            Leg("D", "A", down, main_m),
        )

    def _family(self, side):
        """A side's family main(t) in this block's parts: the nabla_i and
        z_a H_a at z on the collision schedule. Path scalars are folded into
        the coefficients, so the family stays bounded."""
        rows, cols, z, q, mapped = side

        def main(t):
            # a coefficient past the float range is named by `coefficients`
            with np.errstate(over="ignore", invalid="ignore"):
                zt = collision_z(z, t)
                return [mapped(terms) for terms in
                        [nabla_terms(i, zt, q, cols) for i in range(1, rows + 1)]
                        + [_scaled(zt[a - 1], gaudin_terms(a, zt, q, rows))
                           for a in range(1, cols + 1)]]

        return main

    def run(self, names, trace=None):
        """Run the named legs of the table (`legs`) in order, yielding
        (leg name, end frame, transport diagnostics) as each leg ends.

        Each leg's coefficients are drawn (`start_coeffs`), in leg order,
        before any leg runs, so a degenerate start ends the run at once.
        Every leg's family gets the weights W_i = sum_a E_ii^(a) added, as
        sums of the E_ii^(a) parts. Frames are weight-block stacks
        (`BlockCache.split`) whose columns follow the branches labelled by
        `basis`. A caller reads a frame out as it is yielded, so an error
        of its readout ends the flow before the next leg runs.
        """
        cache = self.cache
        weight_terms = [[(1.0, (op_E, i, i, a)) for a in range(1, self.n + 1)]
                        for i in range(1, self.r + 1)]
        legs = [leg for leg in self.legs() if leg.name in names]

        def family(leg):
            return lambda t: leg.family(t) + weight_terms

        coeffs = {}
        if cache.dim > 1:
            for leg in legs:
                coeffs[leg.name] = start_coeffs(cache, family(leg)(leg.grid[:1]), self.rng,
                                                leg.name)
        frames = {}
        for leg in legs:
            # leg A starts from the identity frame, so its start-overlap test
            # checks that the monomials are the start eigenlines
            frame = cache.identity() if leg.start is None else frames[leg.start]
            if cache.dim <= 1:
                diag = {"leg": leg.name, "steps": 0, "bisections": 0, "min_overlap": 1.0,
                        "frozen": 0, "solved": 0}
            else:
                frame, diag = transport(frame, cache, family(leg), leg.grid, coeffs[leg.name],
                                        trace=trace, leg=leg.name)
            frames[leg.name] = frame
            yield leg.name, frame, diag

    def classes(self, frame, side):
        """`coalescence_classes` of the branches at leg B's end frame (side
        0) or leg D's (side 1): the Rayleigh records of the side's nabla_i at
        z = 0, and the r weights W_i as each branch's exact row sums with
        residual 0 (a frame column lies in one weight block)."""
        rows, cols, _, q, mapped = self.sides[side]
        records, residuals = self._rayleigh(frame, [
            self.cache.combine(mapped(nabla_terms(i, (0.0,) * cols, q, cols)))
            for i in range(1, rows + 1)])
        weights = np.array([m.row_sums() for m in self.basis], dtype=float)
        return coalescence_classes(np.column_stack([records, weights]),
                                   np.column_stack([residuals, np.zeros_like(weights)]))

    def _rayleigh(self, frame, ops):
        """Rayleigh quotients of the ops (weight-block stacks) on a frame and
        their residuals, block by block; rows per branch, in basis order."""
        batches = [rayleigh(vecs, batch_ops) for vecs, batch_ops in zip(frame, zip(*ops))]
        return tuple(self.cache.by_branch([batch[k] for batch in batches]) for k in (0, 1))

    def extract_S(self, frame, labels):
        """Tableau S of every branch from a leg D end frame, the caterpillar
        point in q (`_decode`)."""
        return self._decode(frame, self.sides[0], [label.row_sums() for label in labels])

    def extract_T(self, frame, labels):
        """Tableau T of every branch from a leg B end frame, the caterpillar
        point in z (`_decode`)."""
        return self._decode(frame, self.sides[1], [self.col_sums] * len(labels))

    def _casimirs(self, frame, side, weights):
        """Corner Casimir data (sizes, values, residuals), arrays (branches,
        rows), of a side, from the end frame of the leg that collides the
        other side's points (leg D for side 0, leg B for side 1) and each
        branch's weights w there: entry i - 1 of a row holds the boxes
        sum_{a<=i} w_a and the Rayleigh quotient and residual of the side's
        corner Casimir C_i = sum_{a<=i} W_a^2 + 1/2 sum_{a<b<=i} kappa_ab,
        the exact sum_{a<=i} w_a^2 plus the quotient of its summed kappa
        stacks, as a branch lies in one weight block; that quotient's
        residual is C_i's."""
        rows, cols, _, _, mapped = side
        quotients, residuals = self._rayleigh(frame, [
            self.cache.combine(mapped([(0.5, (kappa, a, b, cols)) for b in range(2, i + 1)
                                       for a in range(1, b)]))
            for i in range(1, rows + 1)])
        wt = np.array(weights, dtype=int).reshape(len(weights), rows)
        return (np.cumsum(wt, axis=1), np.cumsum(wt * wt, axis=1) + quotients.reshape(wt.shape),
                residuals.reshape(wt.shape))

    def _decode(self, frame, side, weights):
        """A tableau per branch, of at most min(r, n) rows (Howe duality),
        from the corner Casimir data of a side at a caterpillar end frame
        (`_casimirs`). Every letter's interval [ceil(rho - h), floor(rho +
        h)], h = r + ROUNDOFF |rho|, is taken for all branches at once, as
        `_decode_chain` takes it; the branches whose intervals each hold one
        integer share one `_decode_chain` call per (sizes, integers). Any
        other branch is decoded on its own, so the first branch in basis
        order whose chain fails raises, as if each were decoded alone."""
        rows, cols = side[:2]
        sizes, values, residuals = self._casimirs(frame, side, weights)
        half = residuals + ROUNDOFF * np.abs(values)
        with np.errstate(invalid="ignore", over="ignore"):
            low, high = np.ceil(values - half), np.floor(values + half)
        # low == high only where both are finite: a NaN or infinite value
        # or residual gives a NaN or an infinite bound on one side only
        single = np.all(low == high, axis=1)
        out, memo, decoded = [], {}, {}
        for size, row, res, one, letters in zip(sizes.tolist(), values, residuals, single, low):
            # a branch without one integer per letter is its own key
            key = (tuple(size), tuple(map(int, letters))) if one else len(out)
            if key not in decoded:
                decoded[key] = _decode_chain(size, row, res, min(rows, cols), memo)
            out.append(decoded[key])
        return out


def flow_block(r, n, col_sums, row_sums=None, z=None, q=None, opts=None, trace=None):
    """Run legs A, B and D once on one graded block and decode (S, T) on
    every branch, T from leg B's end frame and S from leg D's, the
    caterpillar points in z and in q, each as its leg ends; returns a
    FlowResult.

    A continuation or decoding failure, or branches whose S and T shapes
    differ, raise a FlowError; a decoder's error names its leg and ends the
    flow there. The block is not run again.
    """
    ctx = FlowContext(r, n, col_sums, row_sums, z, q, opts)
    decoders = {"B": ctx.extract_T, "D": ctx.extract_S}
    tableaux, diags = {}, []
    for name, frame, diag in ctx.run("ABD", trace):
        diags.append(diag)
        if name in decoders:
            try:
                tableaux[name] = decoders[name](frame, ctx.basis)
            except DecodingError as err:
                raise DecodingError(f"{name}: {err}") from err
    branches = [EigenBranch(*branch) for branch in zip(ctx.basis, tableaux["D"], tableaux["B"])]
    for branch in branches:
        if branch.s_tableau.shape != branch.t_tableau.shape:
            raise DecodingError(
                f"shape mismatch for label {branch.label!r}: "
                f"{branch.s_tableau.shape} vs {branch.t_tableau.shape}"
            )
    return FlowResult(branches, {"legs": diags})


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
