"""Commuting operator families on graded pieces of polynomials on r-by-n
matrices.

Monomials x^A are indexed by non-negative integer matrices A. Two commuting
copies of a general linear Lie algebra act: gl_r through the generators
E_ij^(a) moving a box between rows i, j inside column a, and gl_n through
the generators acting inside a fixed row. Operators are stored exactly as
rational combinations of words (products) of these box moves.

Each commuting family is written once, as (coefficient, part) terms. A
part is a hashable key such as (kappa, i, j, n), naming the constant
operator kappa(i, j, n); symmetric parts are keyed by the ordered pair. The
exact builders sum the terms in rationals, the spectral flow in floats.
The flow's term lists name four kinds of part only: the E_ii^(a), the
kappa_ij, the Omega_ab and the identity (the empty word), and
`mirrored_terms` writes the term lists of the transposed block in these.

The float matrices of the spectral flow come from `dense`, which walks
each word over the block's entry array (`MonomialBlock.walk`): every basis
monomial at once, in integer counts, each image found by an exact integer
key, with no generator table and no Fraction.

The exact checks (exact matrices, commutators, adjointness and
eigenprojectors) follow the words through generator tables instead. A
`MonomialBlock` numbers the monomials and tabulates each generator as a
map from a monomial's number to its image's number and an integer count.
A table entry is filled, through `Operator.apply_monomial` of the block's
one operator for that generator, the first time a word reaches that
monomial, so intermediate images may leave the block. `apply_monomial`
follows each word in integer counts and multiplies by the word's Fraction
only at the images it reaches. The checks keep integer coefficients over
the common denominator of the operator's rationals, so every check is
exact and free of floating point.

`weight_basis` enumerates a block as one int64 entry array, column by
column, and returns it as a `MonomialBlock`, a read-only sequence of the
monomials that keeps that array; its tables and entry array live as long as
that object: every check given the same block shares them and fills each
entry once. A plain list of monomials gets a fresh block on every call.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Sequence
from fractions import Fraction

import numpy as np

from .combinatorics import NatMatrix, Partition


def _shift(matrix, moves):
    """Add the (row, col, delta) moves; return None if an entry goes negative.
    Only the rows that change are rebuilt."""
    rows = list(matrix.entries)
    changed = {}
    for i, a, d in moves:
        row = changed.get(i)
        if row is None:
            row = changed[i] = list(rows[i])
        row[a] += d
        if row[a] < 0:
            return None
    for i, row in changed.items():
        rows[i] = tuple(row)
    return NatMatrix._unchecked(tuple(rows), matrix.r, matrix.n)


def _apply_generator(gen, matrix):
    """One box move on a monomial: returns (count, new matrix), or None
    where the move kills the monomial (count 0)."""
    kind, i, j, a = gen
    if kind == "E":  # gl_r: row j -> row i inside column a
        count = matrix[j - 1, a - 1]
        if count == 0:
            return None
        if i == j:
            return count, matrix
        return count, _shift(matrix, [(i - 1, a - 1, +1), (j - 1, a - 1, -1)])
    # kind == "D", gl_n: column j -> column i inside row a
    count = matrix[a - 1, j - 1]
    if count == 0:
        return None
    if i == j:
        return count, matrix
    return count, _shift(matrix, [(a - 1, i - 1, +1), (a - 1, j - 1, -1)])


class Operator:
    """An exact rational combination of products of box-moving generators.

    Terms map a factor tuple (applied right to left) to a Fraction. The
    empty factor tuple is the identity.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for factors, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff:
                self.terms[tuple(factors)] = coeff

    @classmethod
    def _from_fractions(cls, terms):
        """The operator with the terms, a dict from factor tuples to
        Fractions, dropping zero coefficients without coercing the others."""
        op = cls.__new__(cls)
        op.terms = {f: c for f, c in terms.items() if c}
        return op

    def __add__(self, other):
        return _summed((self, other))

    def __neg__(self):
        return Operator._from_fractions({f: -c for f, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Operator):
            terms = {}
            for f1, c1 in self.terms.items():
                for f2, c2 in other.terms.items():
                    key = f1 + f2
                    terms[key] = terms.get(key, 0) + c1 * c2
            return Operator._from_fractions(terms)
        return self.scale(other)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def __truediv__(self, scalar):
        return self.scale(Fraction(1, 1) / Fraction(scalar))

    def scale(self, scalar):
        scalar = Fraction(scalar)
        return Operator._from_fractions({f: scalar * c for f, c in self.terms.items()})

    def commutator(self, other):
        return self * other - other * self

    def apply_monomial(self, matrix):
        """Image of the monomial x^matrix as {matrix: Fraction}.

        Each word is followed in integer counts; its Fraction multiplies
        each image it reaches once, and images whose terms cancel are left
        out."""
        out = {}
        for factors, coeff in self.terms.items():
            current = {matrix: 1}
            for gen in reversed(factors):
                step = {}
                for m, c in current.items():
                    hit = _apply_generator(gen, m)
                    if hit is not None:
                        count, moved = hit
                        step[moved] = step.get(moved, 0) + c * count
                current = step
                if not current:
                    break
            for m, c in current.items():
                out[m] = out.get(m, 0) + coeff * c
        return {m: c for m, c in out.items() if c}


def op_E(i, j, a):
    """gl_r generator E_ij acting in tensor factor (column) a; 1-based."""
    return Operator({(("E", i, j, a),): 1})


def dual_op_E(a, b, i):
    """gl_n generator E_ab acting in row i; 1-based."""
    return Operator({(("D", a, b, i),): 1})


def identity():
    """The identity operator: the empty word."""
    return Operator({(): 1})


def delta_n(i, j, n):
    """Diagonal gl_r action: sum of E_ij over all n columns."""
    return Operator({(("E", i, j, a),): 1 for a in range(1, n + 1)})


def delta_r(a, b, r):
    """Diagonal gl_n action: sum over all r rows."""
    return Operator({(("D", a, b, i),): 1 for i in range(1, r + 1)})


def weight_op(i, n):
    """W_i: total number of boxes in row i."""
    return delta_n(i, i, n)


def kappa(i, j, n):
    """kappa_ij = 2(E_ij E_ji + E_ji E_ij) under the diagonal gl_r action,
    written out as the words of (x y + y x).scale(2), x = delta_n(i, j, n)
    and y = delta_n(j, i, n), in their order: E_ij^(a) E_ji^(b), then
    E_ji^(a) E_ij^(b), each at 2; for i = j the two coincide, at 4."""
    two, terms = Fraction(2), {}
    for x, y in ((i, j), (j, i)):
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                word = (("E", x, y, a), ("E", y, x, b))
                terms[word] = terms.get(word, 0) + two
    return Operator._from_fractions(terms)


def dual_kappa(a, b, r):
    x = delta_r(a, b, r)
    y = delta_r(b, a, r)
    return (x * y + y * x).scale(2)


def part_operator(part):
    """The constant operator a part (builder, *indices) names."""
    return part[0](*part[1:])


def _summed(ops):
    """The exact sum of the operators, built as one terms dict."""
    terms = {}
    for op in ops:
        for factors, c in op.terms.items():
            terms[factors] = terms.get(factors, 0) + c
    return Operator._from_fractions(terms)


def _terms_sum(terms):
    """The exact sum of coefficient * part operator over the terms."""
    return _summed(part_operator(part).scale(c) for c, part in terms if c)


def _exact(values):
    return tuple(map(Fraction, values))


def nabla_terms(i, z, q, n):
    """Terms of nabla_i = sum_a z_a E_ii^(a) + sum_{j != i} kappa_ij / (q_i - q_j)."""
    return ([(z[a - 1], (op_E, i, i, a)) for a in range(1, n + 1)]
            + [(1 / (q[i - 1] - q[j - 1]), (kappa, min(i, j), max(i, j), n))
               for j in range(1, len(q) + 1) if j != i])


def nabla(i, z, q, n):
    """Dynamical Hamiltonian for gl_r index i on n columns."""
    return _terms_sum(nabla_terms(i, _exact(z), _exact(q), n))


def dual_nabla_terms(a, w, z, r):
    """Terms of the gl_n-side dynamical Hamiltonian for column index a:
    sum_i w_i E_aa in row i + sum_{b != a} dual_kappa_ab / (z_a - z_b)."""
    return ([(w[i - 1], (dual_op_E, a, a, i)) for i in range(1, r + 1)]
            + [(1 / (z[a - 1] - z[b - 1]), (dual_kappa, min(a, b), max(a, b), r))
               for b in range(1, len(z) + 1) if b != a])


def dual_nabla(a, w, z, r):
    """Dynamical Hamiltonian on the gl_n side, for column index a on r rows."""
    return _terms_sum(dual_nabla_terms(a, _exact(w), _exact(z), r))


def omega(a, b, r):
    """Quadratic exchange between columns a and b: sum_ij E_ij^(a) E_ji^(b)."""
    one = Fraction(1)
    return Operator._from_fractions({(("E", i, j, a), ("E", j, i, b)): one
                                     for i in range(1, r + 1) for j in range(1, r + 1)})


def gaudin_terms(a, z, q, r):
    """Terms of H_a = sum_i q_i E_ii^(a) + sum_{b != a} 4 Omega_ab / (z_a - z_b).

    The exchange coefficient 4 matches the normalization of kappa, making
    this family commute with every nabla_i at the same (z, q).
    """
    return ([(q[i - 1], (op_E, i, i, a)) for i in range(1, r + 1)]
            + [(4 / (z[a - 1] - z[b - 1]), (omega, min(a, b), max(a, b), r))
               for b in range(1, len(z) + 1) if b != a])


def gaudin_h(a, z, q, r):
    """Gaudin Hamiltonian for column a."""
    return _terms_sum(gaudin_terms(a, _exact(z), _exact(q), r))


def mirrored_terms(terms, r, n, col_sums):
    """A term list of the mirrored side, on the n x r block of transposed
    matrices, in the parts of the r x n block with column sums c: E'^(i)_aa
    = E_ii^(a); kappa'_ab = 4 Omega_ab + 2 (c_a + c_b), as E'_ab E'_ba =
    Omega_ab + E'_aa and E'_aa = c_a; Omega'_ij = kappa_ij / 4 - (W_i + W_j)
    / 2, W_i = sum_a E_ii^(a). So its dynamical operators are `dual_nabla`."""
    out = []
    for c, part in terms:
        if part[0] is op_E:  # (op_E, a, a, i)
            out.append((c, (op_E, part[3], part[3], part[1])))
        elif part[0] is kappa:  # (kappa, a, b, r)
            a, b = part[1:3]
            out += [(4 * c, (omega, a, b, r)),
                    (2 * (col_sums[a - 1] + col_sums[b - 1]) * c, (identity,))]
        elif part[0] is omega:  # (omega, i, j, n)
            i, j = part[1:3]
            out += ([(c / 4, (kappa, i, j, n))]
                    + [(-c / 2, (op_E, k, k, a)) for k in (i, j) for a in range(1, n + 1)])
        else:
            out.append((c, part))
    return out


def jm(a, r):
    """Jucys-Murphy style limit of the Gaudin Hamiltonian: sum_{b<a} Omega_ba."""
    return _summed(omega(b, a, r) for b in range(1, a))


def nested_casimir(i, n, order=2):
    """Casimir of gl_i inside gl_r, acting diagonally on n columns."""
    if order == 1:
        return _summed(delta_n(a, a, n) for a in range(1, i + 1))
    if order != 2:
        raise ValueError(f"unsupported Casimir order {order}")
    return _summed(delta_n(a, b, n) * delta_n(b, a, n)
                   for a in range(1, i + 1) for b in range(1, i + 1))


def dual_nested_casimir(a, r, order=2):
    """Casimir of gl_a inside gl_n, acting diagonally on r rows."""
    if order == 1:
        return _summed(delta_r(b, b, r) for b in range(1, a + 1))
    if order != 2:
        raise ValueError(f"unsupported Casimir order {order}")
    return _summed(delta_r(b, c, r) * delta_r(c, b, r)
                   for b in range(1, a + 1) for c in range(1, a + 1))


def casimir_eigenvalue(shape, rank, order=2):
    """Eigenvalue of the rank-restricted Casimir on the irreducible with the
    given highest weight: sum_j lam_j (lam_j + rank + 1 - 2j)."""
    shape = shape if isinstance(shape, Partition) else Partition(shape)
    if order == 1:
        return shape.size
    if order != 2:
        raise ValueError(f"unsupported Casimir order {order}")
    return sum(p * (p + rank + 1 - 2 * j) for j, p in enumerate(shape, start=1))


def weight_basis(r, n, col_sums, row_sums=None):
    """Monomial basis of the graded piece with the given column sums,
    optionally restricted to fixed row sums (a gl_r weight block), as a
    `MonomialBlock` with empty generator tables. Row sums of the wrong
    length or total give the empty block.

    The block is enumerated as one int64 array of flattened entries,
    column by column and, within a column, row by row: each stage holds a
    (count, r*n) array of partial fillings, and each filling is repeated
    once for every entry the row sums still open and the rest of its column
    allow. With equal totals every such filling completes to a matrix of
    the block, so no stage holds a filling outside it. The rows are then
    sorted lexicographically in the flattened entries, the basis order,
    and the block keeps the array as its `entry_array`; its labels are
    built from the rows. A sum that is not an integer raises TypeError, and
    r times the largest sum must fit int64, else OverflowError.
    """
    if len(col_sums) != n:
        raise ValueError(f"expected {n} column sums, got {len(col_sums)}")
    col_sums = [operator.index(c) for c in col_sums]
    total = sum(col_sums)
    if row_sums is None:
        open_rows = [total] * r
    elif len(row_sums) == r and sum(row_sums) == total:
        open_rows = [operator.index(x) for x in row_sums]
    else:
        return MonomialBlock([])
    # the rows below a cell hold at most r times the largest sum
    if max(map(abs, col_sums + open_rows + [total])) * max(r, 1) >= 2 ** 63:
        raise OverflowError("weight_basis needs sums that fit int64")
    filled = np.zeros((1, r * n), dtype=np.int64)
    free = np.array(open_rows, dtype=np.int64).reshape(1, r)
    for a, c in enumerate(col_sums):
        left = np.full(len(filled), c, dtype=np.int64)
        for i in range(r):
            # the rows below must take what is left of the column
            low = np.maximum(left - free[:, i + 1:].sum(axis=1), 0)
            ways = np.maximum(np.minimum(left, free[:, i]) - low + 1, 0)
            keep = np.repeat(np.arange(len(ways)), ways)
            x = low[keep] + np.arange(len(keep)) - np.repeat(np.cumsum(ways) - ways, ways)
            filled, free, left = filled[keep], free[keep], left[keep] - x
            filled[:, i * n + a] = x
            free[:, i] -= x
        filled = filled[left == 0]  # with no rows, only an empty column is filled
    if not len(filled):
        return MonomialBlock([])
    if r * n:
        filled = filled[np.lexsort(filled.T[::-1])]
    # every row is a matrix of the block, so the labels need no check
    block = MonomialBlock(NatMatrix._unchecked(tuple(map(tuple, m)), r, n)
                          for m in filled.reshape(len(filled), r, n).tolist())
    block.entry_array = filled
    return block


def sqnorm(matrix):
    """Squared norm of the monomial x^A: product of entry factorials."""
    prod = 1
    for row in matrix.entries:
        for x in row:
            prod *= math.factorial(x)
    return prod


class MonomialBlock(Sequence):
    """A monomial basis with its entry array and its generator tables.

    The block is a read-only sequence of its basis monomials: len, indexing
    and iteration act on the basis, a slice is a list, and the block equals
    any sequence of the same monomials in the same order. Its tables change
    as checks run, so it is not hashable.

    `entry_array` holds the basis as one int64 array: `weight_basis`
    enumerates the block as that array and hands it over, and a block made
    from a list of monomials builds it on first use. `walk`, and through it
    `dense`, reads only that array, as do `sqnorms` and `float_sqnorms`.

    The tables serve the exact checks. Monomials are numbered in basis
    order (`numbers`, built when the first table entry is filled); a
    monomial outside the basis that some word reaches gets the next free
    number. The table of a generator maps a monomial number to (image
    number, count), or to None where the generator kills the monomial. An
    entry is filled through `Operator.apply_monomial` of the generator's
    single-term operator, kept in `generators`, the first time a word
    reaches its monomial, so the tables grow only with the monomials
    actually reached, and they live as long as the block: every check given
    this block (as `weight_basis` returns it) shares them, while a check
    given a list of monomials builds a fresh block for that call alone.
    """

    def __init__(self, basis):
        self.basis = list(basis)
        self.dim = len(self.basis)
        self.monomials = list(self.basis)
        # set here, not by a cached_property: one that writes the instance
        # dict slows every attribute read of the block in the exact checks
        self._numbers = None
        self.tables = {}
        # the single-generator operator that fills each table
        self.generators = {}

    def __len__(self):
        return self.dim

    def __getitem__(self, i):
        return self.basis[i]

    def __iter__(self):
        return iter(self.basis)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return self.basis == list(other)

    __hash__ = None

    def _fill(self, gen, i):
        image = self.generators[gen].apply_monomial(self.monomials[i])
        hit = None
        if image:
            (m, count), = image.items()  # one box move has one image
            j = self.numbers.get(m)
            if j is None:
                j = self.numbers[m] = len(self.monomials)
                self.monomials.append(m)
            hit = (j, int(count))
        self.tables[gen][i] = hit
        return hit

    def columns(self, op):
        """(d, columns): column src maps each basis position to d times the
        coefficient of op(basis[src]) there, d being the common
        denominator of op's coefficients. Raises if an image leaves the
        span of the basis."""
        action = _Action(self, op)
        cols = [action.column(src) for src in range(self.dim)]
        for src, col in enumerate(cols):
            for dst in col:
                if dst >= self.dim:
                    raise ValueError(
                        "operator image leaves the basis span at "
                        f"{self.basis[src]!r} -> {self.monomials[dst]!r}"
                    )
        return action.den, cols

    @property
    def numbers(self):
        """The number of each monomial reached so far: the basis in its
        order, then the images `_fill` adds; built on first use."""
        if self._numbers is None:
            self._numbers = {m: i for i, m in enumerate(self.basis)}
        return self._numbers

    @functools.cached_property
    def sqnorms(self):
        """The squared norm (`sqnorm`) of each basis monomial, an exact
        Python int, computed on first use from the rows of `entry_array`."""
        return [math.prod(map(math.factorial, row)) for row in self.entry_array.tolist()]

    @functools.cached_property
    def float_sqnorms(self):
        """`sqnorms` as a float array, computed on first use."""
        return np.array([float(x) for x in self.sqnorms])

    @functools.cached_property
    def entry_array(self):
        """The basis as an int64 array (dim, r*n): row k holds the entries
        of basis[k], cell (i, a) at column i * n + a (0-based)."""
        if not self.dim:
            return np.zeros((0, 0), dtype=np.int64)
        return np.array([[x for row in m.entries for x in row] for m in self.basis],
                        dtype=np.int64).reshape(self.dim, -1)

    @functools.cached_property
    def _radix(self):
        """The exact key of a monomial whose every entry is below the
        basis's largest in that cell: its entries read as the digits of a
        mixed-radix number, cell 0 most significant. Returns (bases,
        weights, basis keys, basis positions in key order, sorted keys);
        the keys are int64 while the largest fits, Python ints beyond."""
        bases = self.entry_array.max(axis=0, initial=0) + 1
        dtype = np.int64 if math.prod(bases.tolist()) < 2 ** 63 else object
        weights = np.ones(len(bases), dtype=dtype)
        for c in range(len(bases) - 2, -1, -1):
            weights[c] = weights[c + 1] * int(bases[c + 1])
        keys = self.entry_array.astype(dtype) @ weights
        order = np.argsort(keys, kind="stable")
        return bases, weights, keys, order, keys[order]

    def walk(self, op):
        """(d, dst, src, c): the nonzero entries of d * op's matrix on the
        basis as arrays, sorted by (src, dst), d being the common
        denominator of op's coefficients; the same integers as `columns`.

        Words of equal length are walked over every basis monomial at
        once: a step's count is the entry of its source cell plus the
        word's own earlier moves there, a word's coefficient is multiplied
        by its counts, and a monomial the word does not kill moves by the
        word's total shift, so no intermediate image is built or looked
        up. Each image is found by its exact radix key (`_radix`). The
        integers are int64 while they provably stay below 2^53 (so that
        c / d rounds as Python's int division does), Python ints beyond.
        Raises if an image outside the basis span keeps a nonzero
        coefficient."""
        den = math.lcm(*(c.denominator for c in op.terms.values()))
        empty = np.zeros(0, dtype=np.int64)
        if not self.dim or not op.terms:
            return den, empty, empty, empty
        r, n = self.basis[0].r, self.basis[0].n
        entries = self.entry_array
        boxes = int(entries.sum(axis=1).max())
        groups = {}
        for order, (factors, c) in enumerate(op.terms.items()):
            groups.setdefault(len(factors), []).append(
                (order, tuple(reversed(factors)), c.numerator * (den // c.denominator)))
        # |d * coefficient| times a count of at most `boxes` per step bounds
        # every product and every sum of products
        bound = sum(abs(c) * boxes ** len(word) for terms in groups.values()
                    for _, word, c in terms)
        dtype = np.int64 if max(bound, den) < 2 ** 53 else object
        bases, weights, basis_keys, positions, keys = self._radix
        inside, outside = [], []
        for length, terms in groups.items():
            sources, offsets, shifts, raised, rises = _walk_arrays(
                [word for _, word, _ in terms], r, n)
            coeffs = np.array([c for _, _, c in terms], dtype=dtype)
            shift_keys = shifts.astype(keys.dtype) @ weights
            chunk = max(1, WALK_CHUNK // (self.dim * max(length, 1)))
            for lo in range(0, len(terms), chunk):
                part = slice(lo, lo + chunk)
                counts = entries[:, sources[part]] + offsets[part]
                products = np.prod(counts, axis=2, dtype=dtype)
                src, w = np.nonzero(products)
                vals = products[src, w] * coeffs[part][w]
                w += lo
                # an image can leave the basis's radix only where the word raises a cell
                boxed = np.all(entries[src[:, None], raised[w]] + rises[w] < bases[raised[w]],
                               axis=1)
                image = basis_keys[src] + shift_keys[w]
                at = np.minimum(np.searchsorted(keys, image), self.dim - 1)
                found = boxed & (keys[at] == image)
                inside.append((positions[at[found]], src[found], vals[found]))
                lost = ~found
                outside.append((src[lost], w[lost], vals[lost], terms, shifts))
        self._check_span(outside, r, n)
        dst, src, vals = (np.concatenate(x) for x in zip(*inside))
        if not len(vals):
            return den, empty, empty, empty
        # duplicate (src, dst) pairs are summed after one sort
        pairs = src * self.dim + dst
        order = np.argsort(pairs, kind="stable")
        pairs, vals = pairs[order], vals[order]
        starts = np.flatnonzero(np.r_[True, pairs[1:] != pairs[:-1]])
        pairs, vals = pairs[starts], np.add.reduceat(vals, starts)
        keep = vals != 0
        pairs, vals = pairs[keep], vals[keep]
        return den, pairs % self.dim, pairs // self.dim, vals

    def _check_span(self, outside, r, n):
        """Raise for the first image outside the basis span whose summed
        coefficient is nonzero, in the order `columns` reports it: the
        lowest source, then the image its first word reaches first."""
        images = {}
        for src, w, vals, terms, shifts in outside:
            for s, k, v in zip(src.tolist(), w.tolist(), vals.tolist()):
                row = tuple((self.entry_array[s] + shifts[k]).tolist())
                key = (s, row)
                first, total = images.get(key, (terms[k][0], 0))
                images[key] = (min(first, terms[k][0]), total + v)
        live = [(s, first, row) for (s, row), (first, total) in images.items() if total]
        if live:
            s, _, row = min(live)
            image = NatMatrix._unchecked(tuple(row[i * n:(i + 1) * n] for i in range(r)), r, n)
            raise ValueError(f"operator image leaves the basis span at {self.basis[s]!r} "
                             f"-> {image!r}")


class _Action:
    """d * op on the monomials of a block, for the common denominator d of
    op's coefficients: integer columns, followed word by word through the
    block's generator tables and kept once computed."""

    def __init__(self, block, op):
        self.block = block
        self.den = math.lcm(*(c.denominator for c in op.terms.values()))
        # (generators in order of application, d * coefficient)
        self.words = [(tuple(reversed(factors)), c.numerator * (self.den // c.denominator))
                      for factors, c in op.terms.items()]
        for word, _ in self.words:
            for gen in word:
                if gen not in block.tables:
                    if block.dim:  # raises IndexError for a generator out of range
                        _cells(gen, block.basis[0].r, block.basis[0].n)
                    block.tables[gen] = {}
                    block.generators[gen] = Operator({(gen,): 1})
        self._columns = {}

    def column(self, i):
        """d * op applied to monomial number i, as {number: int}."""
        col = self._columns.get(i)
        if col is not None:
            return col
        block, tables = self.block, self.block.tables
        out = {}
        for word, coeff in self.words:
            j = i
            for gen in word:
                table = tables[gen]
                hit = table[j] if j in table else block._fill(gen, j)
                if hit is None:
                    break
                j, count = hit
                coeff *= count
            else:
                out[j] = out.get(j, 0) + coeff
        col = self._columns[i] = {j: c for j, c in out.items() if c}
        return col

    def __call__(self, vec):
        """d * op applied to the vector {monomial number: coefficient}."""
        out = {}
        for i, c in vec.items():
            for j, v in self.column(i).items():
                out[j] = out.get(j, 0) + c * v
        return {j: v for j, v in out.items() if v}


def _as_block(basis):
    return basis if isinstance(basis, MonomialBlock) else MonomialBlock(basis)


# entries of the (monomials, words, steps) count array in one chunk of a walk
WALK_CHUNK = 1 << 20


def _cells(gen, r, n):
    """(source cell, target cell) of a box move, as flat indices i * n + a
    into a monomial's entries."""
    kind, i, j, a = gen
    rows, cols = (r, n) if kind == "E" else (n, r)
    if not (1 <= i <= rows and 1 <= j <= rows and 1 <= a <= cols):
        raise IndexError(f"generator {gen!r} is out of range on {r} x {n} monomials")
    if kind == "E":  # row j -> row i inside column a
        return (j - 1) * n + a - 1, (i - 1) * n + a - 1
    # kind == "D": column j -> column i inside row a
    return (a - 1) * n + j - 1, (a - 1) * n + i - 1


def _walk_arrays(words, r, n):
    """Arrays of equal-length words, each given in order of application.

    Returns the source cell of each step (W, L); the word's own earlier
    moves into that cell minus those out of it (W, L), so a step's count
    on a monomial is the monomial's entry there plus this offset; the
    word's total shift of the entries (W, r*n); and the cells the shift
    raises with their rise (W, L), padded with cell 0 and rise 0."""
    count, length = len(words), len(words[0])
    cells = {}
    sources, offsets, raised, rises = [], [], [], []
    shift_rows, shift_cells, shift_values = [], [], []
    for w, word in enumerate(words):
        shift = {}
        for gen in word:
            move = cells.get(gen)
            if move is None:
                move = cells[gen] = _cells(gen, r, n)
            src, dst = move
            sources.append(src)
            offsets.append(shift.get(src, 0))
            if src != dst:
                shift[src] = shift.get(src, 0) - 1
                shift[dst] = shift.get(dst, 0) + 1
        up = sorted(c for c, d in shift.items() if d > 0)
        raised.extend(up + [0] * (length - len(up)))
        rises.extend([shift[c] for c in up] + [0] * (length - len(up)))
        shift_rows.extend([w] * len(shift))
        shift_cells.extend(shift)
        shift_values.extend(shift.values())
    shifts = np.zeros((count, r * n), dtype=np.int64)
    shifts[shift_rows, shift_cells] = shift_values

    def per_step(values):
        return np.array(values, dtype=np.int64).reshape(count, length)

    return per_step(sources), per_step(offsets), shifts, per_step(raised), per_step(rises)


def exact_matrix(op, basis):
    """Columns of the operator in the monomial basis, as nested dicts of
    Fractions: result[src][dst]. Raises if the image leaves the span.
    The basis may be a sequence of monomials or a MonomialBlock."""
    den, cols = _as_block(basis).columns(op)
    return {src: {dst: Fraction(c, den) for dst, c in col.items()}
            for src, col in enumerate(cols)}


def dense(op, basis, orthonormal=True):
    """Float matrix of the operator; the orthonormal flag rescales to the
    unit-norm monomial basis, making self-adjoint operators symmetric.
    The basis may be a sequence of monomials or a MonomialBlock.

    The entries come from `MonomialBlock.walk`, so no generator table is
    filled: entry (dst, src) is c / d, c and d the integers of the walk,
    rounded once, times sqrt(sqnorm(dst) / sqnorm(src)) in floats when
    orthonormal."""
    block = _as_block(basis)
    den, dst, src, coeffs = block.walk(op)
    mat = np.zeros((block.dim, block.dim))
    # int64 / int below 2^53, and Python int / int, round as Fraction -> float does
    vals = np.asarray(coeffs / den, dtype=float)
    if orthonormal:
        norms = block.float_sqnorms
        vals *= np.sqrt(norms[dst] / norms[src])
    mat[dst, src] = vals
    return mat


def commute_on(op1, op2, basis):
    """Exact check that op1 op2 x = op2 op1 x for every basis monomial x;
    intermediate images may leave the span of the basis."""
    block = _as_block(basis)
    a, b = _Action(block, op1), _Action(block, op2)
    return all(a(b.column(i)) == b(a.column(i)) for i in range(block.dim))


def is_adjoint_pair(op1, op2, basis):
    """Exact check that op2 is the adjoint of op1 in the monomial inner
    product with <x^A, x^A> = sqnorm(A)."""
    block = _as_block(basis)
    den1, cols1 = block.columns(op1)
    den2, cols2 = (den1, cols1) if op2 is op1 else block.columns(op2)
    norms = block.sqnorms

    # <op1 x_src, x_dst> = <x_src, op2 x_dst>, both sides times den1 * den2
    def holds(src, dst):
        return (cols1[src].get(dst, 0) * norms[dst] * den2
                == cols2[dst].get(src, 0) * norms[src] * den1)

    return (all(holds(src, dst) for src, col in enumerate(cols1) for dst in col)
            and all(holds(src, dst) for dst, col in enumerate(cols2) for src in col))


def joint_eigenprojectors(ops, basis):
    """Exact projectors onto the joint eigenspaces of a commuting family
    with integer spectra, as a set of matrices (nested tuples).

    Candidate eigenvalues of each operator A come from a float
    diagonalization; the annihilating product prod_e (A - e) is then
    checked exactly on every basis vector, so non-integer or
    non-semisimple spectra are rejected. Projector columns are the images
    of the basis vectors under the products prod_{f != e} (A - f)/(e - f).
    """
    block = _as_block(basis)
    m = block.dim
    spectra = []
    for op in ops:
        action = _Action(block, op)
        approx = np.linalg.eigvals(dense(op, block, orthonormal=False))
        eigs = sorted({int(round(float(x.real))) for x in approx})
        for src in range(m):
            vec = {src: Fraction(1)}
            for e in eigs:
                vec = _minus_scalar(action, vec, e)
            if vec:
                raise ValueError("operator is not semisimple with integer spectrum")
        spectra.append((action, eigs))
    # joint key -> {src: column src of that joint projector}
    projectors = {}
    for src in range(m):
        parts = {(): {src: Fraction(1)}}
        for action, eigs in spectra:
            refined = {}
            for key, vec in parts.items():
                for e in eigs:
                    image = vec
                    for f in eigs:
                        if f != e:
                            image = {j: v / (e - f)
                                     for j, v in _minus_scalar(action, image, f).items()}
                    if image:
                        refined[key + (e,)] = image
            parts = refined
        for key, vec in parts.items():
            projectors.setdefault(key, {})[src] = vec
    return {
        tuple(tuple(cols.get(src, {}).get(dst, Fraction(0)) for src in range(m))
              for dst in range(m))
        for cols in projectors.values()
    }


def _minus_scalar(action, vec, f):
    """(A - f) vec for the operator A that action scales by action.den."""
    out = {j: Fraction(v, action.den) for j, v in action(vec).items()}
    for j, v in vec.items():
        out[j] = out.get(j, 0) - f * v
    return {j: v for j, v in out.items() if v}
