"""Commuting operator families on graded pieces of polynomials on r-by-n
matrices.

Monomials x^A are indexed by non-negative integer matrices A. Two commuting
copies of a general linear Lie algebra act: gl_r through the generators
E_ij^(a) moving a box between rows i, j inside column a, and gl_n through
the generators acting inside a fixed row. Operators are stored exactly as
rational combinations of products of these box moves, so commutators and
adjointness can be checked without floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .combinatorics import NatMatrix, Partition


def _shift(matrix, moves):
    """Add the (row, col, delta) moves; return None if an entry goes negative."""
    rows = [list(row) for row in matrix.entries]
    for i, a, d in moves:
        rows[i][a] += d
        if rows[i][a] < 0:
            return None
    return NatMatrix(rows, matrix.r, matrix.n)


def _apply_generator(gen, matrix):
    """One box move on a monomial: returns (coefficient, new matrix) or None."""
    kind, i, j, a = gen
    if kind == "E":  # gl_r: row j -> row i inside column a
        count = matrix[j - 1, a - 1]
        if i == j:
            return count, matrix
        if count == 0:
            return None
        moved = _shift(matrix, [(i - 1, a - 1, +1), (j - 1, a - 1, -1)])
        return count, moved
    # kind == "D", gl_n: column j -> column i inside row a
    count = matrix[a - 1, j - 1]
    if i == j:
        return count, matrix
    if count == 0:
        return None
    moved = _shift(matrix, [(a - 1, i - 1, +1), (a - 1, j - 1, -1)])
    return count, moved


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

    def __add__(self, other):
        terms = dict(self.terms)
        for factors, coeff in other.terms.items():
            new = terms.get(factors, 0) + coeff
            if new:
                terms[factors] = new
            else:
                terms.pop(factors, None)
        return Operator(terms)

    def __neg__(self):
        return Operator({f: -c for f, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Operator):
            terms = {}
            for f1, c1 in self.terms.items():
                for f2, c2 in other.terms.items():
                    key = f1 + f2
                    terms[key] = terms.get(key, 0) + c1 * c2
            return Operator(terms)
        return self.scale(other)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def __truediv__(self, scalar):
        return self.scale(Fraction(1, 1) / Fraction(scalar))

    def scale(self, scalar):
        scalar = Fraction(scalar)
        return Operator({f: scalar * c for f, c in self.terms.items()})

    def commutator(self, other):
        return self * other - other * self

    def apply_monomial(self, matrix):
        """Image of the monomial x^matrix as {matrix: Fraction}."""
        out = {}
        for factors, coeff in self.terms.items():
            current = {matrix: coeff}
            for gen in reversed(factors):
                step = {}
                for m, c in current.items():
                    hit = _apply_generator(gen, m)
                    if hit is None:
                        continue
                    count, moved = hit
                    step[moved] = step.get(moved, 0) + c * count
                current = step
                if not current:
                    break
            for m, c in current.items():
                new = out.get(m, 0) + c
                if new:
                    out[m] = new
                else:
                    out.pop(m, None)
        return out

    def is_zero_on(self, basis):
        return all(not self.apply_monomial(m) for m in basis)


def op_E(i, j, a):
    """gl_r generator E_ij acting in tensor factor (column) a; 1-based."""
    return Operator({(("E", i, j, a),): 1})


def dual_op_E(a, b, i):
    """gl_n generator E_ab acting in row i; 1-based."""
    return Operator({(("D", a, b, i),): 1})


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
    """kappa_ij = 2(E_ij E_ji + E_ji E_ij) under the diagonal gl_r action."""
    x = delta_n(i, j, n)
    y = delta_n(j, i, n)
    return (x * y + y * x).scale(2)


def dual_kappa(a, b, r):
    x = delta_r(a, b, r)
    y = delta_r(b, a, r)
    return (x * y + y * x).scale(2)


def nabla(i, z, q, n):
    """Dynamical Hamiltonian for gl_r index i on n columns.

    nabla_i = sum_a z_a E_ii^(a) + sum_{j != i} kappa_ij / (q_i - q_j).
    """
    out = Operator({(("E", i, i, a),): Fraction(z[a - 1]) for a in range(1, n + 1)})
    for j in range(1, len(q) + 1):
        if j == i:
            continue
        out = out + kappa(i, j, n) / (Fraction(q[i - 1]) - Fraction(q[j - 1]))
    return out


def dual_nabla(a, w, z, r):
    """Dynamical Hamiltonian on the gl_n side, for column index a on r rows."""
    out = Operator({(("D", a, a, i),): Fraction(w[i - 1]) for i in range(1, r + 1)})
    for b in range(1, len(z) + 1):
        if b == a:
            continue
        out = out + dual_kappa(a, b, r) / (Fraction(z[a - 1]) - Fraction(z[b - 1]))
    return out


def omega(a, b, r):
    """Quadratic exchange between columns a and b: sum_ij E_ij^(a) E_ji^(b)."""
    terms = {}
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            terms[(("E", i, j, a), ("E", j, i, b))] = 1
    return Operator(terms)


def gaudin_h(a, z, q, r):
    """Gaudin Hamiltonian for column a: sum_i q_i E_ii^(a) + exchange terms.

    The exchange coefficient 4 matches the normalization of kappa, making
    this family commute with every nabla_i at the same (z, q).
    """
    out = Operator({(("E", i, i, a),): Fraction(q[i - 1]) for i in range(1, r + 1)})
    for b in range(1, len(z) + 1):
        if b == a:
            continue
        out = out + omega(a, b, r).scale(4) / (Fraction(z[a - 1]) - Fraction(z[b - 1]))
    return out


def jm(a, r):
    """Jucys-Murphy style limit of the Gaudin Hamiltonian: sum_{b<a} Omega_ba."""
    out = Operator()
    for b in range(1, a):
        out = out + omega(b, a, r)
    return out


def nested_casimir(i, n, order=2):
    """Casimir of gl_i inside gl_r, acting diagonally on n columns."""
    if order == 1:
        out = Operator()
        for a in range(1, i + 1):
            out = out + delta_n(a, a, n)
        return out
    if order != 2:
        raise ValueError(f"unsupported Casimir order {order}")
    out = Operator()
    for a in range(1, i + 1):
        for b in range(1, i + 1):
            out = out + delta_n(a, b, n) * delta_n(b, a, n)
    return out


def dual_nested_casimir(a, r, order=2):
    """Casimir of gl_a inside gl_n, acting diagonally on r rows."""
    if order == 1:
        out = Operator()
        for b in range(1, a + 1):
            out = out + delta_r(b, b, r)
        return out
    if order != 2:
        raise ValueError(f"unsupported Casimir order {order}")
    out = Operator()
    for b in range(1, a + 1):
        for c in range(1, a + 1):
            out = out + delta_r(b, c, r) * delta_r(c, b, r)
    return out


def casimir_eigenvalue(shape, rank, order=2):
    """Eigenvalue of the rank-restricted Casimir on the irreducible with the
    given highest weight: sum_j lam_j (lam_j + rank + 1 - 2j)."""
    shape = shape if isinstance(shape, Partition) else Partition(shape)
    if order == 1:
        return shape.size
    return sum(p * (p + rank + 1 - 2 * j) for j, p in enumerate(shape, start=1))


def g_h(h, q):
    """Single-column operator sum_{i<j} (h_i - h_j)/(q_i - q_j) E_ij E_ji."""
    r = len(h)
    out = Operator()
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            c = (Fraction(h[i - 1]) - Fraction(h[j - 1])) / (
                Fraction(q[i - 1]) - Fraction(q[j - 1])
            )
            out = out + op_E(i, j, 1) * op_E(j, i, 1) * c
    return out


def compositions(total, parts):
    """All tuples of the given length of non-negative integers with the sum."""
    if parts == 0:
        return [()] if total == 0 else []
    out = []
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def weight_basis(r, n, col_sums, row_sums=None):
    """Monomial basis of the graded piece with the given column sums,
    optionally restricted to fixed row sums (a gl_r weight block).

    Deterministic order: lexicographic in the flattened entries.
    """
    if len(col_sums) != n:
        raise ValueError(f"expected {n} column sums, got {len(col_sums)}")
    per_column = [compositions(k, r) for k in col_sums]
    out = []

    def rec(a, cols):
        if a == n:
            m = NatMatrix([[cols[c][i] for c in range(n)] for i in range(r)], r, n)
            if row_sums is None or m.row_sums() == tuple(row_sums):
                out.append(m)
            return
        for col in per_column[a]:
            rec(a + 1, cols + [col])

    rec(0, [])
    out.sort(key=lambda m: m.entries)
    return out


def sqnorm(matrix):
    """Squared norm of the monomial x^A: product of entry factorials."""
    prod = 1
    for row in matrix.entries:
        for x in row:
            prod *= math.factorial(x)
    return prod


def exact_matrix(op, basis):
    """Columns of the operator in the monomial basis, as nested dicts of
    Fractions: result[src][dst]. Raises if the image leaves the span."""
    index = {m: i for i, m in enumerate(basis)}
    out = {}
    for src, m in enumerate(basis):
        col = {}
        for image, coeff in op.apply_monomial(m).items():
            if image not in index:
                raise ValueError(
                    f"operator image leaves the basis span at {m!r} -> {image!r}"
                )
            col[index[image]] = coeff
        out[src] = col
    return out


def dense(op, basis, orthonormal=True):
    """Float matrix of the operator; the orthonormal flag rescales to the
    unit-norm monomial basis, making self-adjoint operators symmetric."""
    cols = exact_matrix(op, basis)
    norms = np.array([float(sqnorm(m)) for m in basis]) if orthonormal else None
    mat = np.zeros((len(basis), len(basis)))
    for src, col in cols.items():
        for dst, coeff in col.items():
            val = float(coeff)
            if orthonormal:
                val *= math.sqrt(norms[dst] / norms[src])
            mat[dst, src] = val
    return mat


def is_self_adjoint(op, basis):
    """Exact self-adjointness in the inner product with <x^A, x^A> = sqnorm."""
    cols = exact_matrix(op, basis)
    norms = [sqnorm(m) for m in basis]
    for src, col in cols.items():
        for dst, coeff in col.items():
            if coeff * norms[dst] != cols[dst].get(src, 0) * norms[src]:
                return False
    return True


def commute_on(op1, op2, basis):
    """Exact check that the commutator vanishes on the basis."""
    return op1.commutator(op2).is_zero_on(basis)


def is_adjoint_pair(op1, op2, basis):
    """Exact check that op2 is the adjoint of op1 in the monomial inner
    product with <x^A, x^A> = sqnorm(A)."""
    cols1 = exact_matrix(op1, basis)
    cols2 = exact_matrix(op2, basis)
    norms = [sqnorm(m) for m in basis]
    for src in range(len(basis)):
        for dst in range(len(basis)):
            lhs = cols1[src].get(dst, 0) * norms[dst]
            rhs = cols2[dst].get(src, 0) * norms[src]
            if lhs != rhs:
                return False
    return True


def _exact_dense(op, basis):
    m = len(basis)
    cols = exact_matrix(op, basis)
    mat = [[Fraction(0)] * m for _ in range(m)]
    for src, col in cols.items():
        for dst, coeff in col.items():
            mat[dst][src] = Fraction(coeff)
    return mat


def _mat_mul(a, b):
    m = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(m)) for j in range(m)]
        for i in range(m)
    ]


def _mat_add_scalar(a, scalar):
    m = len(a)
    return [
        [a[i][j] + (scalar if i == j else 0) for j in range(m)]
        for i in range(m)
    ]


def _mat_scale(a, scalar):
    return [[x * scalar for x in row] for row in a]


def exact_spectral_projectors(op, basis):
    """Exact projectors onto the integer eigenspaces of a semisimple
    operator. Candidate eigenvalues come from a float diagonalization and
    the annihilating product is then verified exactly; non-integer or
    non-semisimple spectra are rejected."""
    mat = _exact_dense(op, basis)
    m = len(basis)
    approx = np.linalg.eigvals(dense(op, basis, orthonormal=False))
    eigs = sorted({int(round(float(x.real))) for x in approx})
    check = [[Fraction(1 if i == j else 0) for j in range(m)] for i in range(m)]
    for e in eigs:
        check = _mat_mul(check, _mat_add_scalar(mat, Fraction(-e)))
    if any(x for row in check for x in row):
        raise ValueError("operator is not semisimple with integer spectrum")
    projectors = {}
    for e in eigs:
        proj = [[Fraction(1 if i == j else 0) for j in range(m)] for i in range(m)]
        for f in eigs:
            if f != e:
                proj = _mat_mul(proj, _mat_add_scalar(mat, Fraction(-f)))
                proj = _mat_scale(proj, Fraction(1, e - f))
        projectors[e] = proj
    return projectors


def joint_eigenprojectors(ops, basis):
    """Exact projectors onto the joint eigenspaces of a commuting family
    with integer spectra, as a set of matrices (nested tuples)."""
    m = len(basis)
    current = {(): [[Fraction(1 if i == j else 0) for j in range(m)] for i in range(m)]}
    for op in ops:
        projectors = exact_spectral_projectors(op, basis)
        refined = {}
        for key, block in current.items():
            for e, proj in projectors.items():
                prod = _mat_mul(block, proj)
                if any(x for row in prod for x in row):
                    refined[key + (e,)] = prod
        current = refined
    return {tuple(tuple(row) for row in block) for block in current.values()}
