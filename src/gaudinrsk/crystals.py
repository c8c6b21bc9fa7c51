"""gl_r crystal operators on tableaux and non-negative integer matrices.

Matrices with fixed column sums form a tensor product of monomial crystals,
one factor per column (columns ordered left to right). Tableaux carry the
usual crystal structure via their column reading word, one factor per
cell. e_i and f_i are one step (`_step`): it reads the factors once, and
the signature rule works factor by factor, not letter by letter.
`verify_isomorphism` maps each element and applies each codomain operator
to it at most once per call. Every crystal image is still built by the
validating constructors. The exhaustive RSK-equivariance suite in the
tests pins the sign conventions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .combinatorics import (
    NatMatrix,
    Partition,
    SemistandardTableau,
    _bump,
)


def weight(x):
    """gl_r weight: entry counts for a tableau, row sums for a matrix."""
    if isinstance(x, SemistandardTableau):
        return x.content()
    if isinstance(x, NatMatrix):
        return x.row_sums()
    raise TypeError(f"not a crystal element: {x!r}")


def _signature_select(eps_phi):
    """Tensor rule for a sequence of factors with given (eps_i, phi_i).

    Each factor contributes '+' * phi then '-' * eps; a '+' cancels the
    nearest unmatched '-' to its left. e_i acts on the factor owning the
    leftmost surviving '-', f_i on the factor owning the rightmost
    surviving '+'. The unmatched '-' are kept as a stack of (factor, count)
    pairs, so the work is linear in the number of factors, not of letters.
    """
    stack = []  # (factor index, its unmatched '-' count > 0)
    f_target = None
    for idx, (eps, phi) in enumerate(eps_phi):
        while phi and stack:
            factor, count = stack[-1]
            if phi < count:
                stack[-1] = (factor, count - phi)
                phi = 0
            else:
                stack.pop()
                phi -= count
        if phi:
            # a '+' that finds no '-' to cancel survives to the end
            f_target = idx
        if eps:
            stack.append((idx, eps))
    e_target = stack[0][0] if stack else None
    return e_target, f_target


def _step(i, x, up):
    """e_i (up) or f_i on x, or None where it is undefined.

    The tensor factors are read once: a matrix's columns, factor a with
    eps_i = A[i+1,a] and phi_i = A[i,a] (1-based), or a tableau's cells in
    column reading order (columns left to right, each bottom to top), a
    cell with letter i + 1 or i being a '-' or a '+'; cells with any other
    letter cancel nothing and are skipped. In the factor `_signature_select`
    picks, one box moves from row i + 1 to row i (up) or back: one unit of
    a column's entry A[i+1,a] or A[i,a], or a cell's letter.
    """
    matrix = isinstance(x, NatMatrix)
    bound = x.r if matrix else x.alphabet_bound
    if not 1 <= i <= bound - 1:
        raise ValueError(f"crystal index {i} out of range for rank {bound}")
    rows = [list(row) for row in (x.entries if matrix else x.rows)]
    if matrix:
        eps_phi = zip(rows[i], rows[i - 1])
    else:
        cells = [(a, b) for b in range(len(rows[0]) if rows else 0)
                 for a in reversed(range(len(rows)))
                 if len(rows[a]) > b and rows[a][b] in (i, i + 1)]
        eps_phi = [(rows[a][b] - i, i + 1 - rows[a][b]) for a, b in cells]
    target = _signature_select(eps_phi)[0 if up else 1]
    if target is None:
        return None
    move = -1 if up else 1
    if matrix:
        rows[i - 1][target] -= move
        rows[i][target] += move
        return NatMatrix(rows, x.r, x.n)
    a, b = cells[target]
    rows[a][b] += move
    return SemistandardTableau(rows, bound)


def crystal_e(i, x):
    """Raising operator e_i; returns None when undefined."""
    return _step(i, x, up=True)


def crystal_f(i, x):
    """Lowering operator f_i; returns None when undefined."""
    return _step(i, x, up=False)


def crystal_graph(elements, rank):
    """Edge list {source, index, target} of f_i arrows among the elements."""
    edges = []
    for x in elements:
        for i in range(1, rank):
            y = crystal_f(i, x)
            if y is not None:
                edges.append((x, i, y))
    return edges


@dataclass
class CrystalMap:
    """A candidate crystal morphism of gl_r crystals of the given rank."""

    name: str
    apply: callable
    rank: int


@dataclass
class IsomorphismReport:
    checked: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def __str__(self):
        if self.ok:
            return f"isomorphism check passed on {self.checked} elements"
        return f"{len(self.violations)} violations (first: {self.violations[0]})"


def verify_isomorphism(cmap, samples, max_violations=10):
    """Check weight preservation and e_i/f_i equivariance on the samples.

    The map and the codomain operators are functions of hashable elements,
    and many samples share an image or reach the same element through
    e_i/f_i. So within one call each of them runs once per distinct
    argument; the memo goes when the call returns.
    """
    apply = functools.cache(cmap.apply)
    ops = (
        (crystal_e, functools.cache(crystal_e), "e"),
        (crystal_f, functools.cache(crystal_f), "f"),
    )
    report = IsomorphismReport()
    for x in samples:
        report.checked += 1
        y = apply(x)
        if tuple(weight(x)) != tuple(weight(y)):
            report.violations.append(("weight", x, weight(x), weight(y)))
        for i in range(1, cmap.rank):
            for dom_op, cod_op, tag in ops:
                xi = dom_op(i, x)
                yi = cod_op(i, y)
                if (xi is None) != (yi is None):
                    report.violations.append((tag, i, x, "defined/undefined mismatch"))
                elif xi is not None and apply(xi) != yi:
                    report.violations.append((tag, i, x, apply(xi), yi))
                if len(report.violations) >= max_violations:
                    return report
    return report


def pieri_shapes(shape, boxes, max_parts):
    """All mu >= shape obtained by adding the given number of boxes, no two
    in the same column, with at most max_parts rows."""
    if boxes < 0:
        raise ValueError("cannot add a negative number of boxes")
    results = []
    rows = min(max_parts, len(shape) + 1)

    def rec(i, remaining, acc):
        if i > rows:
            if remaining == 0:
                results.append(Partition(acc))
            return
        lo = shape.part(i)
        hi = shape.part(i - 1) if i > 1 else lo + remaining
        if i > 1 and acc:
            hi = min(hi, acc[-1])
        hi = min(hi, lo + remaining)
        for parts in range(hi, lo - 1, -1):
            rec(i + 1, remaining - (parts - lo), acc + [parts])

    rec(1, boxes, [])
    return set(results)


def g_insert(tableau, column):
    """Insert the letter i into the tableau column[i] times, i ascending.

    This is the unique crystal isomorphism sending a (tableau, monomial
    column) pair into the disjoint union of Pieri shapes.
    """
    rows = [list(row) for row in tableau.rows]
    bound = tableau.alphabet_bound
    for i, count in enumerate(column, start=1):
        for _ in range(count):
            _bump(rows, i)
        if count:
            bound = max(bound, i)
    return SemistandardTableau(rows, bound)


def u_extend(tableau, mu, letter):
    """Fill mu minus the tableau's shape with the given letter (>= bound)."""
    inner = tableau.shape
    mu = mu if isinstance(mu, Partition) else Partition(mu)
    if not mu.is_horizontal_strip_over(inner):
        raise ValueError(f"{mu} is not a horizontal strip over {inner}")
    rows = [list(row) for row in tableau.rows]
    for i in range(1, len(mu) + 1):
        while len(rows) < i:
            rows.append([])
        rows[i - 1].extend([letter] * (mu.part(i) - inner.part(i)))
    return SemistandardTableau(rows, max(letter, tableau.alphabet_bound))
