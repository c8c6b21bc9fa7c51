"""Partitions, semistandard tableaux and the RSK correspondence.

Everything here is exact integer combinatorics: no floats, no randomness.
Objects are immutable value types so they can be hashed, compared and used
as dictionary keys by the flow and cell modules. Their constructors check
every row in one pass of builtins (`map`, `all`, `min`, `max`). `rsk`
inserts each matrix row as one weakly increasing run into plain row lists,
row by row, and builds (and so validates) P and Q once, after the last run;
`rsk_inverse` unwinds each letter's strip of Q as one run, row by row,
and counts the word that leaves the first row straight into the matrix.
`components` is the one union-find: the classes that links generate, as
the flow's coalescence classes and the join of two cell partitions use.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator


class Partition:
    """A weakly decreasing tuple of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(map(int, filter(functools.partial(operator.ne, 0), parts)))
        if not all(map(operator.ge, parts, parts[1:])):
            raise ValueError(f"parts {parts} are not weakly decreasing")
        if parts and parts[-1] < 0:
            raise ValueError(f"parts {parts} contain a negative entry")
        self.parts = parts

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(("Partition", self.parts))

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    @property
    def size(self):
        return sum(self.parts)

    def part(self, i):
        """The i-th part (1-based), zero beyond the length."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def contains(self, other):
        return all(self.part(i) >= other.part(i) for i in range(1, len(other) + 1))

    def is_horizontal_strip_over(self, inner):
        """True if self/inner is a horizontal strip (<= 1 box per column)."""
        if not self.contains(inner):
            return False
        # no two added boxes in a column: inner_i >= self_{i+1}
        return all(inner.part(i) >= self.part(i + 1) for i in range(1, len(self) + 1))

    def conjugate(self):
        if not self.parts:
            return Partition()
        cols = [sum(1 for p in self.parts if p >= j) for j in range(1, self.parts[0] + 1)]
        return Partition(cols)


class SemistandardTableau:
    """Rows weakly increase, columns strictly increase, entries in 1..alphabet_bound."""

    __slots__ = ("rows", "alphabet_bound")

    def __init__(self, rows=(), alphabet_bound=None):
        rows = tuple(tuple(map(int, row)) for row in rows if len(row) > 0)
        max_entry = max(map(max, rows), default=0)
        if alphabet_bound is None:
            alphabet_bound = max_entry
        if max_entry > alphabet_bound:
            raise ValueError(f"entry {max_entry} exceeds alphabet bound {alphabet_bound}")
        for row in rows:
            if min(row) < 1:
                raise ValueError("entries must be >= 1")
            if not all(map(operator.le, row, row[1:])):
                raise ValueError(f"row {row} is not weakly increasing")
        for upper, lower in itertools.pairwise(rows):
            if len(lower) > len(upper):
                raise ValueError("row lengths must weakly decrease")
            # map stops at the end of the shorter, lower row
            if not all(map(operator.lt, upper, lower)):
                raise ValueError("columns must strictly increase")
        self.rows = rows
        self.alphabet_bound = int(alphabet_bound)

    @property
    def shape(self):
        return Partition(len(row) for row in self.rows)

    @property
    def size(self):
        return sum(len(row) for row in self.rows)

    def __eq__(self, other):
        return isinstance(other, SemistandardTableau) and self.rows == other.rows

    def __hash__(self):
        return hash(("SSYT", self.rows))

    def __repr__(self):
        return f"SemistandardTableau({[list(r) for r in self.rows]})"

    def __str__(self):
        if not self.rows:
            return "(empty tableau)"
        return "\n".join(" ".join(str(x) for x in row) for row in self.rows)

    def content(self):
        """Vector whose i-th entry counts occurrences of i (length alphabet_bound)."""
        counts = [0] * self.alphabet_bound
        for row in self.rows:
            for x in row:
                counts[x - 1] += 1
        return tuple(counts)

    def is_standard(self):
        entries = sorted(x for row in self.rows for x in row)
        return entries == list(range(1, self.size + 1))

    def transpose(self):
        if not self.rows:
            return SemistandardTableau((), self.alphabet_bound)
        cols = []
        for j in range(len(self.rows[0])):
            cols.append(tuple(row[j] for row in self.rows if len(row) > j))
        return SemistandardTableau(cols, self.alphabet_bound)

    def with_alphabet(self, bound):
        return SemistandardTableau(self.rows, bound)

    def to_lists(self):
        return [list(row) for row in self.rows]


class NatMatrix:
    """An r-by-n matrix with non-negative integer entries. Its hash is
    computed on first use and kept."""

    __slots__ = ("entries", "r", "n", "_hash")

    def __init__(self, entries, r=None, n=None):
        entries = tuple(tuple(map(int, row)) for row in entries)
        if entries:
            r = len(entries) if r is None else r
            n = len(entries[0]) if n is None else n
        if r is None or n is None:
            raise ValueError("empty matrix needs explicit r and n")
        if len(entries) != r or any(len(row) != n for row in entries):
            raise ValueError("ragged or mis-sized matrix")
        # every row now has n entries, so min has something to look at
        if n and entries and min(map(min, entries)) < 0:
            raise ValueError("entries must be non-negative")
        self.entries = entries
        self.r = r
        self.n = n

    @classmethod
    def _unchecked(cls, entries, r, n):
        """The matrix with the given entries, r tuples of n non-negative
        ints, taken as they are: for callers that have checked them."""
        matrix = object.__new__(cls)
        matrix.entries = entries
        matrix.r = r
        matrix.n = n
        return matrix

    @classmethod
    def zero(cls, r, n):
        return cls(tuple((0,) * n for _ in range(r)), r, n)

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, NatMatrix)
            and self.r == other.r
            and self.n == other.n
            and self.entries == other.entries
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(("NatMatrix", self.r, self.n, self.entries))
            return self._hash

    def __repr__(self):
        return f"NatMatrix({[list(row) for row in self.entries]})"

    @property
    def total(self):
        return sum(x for row in self.entries for x in row)

    def row_sums(self):
        return tuple(sum(row) for row in self.entries)

    def col_sums(self):
        return tuple(sum(row[j] for row in self.entries) for j in range(self.n))

    def transpose(self):
        return NatMatrix(tuple(zip(*self.entries)) if self.entries else (), self.n, self.r)

    def column(self, a):
        """Column a as a tuple (1-based)."""
        return tuple(row[a - 1] for row in self.entries)

    def to_lists(self):
        return [list(row) for row in self.entries]


class Biword:
    """A lexicographically sorted sequence of pairs (i, j)."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        pairs = tuple((int(i), int(j)) for i, j in pairs)
        if list(pairs) != sorted(pairs):
            raise ValueError("biword must be sorted lexicographically")
        self.pairs = pairs

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __eq__(self, other):
        return isinstance(other, Biword) and self.pairs == other.pairs

    def __repr__(self):
        return f"Biword({list(self.pairs)})"


def _biword_pairs(matrix):
    """The pairs of the matrix's biword, generated in sorted order."""
    pairs = []
    for i, row in enumerate(matrix.entries, start=1):
        for j, count in enumerate(row, start=1):
            pairs.extend([(i, j)] * count)
    return pairs


def matrix_to_biword(matrix):
    """Pairs (i, j) with multiplicity A_ij, sorted with first-entry priority."""
    return Biword(_biword_pairs(matrix))


def biword_to_matrix(biword, r, n):
    counts = [[0] * n for _ in range(r)]
    for i, j in biword:
        counts[i - 1][j - 1] += 1
    return NatMatrix(counts, r, n)


@functools.total_ordering
class Permutation:
    """A permutation of {1..n} in one-line notation."""

    __slots__ = ("one_line",)

    def __init__(self, one_line):
        one_line = tuple(int(x) for x in one_line)
        if sorted(one_line) != list(range(1, len(one_line) + 1)):
            raise ValueError(f"{one_line} is not a permutation of 1..{len(one_line)}")
        self.one_line = one_line

    @classmethod
    def identity(cls, n):
        return cls(range(1, n + 1))

    @classmethod
    def longest(cls, n):
        """The longest element w0, reversing the order."""
        return cls(range(n, 0, -1))

    def __call__(self, i):
        return self.one_line[i - 1]

    def __len__(self):
        return len(self.one_line)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.one_line == other.one_line

    def __lt__(self, other):
        return self.one_line < other.one_line

    def __hash__(self):
        return hash(("Permutation", self.one_line))

    def __repr__(self):
        return f"Permutation({list(self.one_line)})"

    def __mul__(self, other):
        """(self * other)(i) = self(other(i))."""
        return Permutation(self(other(i)) for i in range(1, len(other) + 1))

    def inverse(self):
        inv = [0] * len(self.one_line)
        for i, w in enumerate(self.one_line, start=1):
            inv[w - 1] = i
        return Permutation(inv)


def all_permutations(n):
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


def components(items, links):
    """The classes of the equivalence relation on the items (hashable) that
    the links, pairs of items, generate, by union-find: each class lists
    its items in the order given, and the classes come in the order of
    their first items."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in links:
        parent[find(x)] = find(y)
    classes = {}
    for x in parent:
        classes.setdefault(find(x), []).append(x)
    return list(classes.values())


def _bump(rows, value):
    """Schensted row insertion into rows (lists, changed in place).

    In each row the value takes the place of the leftmost entry strictly
    larger than it, which moves on to the next row. Returns the index of
    the row that grew by one box.
    """
    for i, row in enumerate(rows):
        j = bisect.bisect_right(row, value)
        if j == len(row):
            row.append(value)
            return i
        row[j], value = value, row[j]
    rows.append([value])
    return len(rows) - 1


def rsk(matrix):
    """RSK of a non-negative integer matrix; returns (P, Q).

    P records the inserted column indices (entries <= n, content = column
    sums); Q records which biword row produced each box (entries <= r,
    content = row sums). Shapes agree.

    Biword row i is the weakly increasing word holding each column index j
    A_ij times, and it goes in as one run. By the row bumping lemma each
    letter of such a word lands strictly right of the one before it, so
    each row is searched by bisection from just past the last bump, the
    bumped letters form the weakly increasing word for the next row, and
    the letters left after the last row make a new row. Q appends i to
    each row once per box that row gained. P and Q are built, and
    validated, once the last run is in.
    """
    p_rows = []
    q_rows = []
    columns = range(1, matrix.n + 1)
    for i, counts in enumerate(matrix.entries, start=1):
        word = list(itertools.chain.from_iterable(map(itertools.repeat, columns, counts)))
        for row, q_row in zip(p_rows, q_rows):
            bumped = []
            lo = 0
            end = len(row)
            for k, x in enumerate(word):
                lo = bisect.bisect_right(row, x, lo)
                if lo == end:
                    # x and every later letter are at least the row's last
                    # entry: they all go on the end of this row
                    row += word[k:]
                    q_row += [i] * (len(word) - k)
                    break
                bumped.append(row[lo])
                row[lo] = x
                lo += 1
            word = bumped
            if not word:
                break
        else:
            if word:
                p_rows.append(word)
                q_rows.append([i] * len(word))
    return SemistandardTableau(p_rows, matrix.n), SemistandardTableau(q_rows, matrix.r)


def rsk_inverse(p, q):
    """Invert RSK: recover the matrix with rsk(A) == (P, Q).

    Dimensions come from the alphabet bounds: A is q.alphabet_bound by
    p.alphabet_bound. The letters of Q are unwound from the largest down,
    each undoing the run `rsk` inserted for that row of A. The boxes
    recorded i form a horizontal strip, the last boxes of their rows, and
    the run is unwound row by row from the lowest of them up: a row gives
    back its strip boxes, the letters appended to it, and then takes the
    word bumped out of it, right to left, each letter displacing the
    rightmost entry strictly smaller than it. By the row bumping lemma
    each displaced entry lies strictly left of the one before, so each row
    is searched by bisection below the last position. The displaced
    entries, then the appended letters, make the word that entered the
    row; the word that entered the first row is row i of A.
    """
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    r, n = q.alphabet_bound, p.alphabet_bound
    p_rows = [list(row) for row in p.rows]
    q_rows = [list(row) for row in q.rows]
    counts = [[0] * n for _ in range(r)]
    # letter -> row -> columns of the boxes recorded with it
    strips = {}
    for bi, row in enumerate(q.rows):
        for bj, x in enumerate(row):
            strips.setdefault(x, {}).setdefault(bi, []).append(bj)
    for i in range(r, 0, -1):
        strip = strips.get(i)
        if not strip:
            continue
        for bi, cols in strip.items():
            end = len(q_rows[bi])
            if cols != list(range(end - len(cols), end)):
                raise ValueError("recording tableau is not a valid RSK output")
            del q_rows[bi][end - len(cols):]
        word = []
        for bi in range(max(strip), -1, -1):
            row = p_rows[bi]
            cut = len(row) - len(strip.get(bi, ()))
            appended = row[cut:]
            del row[cut:]
            displaced = []
            hi = cut
            for y in reversed(word):
                hi = bisect.bisect_left(row, y, 0, hi) - 1
                if hi < 0:
                    raise ValueError("invalid tableau pair")
                displaced.append(row[hi])
                row[hi] = y
            displaced.reverse()
            word = displaced + appended
        for x in word:
            counts[i - 1][x - 1] += 1
    if any(row for row in p_rows) or any(row for row in q_rows):
        raise ValueError("invalid tableau pair")
    return NatMatrix(counts, r, n)


def permutation_matrix(w):
    """The matrix with A_ij = 1 exactly when j = w(i)."""
    n = len(w)
    return NatMatrix([[1 if j == w(i) else 0 for j in range(1, n + 1)] for i in range(1, n + 1)])


def rs_permutation(w):
    """Robinson-Schensted symbols of a permutation: insert w(1), ..., w(n)."""
    p, q = rsk(permutation_matrix(w))
    return p, q


def transpose_check(matrix):
    """Whether rsk(A^t) equals the swapped rsk(A)."""
    p, q = rsk(matrix)
    pt, qt = rsk(matrix.transpose())
    return pt == q and qt == p


def all_matrices(r, n, max_entry):
    """Every r-by-n matrix with entries in 0..max_entry."""
    cells = list(itertools.product(range(max_entry + 1), repeat=r * n))
    out = []
    for flat in cells:
        rows = [flat[i * n : (i + 1) * n] for i in range(r)]
        out.append(NatMatrix(rows, r, n))
    return out


def semistandard_tableaux(shape, bound, content=None):
    """All SSYT of a shape with entries <= bound, cells filled row by row.

    With a content, a vector of length bound, a letter is tried only while
    its count is not used up; another length gives no tableau. The standard
    tableaux of a shape of size n are those with bound n and content
    (1,) * n.
    """
    shape = shape if isinstance(shape, Partition) else Partition(shape)
    cells = [(i, j) for i in range(len(shape)) for j in range(shape[i])]
    if content is None:
        left = [len(cells)] * bound
    elif len(content) == bound and sum(content) == len(cells) and min(content, default=0) >= 0:
        left = list(content)
    else:
        return []
    results = []
    rows = [[] for _ in shape]

    def rec(idx):
        if idx == len(cells):
            results.append(SemistandardTableau(rows, bound))
            return
        i, j = cells[idx]
        lo = rows[i][j - 1] if j > 0 else 1
        if i > 0:
            lo = max(lo, rows[i - 1][j] + 1)
        for v in range(lo, bound + 1):
            if left[v - 1]:
                left[v - 1] -= 1
                rows[i].append(v)
                rec(idx + 1)
                rows[i].pop()
                left[v - 1] += 1

    rec(0)
    return results
