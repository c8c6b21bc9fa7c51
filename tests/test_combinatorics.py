import itertools
import math
import random

import pytest

from gaudinrsk.combinatorics import (
    Biword,
    NatMatrix,
    Partition,
    Permutation,
    SemistandardTableau,
    all_matrices,
    all_permutations,
    biword_to_matrix,
    matrix_to_biword,
    permutation_matrix,
    rs_permutation,
    rsk,
    rsk_inverse,
    semistandard_tableaux,
    transpose_check,
)
from gaudinrsk.combinatorics import _bump


def _partitions_up_to(size):
    """Every partition of 1..size, as tuples of weakly decreasing parts."""
    def rec(left, most):
        if left == 0:
            yield ()
        for part in range(min(left, most), 0, -1):
            for rest in rec(left - part, part):
                yield (part,) + rest
    return [p for n in range(1, size + 1) for p in rec(n, n)]


class TestConstructorMessages:
    """Each rejection with its message. Inputs that break two rules pin the
    order of the checks: the message is that of the first."""

    @pytest.mark.parametrize("parts,message", [
        ([1, 2], "parts (1, 2) are not weakly decreasing"),
        ([0, 1, 0, 2], "parts (1, 2) are not weakly decreasing"),
        ([2, -1], "parts (2, -1) contain a negative entry"),
        ([-1, 2], "parts (-1, 2) are not weakly decreasing"),
    ])
    def test_partition(self, parts, message):
        with pytest.raises(ValueError) as err:
            Partition(parts)
        assert str(err.value) == message

    @pytest.mark.parametrize("rows,bound,message", [
        ([[1, 3]], 2, "entry 3 exceeds alphabet bound 2"),
        ([[0, 1]], None, "entries must be >= 1"),
        ([[2, 1]], None, "row (2, 1) is not weakly increasing"),
        ([[1], [2, 2]], None, "row lengths must weakly decrease"),
        ([[1, 1], [1]], None, "columns must strictly increase"),
        # two rules broken
        ([[0, 3]], 2, "entry 3 exceeds alphabet bound 2"),
        ([[2, 0]], None, "entries must be >= 1"),
        ([[2, 1], [0]], None, "row (2, 1) is not weakly increasing"),
        ([[1, 1], [1, 0]], None, "entries must be >= 1"),
        ([[2, 2], [2, 1]], None, "row (2, 1) is not weakly increasing"),
        ([[2], [1, 3]], None, "row lengths must weakly decrease"),
        ([[1, 2], [1], [1]], None, "columns must strictly increase"),
    ])
    def test_tableau(self, rows, bound, message):
        with pytest.raises(ValueError) as err:
            SemistandardTableau(rows, bound)
        assert str(err.value) == message

    @pytest.mark.parametrize("entries,r,n,message", [
        ([], None, None, "empty matrix needs explicit r and n"),
        ([], 2, None, "empty matrix needs explicit r and n"),
        ([[1, 2], [3]], None, None, "ragged or mis-sized matrix"),
        ([[1]], 2, None, "ragged or mis-sized matrix"),
        ([[1, 2]], None, 3, "ragged or mis-sized matrix"),
        ([[1, -1]], None, None, "entries must be non-negative"),
        # two rules broken
        ([[1, -1], [2]], None, None, "ragged or mis-sized matrix"),
        ([[-1]], 1, 2, "ragged or mis-sized matrix"),
    ])
    def test_matrix(self, entries, r, n, message):
        with pytest.raises(ValueError) as err:
            NatMatrix(entries, r, n)
        assert str(err.value) == message

    def test_accepted_edge_cases(self):
        assert SemistandardTableau([[1], [], [2]]).rows == ((1,), (2,))
        assert SemistandardTableau([], None).alphabet_bound == 0
        assert SemistandardTableau([[1.0, 2]], 3).rows == ((1, 2),)
        assert NatMatrix([[], []]).entries == ((), ())
        assert NatMatrix((), 0, 3).entries == ()
        assert NatMatrix([[1.0, 0]]).entries == ((1, 0),)
        assert Partition([3, 0, 3, 1]).parts == (3, 3, 1)


class TestPartition:
    def test_normalization_drops_zeros(self):
        assert Partition([3, 2, 0, 0]).parts == (3, 2)

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition([1, 2])

    def test_conjugate(self):
        assert Partition([4, 2, 1]).conjugate() == Partition([3, 2, 1, 1])
        assert Partition([4, 2, 1]).conjugate().conjugate() == Partition([4, 2, 1])

    def test_horizontal_strip(self):
        assert Partition([3, 1]).is_horizontal_strip_over(Partition([2]))
        assert Partition([2, 2]).is_horizontal_strip_over(Partition([2, 1]))
        assert not Partition([2, 2]).is_horizontal_strip_over(Partition([1, 1]))
        assert not Partition([2, 2]).is_horizontal_strip_over(Partition([3]))


class TestTableau:
    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            SemistandardTableau([[2, 1]])
        with pytest.raises(ValueError):
            SemistandardTableau([[1, 1], [1]])
        with pytest.raises(ValueError):
            SemistandardTableau([[1], [2, 2]])

    def test_content_and_shape(self):
        t = SemistandardTableau([[1, 1, 2], [2]], 3)
        assert t.shape == Partition([3, 1])
        assert t.content() == (2, 2, 0)

    def test_transpose_standard(self):
        t = SemistandardTableau([[1, 2, 4], [3]])
        assert t.transpose().to_lists() == [[1, 3], [2], [4]]

    def test_standard_tableaux_counts(self):
        counts = {
            (4,): 1,
            (3, 1): 3,
            (2, 2): 2,
            (2, 1, 1): 3,
            (1, 1, 1, 1): 1,
        }
        for shape, count in counts.items():
            tabs = semistandard_tableaux(shape, 4, (1,) * 4)
            assert len(tabs) == count
            assert all(t.is_standard() for t in tabs)

    def test_semistandard_counts(self):
        # Kostka numbers: K_{(2,1),content} for entries <= 3
        assert len(semistandard_tableaux([2, 1], 3)) == 8
        assert len(semistandard_tableaux([2, 1], 3, content=(1, 1, 1))) == 2
        # a content of another length than the bound, or with a negative
        # count, gives no tableau
        assert semistandard_tableaux([2, 1], 3, (1, 1, 1, 0)) == []
        assert semistandard_tableaux([2, 1], 3, (2, 1)) == []
        assert semistandard_tableaux([2, 1], 3, (2, 2, -1)) == []

    def test_content_prunes_to_the_filtered_set(self):
        # every content of length 3 for every shape of size <= 5 with at most
        # three rows: the pruned enumeration, in order, is the unconstrained
        # one filtered by content
        for shape in _partitions_up_to(5):
            if len(shape) > 3:
                continue
            every = semistandard_tableaux(shape, 3)
            for content in itertools.product(range(sum(shape) + 1), repeat=3):
                want = [t for t in every if t.content() == content]
                assert semistandard_tableaux(shape, 3, content) == want, (shape, content)

    def test_standard_counts_by_hook_length(self):
        # f^lambda = n! / prod of hook lengths, for every shape up to n = 7
        for shape in _partitions_up_to(7):
            n = sum(shape)
            tabs = semistandard_tableaux(shape, n, (1,) * n)
            conj = Partition(shape).conjugate()
            hooks = math.prod(shape[i] - j + conj[j] - i - 1
                              for i in range(len(shape)) for j in range(shape[i]))
            assert len(tabs) == math.factorial(n) // hooks, shape
            assert len(set(tabs)) == len(tabs)
            assert all(t.is_standard() and t.shape == Partition(shape) for t in tabs)


class TestBiword:
    def test_sorted_required(self):
        with pytest.raises(ValueError):
            Biword([(2, 1), (1, 1)])

    def test_matrix_roundtrip(self):
        a = NatMatrix([[0, 2], [1, 0]])
        assert biword_to_matrix(matrix_to_biword(a), 2, 2) == a

    def test_first_entry_priority(self):
        a = NatMatrix([[0, 1], [1, 0]])
        assert list(matrix_to_biword(a)) == [(1, 2), (2, 1)]


class TestRowInsert:
    # Schensted row insertion of one letter, as g_insert runs it: _bump
    # inserts into the rows in place and returns the index of the row that
    # grew by one box
    def test_bumping(self):
        rows = [[1, 2, 2], [3]]
        i = _bump(rows, 1)
        assert SemistandardTableau(rows).to_lists() == [[1, 1, 2], [2], [3]]
        assert (i, len(rows[i]) - 1) == (2, 0)

    def test_append(self):
        rows = [[1, 2]]
        i = _bump(rows, 2)
        assert SemistandardTableau(rows).to_lists() == [[1, 2, 2]]
        assert (i, len(rows[i]) - 1) == (0, 2)


class TestRSK:
    def test_known_pair(self):
        a = NatMatrix([[0, 2, 1], [1, 0, 1]])
        p, q = rsk(a)
        assert p.to_lists() == [[1, 2, 3, 3], [2]]
        assert q.to_lists() == [[1, 1, 1, 2], [2]]
        assert rsk_inverse(p, q) == a

    def test_shapes_and_contents(self):
        for a in all_matrices(2, 3, 2):
            p, q = rsk(a)
            assert p.shape == q.shape
            assert p.content() == a.col_sums()
            assert q.content() == a.row_sums()

    def test_roundtrip_exhaustive_small(self):
        for a in all_matrices(3, 2, 2):
            p, q = rsk(a)
            assert rsk_inverse(p, q) == a

    def test_roundtrip_random(self):
        rng = random.Random(7)
        for _ in range(300):
            r = rng.randint(1, 5)
            n = rng.randint(1, 5)
            a = NatMatrix([[rng.randint(0, 4) for _ in range(n)] for _ in range(r)])
            p, q = rsk(a)
            assert rsk_inverse(p, q) == a

    def test_roundtrip_exhaustive_2x3(self):
        for a in all_matrices(2, 3, 2):
            assert rsk_inverse(*rsk(a)) == a

    @pytest.mark.parametrize("r", range(1, 9))
    def test_roundtrip_sweep_shapes(self, r):
        # the benchmark sweep's range: r and n up to 8, entries up to 4
        rng = random.Random(r)
        for n in range(1, 9):
            for _ in range(20):
                a = NatMatrix([[rng.randint(0, 4) for _ in range(n)] for _ in range(r)])
                assert rsk_inverse(*rsk(a)) == a

    def test_transpose_symmetry(self):
        for a in all_matrices(2, 3, 2):
            assert transpose_check(a)

    def test_inverse_rejects_mismatched_shapes(self):
        p = SemistandardTableau([[1, 2]], 2)
        q = SemistandardTableau([[1], [2]], 2)
        with pytest.raises(ValueError):
            rsk_inverse(p, q)

    def test_inverse_rejects_p_without_smaller_entry(self):
        # the constructor refuses such a P; build it past the checks
        p = object.__new__(SemistandardTableau)
        p.rows, p.alphabet_bound = ((2,), (1,)), 2
        q = SemistandardTableau([[1], [2]], 2)
        with pytest.raises(ValueError, match="^invalid tableau pair$"):
            rsk_inverse(p, q)

    @staticmethod
    def _past_checks(rows, bound):
        """A tableau with the given rows, built without the constructor's
        checks."""
        t = object.__new__(SemistandardTableau)
        t.rows, t.alphabet_bound = tuple(map(tuple, rows)), bound
        return t

    @pytest.mark.parametrize("p,q,message", [
        # Q's only 2 is not the last box of its row
        (((1, 2),), ((2, 1),), "recording tableau is not a valid RSK output"),
        # the box recorded 2 bumps 1 up, but the row above holds nothing
        # smaller than 1
        (((1,), (1,)), ((1,), (2,)), "invalid tableau pair"),
        # an entry beyond Q's bound is never unwound
        (((1,),), ((3,),), "invalid tableau pair"),
        # an entry 0 in Q is never unwound either
        (((1, 2),), ((0, 1),), "invalid tableau pair"),
    ])
    def test_inverse_rejects_corrupted_pairs(self, p, q, message):
        with pytest.raises(ValueError) as err:
            rsk_inverse(self._past_checks(p, 2), self._past_checks(q, 2))
        assert str(err.value) == message

    def test_inverse_names_the_shapes(self):
        p = SemistandardTableau([[1, 2]], 2)
        q = SemistandardTableau([[1], [2]], 2)
        with pytest.raises(ValueError) as err:
            rsk_inverse(p, q)
        assert str(err.value) == "shape mismatch: Partition([2]) vs Partition([1, 1])"

    def test_inverse_hits_every_tableau_pair(self):
        # RSK is onto pairs of same-shape tableaux with bounded entries
        for shape in [(2,), (1, 1), (2, 1)]:
            for p in semistandard_tableaux(shape, 3):
                for q in semistandard_tableaux(shape, 2):
                    a = rsk_inverse(p, q.with_alphabet(2))
                    assert rsk(a) == (p, q)


def _oracle_rsk(matrix):
    """RSK letter by letter: a linear scan per row and a fresh tableau per
    bump, independent of the library's insertion."""
    p = SemistandardTableau((), matrix.n)
    q_rows = []
    for i, j in matrix_to_biword(matrix):
        rows = [list(row) for row in p.rows]
        value = j
        bi = 0
        while True:
            if bi == len(rows):
                rows.append([value])
                break
            row = rows[bi]
            pos = None
            for k, x in enumerate(row):
                if x > value:
                    pos = k
                    break
            if pos is None:
                row.append(value)
                break
            row[pos], value = value, row[pos]
            bi += 1
        p = SemistandardTableau(rows, max(p.alphabet_bound, j))
        if bi == len(q_rows):
            q_rows.append([])
        q_rows[bi].append(i)
    return p, SemistandardTableau(q_rows, matrix.r)


class TestRskOracle:
    @staticmethod
    def _assert_same(a):
        p, q = rsk(a)
        op, oq = _oracle_rsk(a)
        assert (p.rows, q.rows) == (op.rows, oq.rows), a
        assert (p.alphabet_bound, q.alphabet_bound) == (op.alphabet_bound, oq.alphabet_bound), a

    def test_random(self):
        rng = random.Random(2024)
        for _ in range(1000):
            r = rng.randint(1, 8)
            n = rng.randint(1, 8)
            self._assert_same(NatMatrix([[rng.randint(0, 4) for _ in range(n)] for _ in range(r)]))

    def test_exhaustive_small(self):
        for a in all_matrices(2, 3, 2):
            self._assert_same(a)

    def test_exhaustive_three_by_three(self):
        for a in all_matrices(3, 3, 2):
            self._assert_same(a)

    def test_single_row_and_column(self):
        # one row is one weakly increasing run; one column inserts its
        # letter once per row, each run bumping the one before
        for k in range(1, 4):
            for a in all_matrices(1, k, 9):
                self._assert_same(a)
                self._assert_same(a.transpose())
        rng = random.Random(11)
        for _ in range(200):
            row = [rng.randint(0, 9) for _ in range(rng.randint(4, 8))]
            self._assert_same(NatMatrix([row]))
            self._assert_same(NatMatrix([[x] for x in row]))

    def test_zero_last_row_and_column_keep_bounds(self):
        # rsk_inverse reads the size of A from the alphabet bounds
        a = NatMatrix([[1, 0], [0, 0]])
        self._assert_same(a)
        p, q = rsk(a)
        assert (p.alphabet_bound, q.alphabet_bound) == (2, 2)
        assert rsk_inverse(p, q) == a


class TestPermutations:
    def test_compose_and_inverse(self):
        w = Permutation([2, 3, 1])
        assert (w * w.inverse()) == Permutation.identity(3)
        assert (w * Permutation([1, 3, 2])).one_line == (2, 1, 3)

    def test_permutation_matrix(self):
        w = Permutation([2, 1, 3])
        assert permutation_matrix(w).to_lists() == [
            [0, 1, 0],
            [1, 0, 0],
            [0, 0, 1],
        ]

    def test_rs_symbols_are_standard(self):
        for w in all_permutations(4):
            p, q = rs_permutation(w)
            assert p.is_standard() and q.is_standard()
            assert p.shape == q.shape

    def test_rs_inverse_swaps_symbols(self):
        for w in all_permutations(4):
            p, q = rs_permutation(w)
            pi, qi = rs_permutation(w.inverse())
            assert pi == q and qi == p

    def test_rs_s3_p_classes(self):
        classes = {}
        for w in all_permutations(3):
            p, _ = rs_permutation(w)
            classes.setdefault(p.rows, []).append(w)
        assert sorted(len(v) for v in classes.values()) == [1, 1, 2, 2]


def evacuation(tableau):
    """Schuetzenberger evacuation of a standard tableau (an involution)."""
    if not tableau.is_standard():
        raise ValueError("evacuation requires a standard tableau")
    size = tableau.size
    rows = [list(row) for row in tableau.rows]
    out = {}
    for step in range(size):
        # delta operation: empty the (1,1) box, slide the hole outwards
        i, j = 0, 0
        while True:
            below = rows[i + 1][j] if i + 1 < len(rows) and j < len(rows[i + 1]) else None
            right = rows[i][j + 1] if j + 1 < len(rows[i]) else None
            if below is None and right is None:
                break
            if right is None or (below is not None and below < right):
                rows[i][j] = below
                i += 1
            else:
                rows[i][j] = right
                j += 1
        rows[i].pop()
        if not rows[i]:
            rows.pop(i)
        out[(i, j)] = size - step
    if not out:
        return SemistandardTableau((), tableau.alphabet_bound)
    n_rows = max(i for i, _ in out) + 1
    result = [
        [out[(i, j)] for j in range(sum(1 for key in out if key[0] == i))]
        for i in range(n_rows)
    ]
    return SemistandardTableau(result, tableau.alphabet_bound)


class TestEvacuation:
    def test_involution(self):
        for shape in [(3, 1), (2, 2), (2, 1, 1), (3, 2)]:
            n = sum(shape)
            for t in semistandard_tableaux(shape, n, (1,) * n):
                assert evacuation(evacuation(t)) == t

    def test_rejects_non_standard(self):
        with pytest.raises(ValueError):
            evacuation(SemistandardTableau([[1, 1]]))

    def test_longest_element_identities(self):
        # right multiplication by w0 reverses the insertion word
        w0 = Permutation.longest(4)
        for w in all_permutations(4):
            p, q = rs_permutation(w)
            _, q_rev = rs_permutation(w * w0)
            assert q_rev == evacuation(q).transpose()
            _, q_compl = rs_permutation(w0 * w)
            assert q_compl == q.transpose()
