import itertools

import pytest

from gaudinrsk.combinatorics import (
    NatMatrix,
    Partition,
    SemistandardTableau,
    all_matrices,
    rsk,
    semistandard_tableaux,
)
from gaudinrsk import crystals
from gaudinrsk.crystals import (
    CrystalMap,
    IsomorphismReport,
    _signature_select,
    crystal_e,
    crystal_f,
    crystal_graph,
    g_insert,
    pieri_shapes,
    u_extend,
    verify_isomorphism,
    weight,
)


class TestOperatorBasics:
    def test_weight(self):
        assert weight(NatMatrix([[1, 2], [0, 1]])) == (3, 1)
        assert weight(SemistandardTableau([[1, 1, 2], [2]], 3)) == (2, 2, 0)

    @pytest.mark.parametrize("x", [(1, 2), [[1, 0], [0, 1]], None])
    def test_weight_refuses_other_objects(self, x):
        with pytest.raises(TypeError, match="not a crystal element"):
            weight(x)

    @pytest.mark.parametrize("report,text", [
        (IsomorphismReport(checked=12), "isomorphism check passed on 12 elements"),
        (IsomorphismReport(checked=12, violations=["f_1 at A", "e_2 at B"]),
         "2 violations (first: f_1 at A)"),
    ], ids=["passed", "failed"])
    def test_report_text(self, report, text):
        assert str(report) == text

    def test_index_range(self):
        a = NatMatrix([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            crystal_e(2, a)
        with pytest.raises(ValueError):
            crystal_f(0, a)

    def test_e_f_partial_inverses(self):
        for x in all_matrices(3, 2, 2):
            for i in (1, 2):
                y = crystal_f(i, x)
                if y is not None:
                    assert crystal_e(i, y) == x
                y = crystal_e(i, x)
                if y is not None:
                    assert crystal_f(i, y) == x

    def test_weight_shift(self):
        for x in all_matrices(2, 3, 2):
            y = crystal_f(1, x)
            if y is not None:
                w, v = weight(x), weight(y)
                assert v == (w[0] - 1, w[1] + 1)
                assert y.col_sums() == x.col_sums()

    def test_tableau_single_row(self):
        t = SemistandardTableau([[1, 2]], 2)
        assert crystal_e(1, t).to_lists() == [[1, 1]]
        assert crystal_f(1, t).to_lists() == [[2, 2]]

    def test_tableau_column_is_fixed(self):
        t = SemistandardTableau([[1], [2]], 2)
        assert crystal_e(1, t) is None
        assert crystal_f(1, t) is None


class TestTableauCrystal:
    def test_unique_highest_weight_per_class(self):
        # each crystal of a fixed shape has exactly one source vertex
        for shape in [(2,), (1, 1), (2, 1), (3, 1), (2, 2)]:
            tabs = semistandard_tableaux(shape, 3)
            sources = [
                t for t in tabs if all(crystal_e(i, t) is None for i in (1, 2))
            ]
            assert len(sources) == 1
            assert sources[0].content() == tuple(
                Partition(shape).part(i) for i in (1, 2, 3)
            )

    def test_connected_from_highest_weight(self):
        tabs = set(semistandard_tableaux((2, 1), 3))
        start = SemistandardTableau([[1, 1], [2]], 3)
        seen = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for i in (1, 2):
                y = crystal_f(i, x)
                if y is not None and y not in seen:
                    seen.add(y)
                    frontier.append(y)
        assert seen == tabs

    def test_graph_edges_pair_up(self):
        tabs = semistandard_tableaux((2, 1), 3)
        edges = crystal_graph(tabs, 3)
        for x, i, y in edges:
            assert crystal_e(i, y) == x


class TestRSKEquivariance:
    def test_recording_tableau_is_a_crystal_map(self):
        cmap = CrystalMap("recording", lambda a: rsk(a)[1], rank=2)
        report = verify_isomorphism(cmap, all_matrices(2, 2, 2))
        assert report.ok, str(report)

    def test_insertion_tableau_constant_on_strings(self):
        for a in all_matrices(2, 3, 2):
            p, _ = rsk(a)
            for i in (1,):
                b = crystal_f(i, a)
                if b is not None:
                    assert rsk(b)[0] == p

    def test_rank3_spot(self):
        cmap = CrystalMap("recording", lambda a: rsk(a)[1], rank=3)
        report = verify_isomorphism(cmap, all_matrices(3, 2, 1))
        assert report.ok, str(report)


class TestPieri:
    def test_known_values(self):
        assert pieri_shapes(Partition([2, 1]), 2, 3) == {
            Partition([4, 1]),
            Partition([3, 2]),
            Partition([3, 1, 1]),
            Partition([2, 2, 1]),
        }
        assert pieri_shapes(Partition([]), 3, 2) == {Partition([3])}
        assert pieri_shapes(Partition([1]), 0, 2) == {Partition([1])}

    def test_strips(self):
        shape = Partition([3, 1])
        for mu in pieri_shapes(shape, 2, 4):
            assert mu.is_horizontal_strip_over(shape)
            assert mu.size == shape.size + 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pieri_shapes(Partition([1]), -1, 2)


class TestChains:
    def test_g_chain_builds_recording_tableau(self):
        for a in all_matrices(2, 3, 2):
            p, q = rsk(a)
            t = SemistandardTableau([], a.r)
            for col in range(1, a.n + 1):
                t = g_insert(t, a.column(col))
            assert t == q

    def test_u_chain_builds_insertion_tableau(self):
        for a in all_matrices(3, 2, 2):
            p, _ = rsk(a)
            t = SemistandardTableau([], a.r)
            u = SemistandardTableau([], 0)
            for col in range(1, a.n + 1):
                t = g_insert(t, a.column(col))
                u = u_extend(u, t.shape, col)
            assert u.with_alphabet(a.n) == p

    def test_g_insert_lands_in_pieri_shape(self):
        t = SemistandardTableau([[1, 1], [2]], 3)
        for col in itertools.product(range(3), repeat=3):
            out = g_insert(t, col)
            assert out.shape in pieri_shapes(t.shape, sum(col), 3)

    def test_u_extend_rejects_bad_shape(self):
        t = SemistandardTableau([[1, 1]], 2)
        with pytest.raises(ValueError):
            u_extend(t, Partition([2, 1, 1]), 3)


def _letter_signature_select(eps_phi):
    """The tensor rule letter by letter: each factor pushes '+' * phi then
    '-' * eps onto one stack, a '+' popping a '-' on top of it."""
    stack = []  # (char, factor index)
    for idx, (eps, phi) in enumerate(eps_phi):
        for _ in range(phi):
            if stack and stack[-1][0] == "-":
                stack.pop()
            else:
                stack.append(("+", idx))
        for _ in range(eps):
            stack.append(("-", idx))
    e_target = next((idx for ch, idx in stack if ch == "-"), None)
    f_target = next((idx for ch, idx in reversed(stack) if ch == "+"), None)
    return e_target, f_target


class TestSignatureRule:
    def test_matches_letter_stack(self):
        # every sequence of at most 4 factors with eps, phi in {0, 1, 2}
        factors = list(itertools.product(range(3), repeat=2))
        for length in range(5):
            for seq in itertools.product(factors, repeat=length):
                assert _signature_select(seq) == _letter_signature_select(seq), seq

    def test_known_targets(self):
        # "+ -" survives; "- +" cancels; factor 1's '+' cancels only one
        # of factor 0's two '-'
        assert _signature_select([(0, 1), (1, 0)]) == (1, 0)
        assert _signature_select([(1, 0), (0, 1)]) == (None, None)
        assert _signature_select([(2, 0), (0, 1)]) == (0, None)
        assert _signature_select([]) == (None, None)


def _oracle_verify(cmap, samples, max_violations=10):
    """verify_isomorphism as one plain loop, calling the map and every
    operator afresh each time it needs them."""
    report = IsomorphismReport()
    for x in samples:
        report.checked += 1
        y = cmap.apply(x)
        if tuple(weight(x)) != tuple(weight(y)):
            report.violations.append(("weight", x, weight(x), weight(y)))
        for i in range(1, cmap.rank):
            for op, tag in ((crystal_e, "e"), (crystal_f, "f")):
                xi = op(i, x)
                yi = op(i, y)
                if (xi is None) != (yi is None):
                    report.violations.append((tag, i, x, "defined/undefined mismatch"))
                elif xi is not None and cmap.apply(xi) != yi:
                    report.violations.append((tag, i, x, cmap.apply(xi), yi))
                if len(report.violations) >= max_violations:
                    return report
    return report


def _recording(a):
    return rsk(a)[1]


def _wrong_at(bad):
    """The recording tableau, except at the matrix bad, which maps to the
    tableau of its size with a single 2, in the second row."""
    def apply(a):
        q = rsk(a)[1]
        if a != bad:
            return q
        return SemistandardTableau([[1] * (q.size - 1), [2]], q.alphabet_bound)
    return apply


class TestVerifyIsomorphismMemo:
    CASES = (
        ("recording", _recording, 2, (2, 3, 2)),
        ("recording", _recording, 3, (3, 2, 1)),
        ("insertion", lambda a: rsk(a)[0], 2, (2, 3, 2)),
        ("insertion", lambda a: rsk(a)[0], 3, (3, 3, 1)),
        ("one wrong", _wrong_at(NatMatrix([[1, 1, 0], [0, 1, 1]])), 2, (2, 3, 1)),
    )

    @pytest.mark.parametrize("name,apply,rank,spec", CASES,
                             ids=[f"{c[0]}-{c[2]}" for c in CASES])
    @pytest.mark.parametrize("max_violations", [1, 3, 10, 10 ** 6])
    def test_same_report_as_plain_loop(self, name, apply, rank, spec, max_violations):
        samples = all_matrices(*spec)
        cmap = CrystalMap(name, apply, rank=rank)
        got = verify_isomorphism(cmap, samples, max_violations)
        want = _oracle_verify(cmap, samples, max_violations)
        # the dataclass compares checked and the violations, in order
        assert got == want

    def test_planted_maps_are_caught(self):
        wrong_side = CrystalMap("insertion", lambda a: rsk(a)[0], rank=2)
        report = verify_isomorphism(wrong_side, all_matrices(2, 3, 2), max_violations=5)
        assert len(report.violations) == 5 and report.checked < 3 ** 6
        bad = NatMatrix([[1, 1, 0], [0, 1, 1]])
        one_wrong = CrystalMap("one wrong", _wrong_at(bad), rank=2)
        report = verify_isomorphism(one_wrong, all_matrices(2, 3, 1), max_violations=10 ** 6)
        assert report.checked == 2 ** 6
        assert report.violations
        # every violation involves bad: at bad itself, or at a neighbour
        # whose e_1 or f_1 image is bad
        for violation in report.violations:
            x = violation[1] if violation[0] == "weight" else violation[2]
            assert x == bad or bad in (crystal_e(1, x), crystal_f(1, x)), violation

    def test_map_and_codomain_operators_run_once_per_argument(self, monkeypatch):
        applied, cod_calls = [], []

        def apply(a):
            applied.append(a)
            return rsk(a)[1]

        def counting(op, tag):
            # the codomain of the recording map holds the tableaux
            def wrapped(i, y):
                if isinstance(y, SemistandardTableau):
                    cod_calls.append((tag, i, y))
                return op(i, y)
            return wrapped

        monkeypatch.setattr(crystals, "crystal_e", counting(crystal_e, "e"))
        monkeypatch.setattr(crystals, "crystal_f", counting(crystal_f, "f"))
        cmap = CrystalMap("recording", apply, rank=3)
        samples = all_matrices(3, 3, 1)
        report = verify_isomorphism(cmap, samples)
        assert report.ok and report.checked == len(samples)
        assert len(applied) == len(set(applied))
        assert len(cod_calls) == len(set(cod_calls))
        # the operators are read at call time: every image of a sample meets
        # both codomain operators at each index
        assert set(cod_calls) == {(tag, i, rsk(a)[1]) for a in samples
                                  for i in (1, 2) for tag in "ef"}
        # the samples are mapped, and so is every e_i/f_i image of one
        images = {op(i, x) for x in samples for i in (1, 2) for op in (crystal_e, crystal_f)}
        assert set(applied) == set(samples) | (images - {None})
        # the plain loop maps a shared image once per sample reaching it
        plain = []
        _oracle_verify(CrystalMap("recording", lambda a: plain.append(a) or rsk(a)[1],
                                  rank=3), samples)
        assert len(plain) > len(applied)
