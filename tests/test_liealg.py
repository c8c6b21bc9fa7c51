import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gaudinrsk.combinatorics import NatMatrix
from gaudinrsk.liealg import (
    MonomialBlock,
    Operator,
    casimir_eigenvalue,
    commute_on,
    delta_n,
    delta_r,
    dense,
    dual_kappa,
    dual_nabla,
    dual_nested_casimir,
    dual_op_E,
    exact_matrix,
    gaudin_h,
    gaudin_terms,
    identity,
    is_adjoint_pair,
    jm,
    kappa,
    mirrored_terms,
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
from gaudinrsk.liealg import _summed, _terms_sum
from gaudinrsk.spectralflow import FlowContext

Z = (Fraction(5), Fraction(2), Fraction(1))
Q = (Fraction(3), Fraction(1))
BASIS = weight_basis(2, 3, (1, 1, 1))


def _capped_compositions(total, caps):
    """All tuples of non-negative integers with the sum, entry i at most caps[i]."""
    if not caps:
        return [()] if total == 0 else []
    out = []
    rest = sum(caps[1:])
    for first in range(max(0, total - rest), min(total, caps[0]) + 1):
        for tail in _capped_compositions(total - first, caps[1:]):
            out.append((first,) + tail)
    return out


def _recursive_basis(r, n, col_sums, row_sums=None):
    """The oracle of `weight_basis`: the block as a sorted list of checked
    monomials, filled column by column in a recursion over the row sums
    still open."""
    if len(col_sums) != n:
        raise ValueError(f"expected {n} column sums, got {len(col_sums)}")
    if row_sums is None:
        open_rows = [sum(col_sums)] * r
    elif len(row_sums) == r and sum(row_sums) == sum(col_sums):
        open_rows = list(row_sums)
    else:
        return []
    out = []

    def rec(a, cols):
        if a == n:
            out.append(NatMatrix([[cols[c][i] for c in range(n)] for i in range(r)], r, n))
            return
        for col in _capped_compositions(col_sums[a], tuple(open_rows)):
            for i, x in enumerate(col):
                open_rows[i] -= x
            rec(a + 1, cols + [col])
            for i, x in enumerate(col):
                open_rows[i] += x

    rec(0, [])
    out.sort(key=lambda m: m.entries)
    return out


class TestBasis:
    def test_compositions(self):
        # the enumeration weight_basis runs per column, each entry capped
        assert len(_capped_compositions(3, (3, 3))) == 4
        assert _capped_compositions(0, ()) == [()]
        assert _capped_compositions(1, ()) == []

    def test_dimension(self):
        # (C^2)^{x3}: 2^3 monomials with column sums (1,1,1)
        assert len(BASIS) == 8
        assert len(weight_basis(2, 2, (2, 1))) == 6

    def test_weight_restriction(self):
        block = weight_basis(2, 3, (1, 1, 1), row_sums=(2, 1))
        assert len(block) == 3
        assert all(m.row_sums() == (2, 1) for m in block)

    def test_deterministic_order(self):
        assert weight_basis(2, 2, (1, 0)) == weight_basis(2, 2, (1, 0))

    def test_sqnorm(self):
        assert sqnorm(NatMatrix([[2, 0], [1, 3]])) == 2 * 1 * 1 * 6

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            weight_basis(2, 3, (1, 1))

    def test_row_sums_match_filtering(self):
        # the pruned enumeration equals filtering the whole graded piece
        for r, n, k in ((2, 3, (1, 1, 1)), (3, 3, (2, 0, 3)), (3, 4, (1, 2, 1, 1)),
                        (1, 2, (2, 1)), (4, 2, (2, 2))):
            full = weight_basis(r, n, k)
            weights = [w for w in itertools.product(range(sum(k) + 1), repeat=r)
                       if sum(w) == sum(k)]
            for w in weights + [(sum(k) + 1,) + (0,) * (r - 1)]:
                block = weight_basis(r, n, k, row_sums=w)
                assert block == [m for m in full if m.row_sums() == tuple(w)]


class TestArrayEnumeration:
    # empty columns, r = 1, n = 1, no rows or columns, row sums of the
    # wrong length or total, negative sums, weight blocks of (4,4,(2,2,2,2))
    # and (3,4,(2,1,1,2)), and entries above 2^31
    CORPUS = [
        (2, 3, (1, 1, 1), None),
        (3, 3, (2, 0, 3), None),
        (2, 2, (0, 0), None),
        (3, 3, (2, 2, 2), None),
        (1, 3, (2, 0, 1), None),
        (1, 2, (2, 1), (3,)),
        (3, 1, (4,), None),
        (3, 1, (4,), (2, 0, 2)),
        (2, 0, (), None),
        (0, 2, (0, 0), None),
        (0, 2, (1, 0), None),
        (2, 3, (1, 1, 1), (1, 1, 1)),
        (2, 3, (1, 1, 1), (2, 0)),
        (2, 2, (1, 1), (3, -1)),
        (2, 2, (-1, 1), None),
        (4, 4, (2, 2, 2, 2), (2, 2, 2, 2)),
        (4, 4, (2, 2, 2, 2), (3, 2, 2, 1)),
        (4, 4, (2, 2, 2, 2), (8, 0, 0, 0)),
        (3, 4, (2, 1, 1, 2), (2, 2, 2)),
        (2, 2, (2 ** 40, 1), (2 ** 40, 1)),
        (1, 3, (2 ** 33, 5, 0), None),
        (2, 1, (2 ** 31 + 2,), (2 ** 31, 2)),
    ]

    @pytest.mark.parametrize("r, n, col_sums, row_sums", CORPUS)
    def test_equals_the_recursion(self, r, n, col_sums, row_sums):
        block = weight_basis(r, n, col_sums, row_sums)
        want = _recursive_basis(r, n, col_sums, row_sums)
        assert list(block) == want
        assert all(type(x) is int for m in block for row in m.entries for x in row)
        assert [hash(m) for m in block] == [hash(m) for m in want]
        oracle = MonomialBlock(want)
        assert block.entry_array.dtype == oracle.entry_array.dtype == np.int64
        assert block.entry_array.shape == oracle.entry_array.shape
        assert np.array_equal(block.entry_array, oracle.entry_array)
        assert block._numbers is None  # built on first use
        assert block.numbers == {m: i for i, m in enumerate(want)} == oracle.numbers

    @pytest.mark.parametrize("r, n, col_sums", [
        (2, 3, (1, 1, 1)), (3, 3, (2, 0, 3)), (2, 2, (25, 24)), (1, 2, (3, 0))])
    def test_norms_are_the_factorial_products(self, r, n, col_sums):
        block = weight_basis(r, n, col_sums)
        norms = [sqnorm(m) for m in block]
        assert block.sqnorms == norms and all(type(x) is int for x in block.sqnorms)
        floats = np.array([float(x) for x in norms])
        assert block.float_sqnorms.tobytes() == floats.tobytes()
        assert MonomialBlock(list(block)).float_sqnorms.tobytes() == floats.tobytes()

    def test_norms_above_2_53_round_once(self):
        # products of factorials that a float does not hold exactly
        norms = weight_basis(2, 2, (25, 24)).sqnorms
        assert sum(float(x) != x for x in norms) > 100
        assert max(norms) == math.factorial(25) * math.factorial(24)

    @pytest.mark.parametrize("col_sums", [(171, 0), (100, 100)])
    def test_norm_beyond_float_range_raises(self, col_sums):
        block = weight_basis(1, 2, col_sums)
        assert block.sqnorms == [sqnorm(block[0])]
        with pytest.raises(OverflowError):
            block.float_sqnorms
        with pytest.raises(OverflowError):
            dense(op_E(1, 1, 1), block)

    @pytest.mark.parametrize("col_sums, row_sums", [((1.5, 1), None), ((2, 1), (1.5, 1.5))])
    def test_non_integer_sums_raise(self, col_sums, row_sums):
        for enumerate_block in (weight_basis, _recursive_basis):
            with pytest.raises(TypeError):
                enumerate_block(2, 2, col_sums, row_sums)

    @pytest.mark.parametrize("r, col_sums, row_sums", [
        (1, (2 ** 63,), None), (2, (2 ** 62, 0), None), (2, (2 ** 62,), (2 ** 62, 0))])
    def test_sums_beyond_int64_raise(self, r, col_sums, row_sums):
        with pytest.raises(OverflowError):
            weight_basis(r, len(col_sums), col_sums, row_sums)


class TestBasisBlock:
    @pytest.mark.parametrize("r, n, k", [(2, 3, (1, 1, 1)), (3, 2, (2, 1)), (1, 2, (0, 2))])
    def test_weight_basis_is_the_sorted_block(self, r, n, k):
        # every r x n matrix with entries up to the total, filtered and sorted
        expected = sorted(
            (m for m in (NatMatrix([flat[i * n:(i + 1) * n] for i in range(r)], r, n)
                         for flat in itertools.product(range(sum(k) + 1), repeat=r * n))
             if m.col_sums() == k),
            key=lambda m: m.entries)
        block = weight_basis(r, n, k)
        assert isinstance(block, MonomialBlock)
        assert len(block) == block.dim == len(expected)
        assert block == expected and expected == block
        assert block == tuple(expected) and block != expected[1:]
        assert list(block) == expected
        assert [block[i] for i in range(len(block))] == expected
        assert block[-1] == expected[-1]
        assert block[1:3] == expected[1:3] and isinstance(block[1:3], list)

    def test_mismatched_row_sums_give_empty_block(self):
        for row_sums in ((2, 0), (1, 1, 1), (3,)):
            block = weight_basis(2, 3, (1, 1, 1), row_sums=row_sums)
            assert isinstance(block, MonomialBlock)
            assert len(block) == 0 and block == [] and list(block) == []

    def test_huge_entries_build_at_once(self):
        # the factorial norms of these monomials are computed only when a
        # matrix or check needs them
        block = MonomialBlock([NatMatrix([[2 ** 60 - x, x]]) for x in range(3)])
        assert len(block) == 3
        assert block[2] == NatMatrix([[2 ** 60 - 2, 2]])

    def test_block_is_not_hashable(self):
        with pytest.raises(TypeError):
            hash(weight_basis(2, 2, (1, 1)))

    def test_two_calls_give_separate_tables(self):
        a, b = weight_basis(2, 3, (1, 1, 1)), weight_basis(2, 3, (1, 1, 1))
        assert a == b and a is not b
        assert commute_on(nabla(1, Z, Q, 3), nabla(2, Z, Q, 3), a)
        assert a.tables and not b.tables


class TestOperatorAlgebra:
    def test_elementary_action(self):
        m = NatMatrix([[1, 0], [0, 1]])
        img = op_E(1, 2, 2).apply_monomial(m)
        assert img == {NatMatrix([[1, 1], [0, 0]]): 1}
        assert op_E(2, 1, 2).apply_monomial(m) == {}

    def test_diagonal_action(self):
        m = NatMatrix([[1, 2], [0, 1]])
        img = op_E(1, 1, 2).apply_monomial(m)
        assert img == {m: 2}

    def test_dual_elementary_action(self):
        m = NatMatrix([[1, 0], [0, 1]])
        img = dual_op_E(1, 2, 2).apply_monomial(m)
        assert img == {NatMatrix([[1, 0], [1, 0]]): 1}

    def test_linear_combination(self):
        m = NatMatrix([[1], [1]])
        op = op_E(1, 2, 1) * 2 - op_E(2, 1, 1) / 3
        img = op.apply_monomial(m)
        assert img == {
            NatMatrix([[2], [0]]): Fraction(2),
            NatMatrix([[0], [2]]): Fraction(-1, 3),
        }

    def test_composition_order(self):
        # (E_12 E_21) x_11 = x_11 on a single 2x1 column
        m = NatMatrix([[1], [0]])
        op = op_E(1, 2, 1) * op_E(2, 1, 1)
        assert op.apply_monomial(m) == {m: 1}
        assert (op_E(2, 1, 1) * op_E(1, 2, 1)).apply_monomial(m) == {}

    def test_gl2_commutation_relation(self):
        # [E_12, E_21] = E_11 - E_22 in each tensor factor
        lhs = op_E(1, 2, 1).commutator(op_E(2, 1, 1))
        rhs = op_E(1, 1, 1) - op_E(2, 2, 1)
        zero = exact_matrix(lhs - rhs, weight_basis(2, 1, (2,)))
        assert len(zero) == 3
        assert not any(c for col in zero.values() for c in col.values())

    def test_exact_matrix_leaves_span(self):
        block = weight_basis(2, 2, (1, 1), row_sums=(2, 0))
        with pytest.raises(ValueError):
            exact_matrix(delta_n(2, 1, 2), block)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_kappa_and_omega_are_their_products(self, n):
        # the written-out words of kappa_ij and Omega_ab are those of the
        # operator products, in the same order and with equal Fractions;
        # kappa_ii's two products coincide, at 4
        for i, j in itertools.product(range(1, 4), repeat=2):
            x, y = delta_n(i, j, n), delta_n(j, i, n)
            expected = (x * y + y * x).scale(2)
            assert list(kappa(i, j, n).terms.items()) == list(expected.terms.items())
            assert all(type(c) is Fraction for c in kappa(i, j, n).terms.values())
            exchange = _summed(op_E(a, b, i) * op_E(b, a, j)
                               for a in range(1, n + 1) for b in range(1, n + 1))
            assert list(omega(i, j, n).terms.items()) == list(exchange.terms.items())
            assert all(type(c) is Fraction for c in omega(i, j, n).terms.values())
        assert set(kappa(2, 2, n).terms.values()) == {Fraction(4)}


class TestCommutingFamilies:
    def test_dynamical_family_commutes(self):
        ops = [nabla(i, Z, Q, 3) for i in (1, 2)]
        assert commute_on(ops[0], ops[1], BASIS)

    def test_dynamical_and_exchange_commute(self):
        nab = [nabla(i, Z, Q, 3) for i in (1, 2)]
        ham = [gaudin_h(a, Z, Q, 2) for a in (1, 2, 3)]
        for x, y in itertools.product(nab, ham):
            assert commute_on(x, y, BASIS)
        for x, y in itertools.combinations(ham, 2):
            assert commute_on(x, y, BASIS)

    def test_limit_family_commutes(self):
        nab0 = [nabla(i, (0, 0, 0), Q, 3) for i in (1, 2)]
        jms = [jm(a, 2) for a in (1, 2, 3)]
        for x, y in itertools.product(nab0, jms):
            assert commute_on(x, y, BASIS)
        for x, y in itertools.combinations(jms, 2):
            assert commute_on(x, y, BASIS)
        # independent of the diagonal parameter
        nab0b = [nabla(i, (0, 0, 0), (Fraction(7), Fraction(2)), 3) for i in (1, 2)]
        for x, y in itertools.product(nab0b, jms + nab0):
            assert commute_on(x, y, BASIS)

    def test_two_diagonal_actions_commute(self):
        for i, j, a, b in itertools.product((1, 2), (1, 2), (1, 2, 3), (1, 2, 3)):
            assert commute_on(delta_n(i, j, 3), delta_r(a, b, 2), BASIS)

    def test_dual_family_commutes(self):
        dnab = [dual_nabla(a, (0, 0), Z, 2) for a in (1, 2, 3)]
        nab0 = [nabla(i, (0, 0, 0), Q, 3) for i in (1, 2)]
        ham0 = [gaudin_h(a, Z, (0, 0), 2) for a in (1, 2, 3)]
        for x, y in itertools.combinations(dnab, 2):
            assert commute_on(x, y, BASIS)
        for x, y in itertools.product(dnab, nab0 + ham0):
            assert commute_on(x, y, BASIS)

    def test_weight_ops_are_central_for_the_families(self):
        ws = [weight_op(i, 3) for i in (1, 2)]
        others = (
            [nabla(i, Z, Q, 3) for i in (1, 2)]
            + [gaudin_h(a, Z, Q, 2) for a in (1, 2, 3)]
            + [jm(a, 2) for a in (1, 2, 3)]
        )
        for w, x in itertools.product(ws, others):
            assert commute_on(w, x, BASIS)


class TestAdjointness:
    def test_families_self_adjoint(self):
        ops = (
            [nabla(i, Z, Q, 3) for i in (1, 2)]
            + [gaudin_h(a, Z, Q, 2) for a in (1, 2, 3)]
            + [jm(a, 2) for a in (1, 2, 3)]
            + [weight_op(i, 3) for i in (1, 2)]
            + [nested_casimir(i, 3) for i in (1, 2)]
            + [dual_nested_casimir(a, 2) for a in (1, 2, 3)]
            + [dual_nabla(a, (0, 0), Z, 2) for a in (1, 2, 3)]
        )
        for op in ops:
            assert is_adjoint_pair(op, op, BASIS)

    def test_dense_symmetric(self):
        for op in [nabla(1, Z, Q, 3), gaudin_h(2, Z, Q, 2), jm(3, 2)]:
            mat = dense(op, BASIS)
            assert np.allclose(mat, mat.T)

    def test_raw_matrix_matches_exact(self):
        op = nabla(1, Z, Q, 3)
        cols = exact_matrix(op, BASIS)
        mat = dense(op, BASIS, orthonormal=False)
        for src, col in cols.items():
            for dst, coeff in col.items():
                assert mat[dst, src] == pytest.approx(float(coeff))


class TestCasimirs:
    def test_eigenvalue_formula_single_row(self):
        for m in (1, 2, 3):
            block = weight_basis(2, 1, (m,), row_sums=(m, 0))
            img = nested_casimir(2, 1).apply_monomial(block[0])
            assert img[block[0]] == casimir_eigenvalue([m], 2)

    def test_eigenvalue_formula_spectrum(self):
        # column sums (1,1,1) for gl_2: shapes (3) and (2,1) appear
        mat = dense(nested_casimir(2, 3), BASIS)
        eig = sorted(np.linalg.eigvalsh(mat))
        expected = sorted(
            [casimir_eigenvalue([3], 2)] * 4 + [casimir_eigenvalue([2, 1], 2)] * 4
        )
        assert np.allclose(eig, expected)

    def test_dual_eigenvalue_formula_spectrum(self):
        mat = dense(dual_nested_casimir(3, 2), BASIS)
        eig = sorted(np.linalg.eigvalsh(mat))
        expected = sorted(
            [casimir_eigenvalue([3], 3)] * 4 + [casimir_eigenvalue([2, 1], 3)] * 4
        )
        assert np.allclose(eig, expected)

    def test_first_order_counts_boxes(self):
        block = weight_basis(2, 2, (2, 1), row_sums=(2, 1))
        op = nested_casimir(2, 2, order=1)
        for m in block:
            assert op.apply_monomial(m) == {m: 3}

    def test_rejects_higher_order(self):
        with pytest.raises(ValueError):
            nested_casimir(2, 2, order=3)

    @pytest.mark.parametrize("order", [0, 3, -1])
    def test_eigenvalue_rejects_unsupported_order(self, order):
        with pytest.raises(ValueError):
            casimir_eigenvalue([2, 1], 2, order=order)


class TestBlockIdentities:
    """The identities through which the flow reads the weights, J_a, dual
    kappa and both corner Casimirs off the parts E_ii^(a), kappa_ij,
    Omega_ab and the identity, checked on exact matrices."""

    # (r, n, column sums, row sums): r = 1 to 4, zero column sums, the S_4
    # block and a restricted weight
    BLOCKS = [
        (1, 3, (2, 1, 1), None),
        (1, 2, (3, 0), None),
        (2, 3, (1, 1, 1), None),
        (2, 4, (2, 1, 1, 2), None),
        (2, 2, (4, 3), None),
        (2, 3, (0, 0, 0), None),
        (3, 3, (1, 1, 1), None),
        (3, 2, (2, 2), None),
        (3, 3, (0, 2, 0), None),
        (3, 3, (2, 1, 1), (2, 1, 1)),
        (3, 3, (2, 2, 2), None),
        (3, 4, (1, 1, 1, 1), None),
        (4, 3, (2, 1, 1), None),
        (4, 4, (1, 1, 1, 1), (1, 1, 1, 1)),
    ]

    @staticmethod
    def same(lhs, rhs, block):
        assert exact_matrix(lhs, block) == exact_matrix(rhs, block)

    @pytest.mark.parametrize("r, n, k, w", BLOCKS)
    def test_weights_and_corner_casimirs(self, r, n, k, w):
        # W_i = sum_a E_ii^(a) and
        # C_i = sum_{a<=i} W_a^2 + 1/2 sum_{a<b<=i} kappa_ab
        block = weight_basis(r, n, k, w)
        assert len(block)
        for i in range(1, r + 1):
            self.same(weight_op(i, n), _summed(op_E(i, i, a) for a in range(1, n + 1)), block)
            squares = _summed(weight_op(a, n) * weight_op(a, n) for a in range(1, i + 1))
            kappas = _summed(kappa(a, b, n) for b in range(2, i + 1) for a in range(1, b))
            self.same(nested_casimir(i, n), squares + kappas / 2, block)

    @pytest.mark.parametrize("r, n, k, w", BLOCKS)
    def test_dual_kappa_and_dual_corner_casimirs(self, r, n, k, w):
        # dual kappa_ab = 4 Omega_ab + 2 (c_a + c_b) and
        # C'_a = sum_{b<=a} c_b^2 + sum_{b<d<=a} (2 Omega_bd + c_b + c_d)
        block = weight_basis(r, n, k, w)
        one = identity()
        for b in range(2, n + 1):
            for a in range(1, b):
                self.same(dual_kappa(a, b, r),
                          4 * omega(a, b, r) + (2 * (k[a - 1] + k[b - 1])) * one, block)
        for a in range(1, n + 1):
            rhs = _summed([sum(c * c for c in k[:a]) * one]
                          + [2 * omega(b, d, r) + (k[b - 1] + k[d - 1]) * one
                             for d in range(2, a + 1) for b in range(1, d)])
            self.same(dual_nested_casimir(a, r), rhs, block)

    @pytest.mark.parametrize("r, n, k, w", BLOCKS)
    def test_limit_and_dual_terms(self, r, n, k, w):
        # the families of the mirrored n x r side, mapped to this block's
        # parts, against the gl_n operators built from its own words: its
        # dynamical operators are the dual ones, and its Gaudin operators
        # H'_i = sum_a q'_a E'^(i)_aa + sum_{j != i} 4 Omega'_ij / (z'_i - z'_j),
        # with E'^(i)_ab the gl_n generator E_ab in row i and
        # Omega'_ij = sum_ab E'^(i)_ab E'^(j)_ba
        block = weight_basis(r, n, k, w)
        z = tuple(Fraction(x, 3) for x in (2, 5, 7, 11)[:n])
        dq = tuple(Fraction(x, 2) for x in (3, -1, 4, 1)[:r])
        for a in range(1, n + 1):
            self.same(_terms_sum(mirrored_terms(nabla_terms(a, dq, z, r), r, n, k)),
                      dual_nabla(a, dq, z, r), block)
        for i in range(1, r + 1):
            exchange = [_summed(dual_op_E(a, b, i) * dual_op_E(b, a, j)
                                for a in range(1, n + 1) for b in range(1, n + 1))
                        .scale(4 / (dq[i - 1] - dq[j - 1]))
                        for j in range(1, r + 1) if j != i]
            mirrored_gaudin = _summed([dual_op_E(a, a, i).scale(z[a - 1])
                                       for a in range(1, n + 1)] + exchange)
            self.same(_terms_sum(mirrored_terms(gaudin_terms(i, dq, z, n), r, n, k)),
                      mirrored_gaudin, block)


def _random_operator(rng, r, n, terms=6):
    """Seeded operator whose words keep row and column sums: each word is a
    shuffled product of opposite E moves, opposite D moves and diagonal
    generators, so its intermediate images leave the weight block."""
    out = Operator()
    for _ in range(terms):
        word = []
        for _ in range(rng.randint(1, 2)):
            i, j = rng.randint(1, r), rng.randint(1, r)
            a, b = rng.randint(1, n), rng.randint(1, n)
            word += rng.choice([
                [("E", i, j, a), ("E", j, i, b)],
                [("D", a, b, i), ("D", b, a, j)],
                [("E", i, i, a)],
                [("D", a, a, i)],
            ])
        rng.shuffle(word)
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        out = out + Operator({tuple(word): coeff})
    return out


def _word_by_word_columns(op, basis):
    index = {m: i for i, m in enumerate(basis)}
    return {src: {index[image]: coeff for image, coeff in op.apply_monomial(m).items()}
            for src, m in enumerate(basis)}


def _fraction_walk(op, matrix):
    """Operator.apply_monomial as a walk in Fractions: every image carries
    its coefficient through each generator, and sums that cancel are
    removed as they occur."""
    out = {}
    for factors, coeff in op.terms.items():
        current = {matrix: coeff}
        for kind, i, j, a in reversed(factors):
            step = {}
            for m, c in current.items():
                rows = m.to_lists()
                # gl_r: row j -> row i in column a; gl_n: column j -> column i in row a
                src, dst = ((j - 1, a - 1), (i - 1, a - 1)) if kind == "E" else (
                    (a - 1, j - 1), (a - 1, i - 1))
                count = rows[src[0]][src[1]]
                if count == 0:
                    continue
                rows[src[0]][src[1]] -= 1
                rows[dst[0]][dst[1]] += 1
                moved = NatMatrix(rows, m.r, m.n)
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


def _random_generator(rng, r, n):
    i, j = rng.randint(1, r), rng.randint(1, r)
    a, b = rng.randint(1, n), rng.randint(1, n)
    return rng.choice([("E", i, j, a), ("D", a, b, i)])


class TestApplyMonomial:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_fraction_walk(self, seed):
        # seeded words of up to four generators with rational coefficients,
        # some beyond int64, on seeded monomials
        rng = random.Random(seed)
        for _ in range(20):
            r, n = rng.randint(1, 3), rng.randint(1, 3)
            terms = {}
            for _ in range(rng.randint(1, 6)):
                word = tuple(_random_generator(rng, r, n) for _ in range(rng.randint(0, 4)))
                big = rng.choice([1, 2**70, 3**50])
                terms[word] = Fraction(rng.randint(-9, 9) * big, rng.randint(1, 6) * big // 3 + 1)
            op = Operator(terms)
            m = NatMatrix([[rng.randint(0, 3) for _ in range(n)] for _ in range(r)])
            image = op.apply_monomial(m)
            assert image == _fraction_walk(op, m)
            assert all(isinstance(c, Fraction) and c for c in image.values())

    @pytest.mark.parametrize("seed", range(4))
    def test_cancelling_terms_leave_no_entry(self, seed):
        # moves in different columns commute: the two orders of a pair of
        # moves, with opposite coefficients, give images that cancel
        rng = random.Random(seed)
        m = NatMatrix([[2, 1, 3], [1, 2, 0]])
        huge = Fraction(2**80 + 1, 3**41)
        for _ in range(10):
            x, y = ("E", 1, 2, 1), ("E", 2, 1, rng.randint(2, 3))
            extra = _random_generator(rng, 2, 3)
            op = Operator({(x, y): huge, (y, x): -huge, (extra,): Fraction(5, 7)})
            image = op.apply_monomial(m)
            assert image == _fraction_walk(op, m)
            assert Operator({(x, y): huge, (y, x): -huge}).apply_monomial(m) == {}
            assert all(image.values())


class TestSharedTables:
    def test_repeated_check_fills_nothing(self, monkeypatch):
        calls = []
        original = Operator.apply_monomial

        def counting(self, matrix):
            calls.append(matrix)
            return original(self, matrix)

        monkeypatch.setattr(Operator, "apply_monomial", counting)
        block = weight_basis(2, 3, (1, 1, 1))
        x, y = nabla(1, Z, Q, 3), nabla(2, Z, Q, 3)
        assert commute_on(x, y, block)
        first = len(calls)
        assert first > 0
        assert commute_on(x, y, block)
        assert len(calls) == first
        # a list gets a fresh block, so every entry is filled again
        assert commute_on(x, y, list(block))
        assert len(calls) == 2 * first

    def test_checks_on_a_block_with_outside_monomials(self):
        block = weight_basis(2, 3, (1, 1, 1))
        # the dual moves leave the column sums on the way and come back
        assert commute_on(dual_op_E(1, 2, 1), dual_op_E(2, 1, 2), block)
        assert len(block.monomials) > block.dim
        with pytest.raises(ValueError, match="operator image leaves the basis span"):
            exact_matrix(dual_op_E(1, 2, 1), block)
        assert not commute_on(dual_op_E(1, 2, 1), dual_op_E(2, 1, 1), block)
        assert not commute_on(nabla(1, Z, Q, 3), gaudin_h(1, Z, (Q[1], Q[0]), 2), block)
        x = dual_op_E(1, 2, 1) * dual_op_E(2, 1, 2)
        x_adj = dual_op_E(1, 2, 2) * dual_op_E(2, 1, 1)
        assert is_adjoint_pair(x, x_adj, block)
        assert not is_adjoint_pair(x, x, block)
        assert not is_adjoint_pair(op_E(1, 2, 1), op_E(2, 1, 2), block)
        assert not is_adjoint_pair(op_E(1, 2, 1), op_E(1, 2, 1), block)


class TestGeneratorTables:
    BLOCKS = (
        weight_basis(2, 3, (1, 1, 1), row_sums=(2, 1)),
        weight_basis(3, 2, (2, 2), row_sums=(2, 1, 1)),
        weight_basis(2, 4, (2, 1, 1, 2), row_sums=(3, 3)),
        weight_basis(3, 3, (2, 1, 2), row_sums=(2, 2, 1)),
    )

    def test_exact_matrix_matches_word_by_word(self):
        rng = random.Random(0)
        for basis in self.BLOCKS:
            r, n = basis[0].r, basis[0].n
            for _ in range(5):
                op = _random_operator(rng, r, n)
                assert exact_matrix(op, basis) == _word_by_word_columns(op, basis)

    def test_commute_on_detects_noncommuting_pairs(self):
        # E_21^(1) moves a box out of the (1, 1) row-sum block
        block = weight_basis(2, 2, (1, 1), row_sums=(1, 1))
        assert not commute_on(op_E(1, 2, 1), op_E(2, 1, 1), block)
        assert commute_on(op_E(1, 2, 1), op_E(2, 1, 2), block)
        # the dual generators move boxes out of a column-sum block
        assert not commute_on(dual_op_E(1, 2, 1), dual_op_E(2, 1, 1), BASIS)
        assert commute_on(dual_op_E(1, 2, 1), dual_op_E(2, 1, 2), BASIS)
        assert not commute_on(nabla(1, Z, Q, 3), gaudin_h(1, Z, (Q[1], Q[0]), 2), BASIS)

    def test_adjointness_detects_wrong_pairs(self):
        assert is_adjoint_pair(op_E(1, 2, 1), op_E(2, 1, 1), BASIS)
        assert not is_adjoint_pair(op_E(1, 2, 1), op_E(2, 1, 2), BASIS)
        assert not is_adjoint_pair(op_E(1, 2, 1), op_E(1, 2, 1), BASIS)
        # dual moves that keep the column sums: row 1 gives, row 2 takes back
        x = dual_op_E(1, 2, 1) * dual_op_E(2, 1, 2)
        x_adj = dual_op_E(1, 2, 2) * dual_op_E(2, 1, 1)
        assert is_adjoint_pair(x, x_adj, BASIS)
        assert not is_adjoint_pair(x, x, BASIS)
        y = x + x_adj
        assert is_adjoint_pair(y, y, BASIS)
        assert not is_adjoint_pair(op_E(1, 2, 1), op_E(1, 2, 1), BASIS)
        assert not is_adjoint_pair(x, x, BASIS)

    def test_coefficients_beyond_int64(self):
        tiny = Fraction(1, 10**30)
        q = (Fraction(1), 1 + tiny, 1 + 3 * tiny)
        assert float(q[0]) == float(q[1]) == float(q[2])
        z = (Fraction(3), Fraction(1))
        basis = weight_basis(3, 2, (2, 1))
        nabs = [nabla(i, z, q, 2) for i in (1, 2, 3)]
        assert max(abs(c.numerator) for c in nabs[0].terms.values()) > 2**63
        for x, y in itertools.combinations(nabs, 2):
            assert commute_on(x, y, basis)
        perturbed = nabla(1, z, (q[0], q[1], q[2] + tiny), 2)
        assert not commute_on(perturbed, nabs[1], basis)
        assert is_adjoint_pair(nabs[0], nabs[0], basis)
        skewed = nabs[0] + op_E(1, 2, 1) * tiny
        assert not is_adjoint_pair(skewed, skewed, basis)

    @pytest.mark.parametrize("op", [op_E(0, 1, 1), op_E(3, 1, 1), dual_op_E(1, 1, 0)],
                             ids=["E(0,1,1)", "E(3,1,1)", "D(1,1,0)"])
    @pytest.mark.parametrize("check", [
        lambda op, block: exact_matrix(op, block),
        lambda op, block: commute_on(op, op_E(1, 1, 1), block),
        lambda op, block: is_adjoint_pair(op, op, block),
    ], ids=["exact_matrix", "commute_on", "is_adjoint_pair"])
    def test_generator_out_of_range(self, check, op):
        # index 0 would wrap to the last row through negative indexing
        with pytest.raises(IndexError, match="out of range"):
            check(op, weight_basis(2, 2, (1, 1)))


def _dense_oracle(op, basis, orthonormal):
    """dense as float conversions of exact_matrix: float(Fraction) times the
    float square root of the squared-norm ratio."""
    norms = [float(sqnorm(m)) for m in basis]
    mat = np.zeros((len(basis), len(basis)))
    for src, col in exact_matrix(op, basis).items():
        for dst, coeff in col.items():
            val = float(coeff)
            if orthonormal:
                val *= math.sqrt(norms[dst] / norms[src])
            mat[dst, src] = val
    return mat


def _leg_parts(ctx):
    """Every part the leg table of a FlowContext sums, the snapping
    diagonals, and the composites the flow reads through them: the weights,
    J_a, dual kappa_ab and the corner Casimirs of both decoders. Returns
    (the parts, the builders of the leg table's parts)."""
    parts = set()
    for leg in ctx.legs():
        for t in (leg.grid[0], leg.grid[-1]):
            parts.update(part for terms in leg.family(t) for _, part in terms)
    builders = {part[0] for part in parts}
    r, n = ctx.r, ctx.n
    parts.update((weight_op, i, n) for i in range(1, r + 1))
    parts.update((jm, a, r) for a in range(2, n + 1))
    parts.update((dual_kappa, a, b, r) for b in range(2, n + 1) for a in range(1, b))
    parts.update((nested_casimir, i, n) for i in range(1, r + 1))
    parts.update((dual_nested_casimir, a, r) for a in range(1, n + 1))
    parts.update((op_E, i, i, a) for i in range(1, r + 1) for a in range(1, n + 1))
    return sorted(parts, key=lambda part: (part[0].__name__,) + part[1:]), builders


class TestDenseWalk:
    @pytest.mark.parametrize("r, n, k, w", [
        (2, 4, (2, 1, 1, 2), None),
        (3, 3, (2, 2, 2), None),
        # the S_4 block: row sums fixed, so intermediate images leave it
        (4, 4, (1, 1, 1, 1), (1, 1, 1, 1)),
    ])
    def test_leg_table_parts_match_exact(self, r, n, k, w):
        ctx = FlowContext(r, n, k, w)
        block = ctx.cache.block
        parts, builders = _leg_parts(ctx)
        assert builders == {op_E, kappa, omega, identity}
        assert {part[0] for part in parts} >= {op_E, kappa, omega, identity, jm, weight_op,
                                               dual_kappa, nested_casimir, dual_nested_casimir}
        mats = {part: [dense(part_operator(part), block, orth) for orth in (True, False)]
                for part in parts}
        # the walk fills no generator table
        assert block.tables == {}
        for part, (orth, raw) in mats.items():
            op = part_operator(part)
            assert np.array_equal(orth, _dense_oracle(op, block, True)), part
            assert np.array_equal(raw, _dense_oracle(op, block, False)), part

    def test_apply_monomial_is_not_called(self, monkeypatch):
        def fail(self, matrix):
            raise AssertionError("dense applied an operator monomial by monomial")

        monkeypatch.setattr(Operator, "apply_monomial", fail)
        block = weight_basis(3, 3, (2, 1, 1))
        for op in (nabla(1, Z, (3, 1, 2), 3), kappa(1, 3, 3), dual_nested_casimir(3, 3)):
            assert dense(op, block).any()

    @pytest.mark.parametrize("orthonormal", [True, False])
    def test_fraction_coefficients(self, orthonormal):
        z = (Fraction(7, 3), Fraction(-2, 5), Fraction(1, 9))
        q = (Fraction(3, 7), Fraction(-11, 4))
        ops = ([nabla(i, z, q, 3) for i in (1, 2)]
               + [gaudin_h(a, z, q, 2) for a in (1, 2, 3)]
               + [dual_nabla(a, q, z, 2) for a in (1, 2, 3)])
        for op in ops:
            assert any(c.denominator > 1 for c in op.terms.values())
            for basis in (BASIS, weight_basis(2, 3, (2, 0, 1)), list(BASIS)):
                assert np.array_equal(dense(op, basis, orthonormal),
                                      _dense_oracle(op, basis, orthonormal))

    def test_random_operators_on_weight_blocks(self):
        rng = random.Random(1)
        for basis in TestGeneratorTables.BLOCKS:
            r, n = basis[0].r, basis[0].n
            for _ in range(5):
                op = _random_operator(rng, r, n)
                for orth in (True, False):
                    assert np.array_equal(dense(op, basis, orth),
                                          _dense_oracle(op, basis, orth))
                # the walk's integers are the exact columns' integers
                den, dst, src, coeffs = basis.walk(op)
                exact_den, cols = basis.columns(op)
                assert den == exact_den
                assert list(zip(src.tolist(), dst.tolist(), coeffs.tolist())) == [
                    (s, d, col[d]) for s, col in enumerate(cols) for d in sorted(col)]

    def test_coefficients_beyond_2_53_take_python_ints(self):
        tiny = Fraction(1, 10**30)
        q = (Fraction(1), 1 + tiny, 1 + 3 * tiny)
        basis = weight_basis(3, 2, (2, 1))
        op = nabla(1, (Fraction(3), Fraction(1)), q, 2)
        assert max(abs(c.numerator) for c in op.terms.values()) > 2**53
        assert basis.walk(op)[3].dtype == object
        small = nabla(1, (Fraction(3), Fraction(1)), (1, 2, 4), 2)
        assert basis.walk(small)[3].dtype == np.int64
        for orth in (True, False):
            assert np.array_equal(dense(op, basis, orth), _dense_oracle(op, basis, orth))

    def test_radix_beyond_int64(self):
        # 66 cells of at most one box: the radix key takes Python ints
        block = weight_basis(33, 2, (1, 1))
        assert block._radix[2].dtype == object
        for op in (kappa(1, 33, 2), delta_n(2, 9, 2), op_E(3, 3, 1)):
            assert block.walk(op)[3].dtype == np.int64
            for orth in (True, False):
                assert np.array_equal(dense(op, block, orth), _dense_oracle(op, block, orth))

    def test_leaving_the_span_raises_as_exact_matrix(self):
        rng = random.Random(2)
        # in the last case (1, 1) -> (0, 2), whose entry 2 is above the
        # largest in its cell, so that its radix key, read without that
        # bound, would be (1, 0)'s
        cases = [(dual_op_E(1, 2, 1), BASIS),
                 (op_E(1, 2, 1) + op_E(2, 1, 2), weight_basis(2, 3, (1, 1, 1), (2, 1))),
                 (dual_op_E(2, 1, 1) * dual_op_E(2, 2, 1),
                  [NatMatrix([[1, 0]]), NatMatrix([[1, 1]]), NatMatrix([[2, 0]])])]
        for basis in TestGeneratorTables.BLOCKS:
            r, n = basis[0].r, basis[0].n
            for _ in range(6):
                op = Operator({(_random_generator(rng, r, n), _random_generator(rng, r, n)):
                               Fraction(rng.randint(1, 9), rng.randint(1, 4))
                               for _ in range(4)})
                cases.append((op, basis))
        raised = 0
        for op, basis in cases:
            try:
                expected = _dense_oracle(op, basis, True)
            except ValueError as err:
                raised += 1
                assert "operator image leaves the basis span" in str(err)
                with pytest.raises(ValueError) as got:
                    dense(op, basis)
                assert str(got.value) == str(err)
            else:
                assert np.array_equal(dense(op, basis), expected)
        assert raised >= 10

    def test_cancelling_images_outside_the_span_do_not_raise(self):
        # two boxes moved up in columns 1 and 2, in either order: the image
        # leaves the (1, 2) weight block, and the two words cancel
        block = weight_basis(2, 3, (1, 1, 1), row_sums=(1, 2))
        x, y = op_E(1, 2, 1), op_E(1, 2, 2)
        op = (x * y - y * x) + op_E(1, 1, 3)
        assert len((x * y - y * x).terms) == 2
        assert exact_matrix(op, block) == _word_by_word_columns(op_E(1, 1, 3), block)
        assert np.array_equal(dense(op, block), dense(op_E(1, 1, 3), block))
        # the same words as separate terms that sum to zero on every image
        cancel = Operator({(("E", 1, 2, 1), ("E", 1, 2, 2)): 1,
                           (("E", 1, 2, 2), ("E", 1, 2, 1)): -1})
        assert len(cancel.terms) == 2
        assert not dense(cancel, block).any()
        assert all(len(x) == 0 for x in block.walk(cancel)[1:])
        # on the whole graded block the two images are inside and cancel there
        assert all(len(x) == 0 for x in BASIS.walk(cancel)[1:])
        with pytest.raises(ValueError, match="leaves the basis span"):
            dense(op_E(1, 2, 1) * op_E(1, 2, 2), block)

    def test_empty_operator_and_empty_block(self):
        assert np.array_equal(dense(Operator(), BASIS), np.zeros((BASIS.dim, BASIS.dim)))
        empty = weight_basis(2, 3, (1, 1, 1), row_sums=(2, 0))
        assert dense(nabla(1, Z, Q, 3), empty).shape == (0, 0)
        assert dense(Operator(), []).shape == (0, 0)
        assert empty.entry_array.shape == (0, 0)

    def test_entry_array(self):
        block = weight_basis(2, 2, (2, 1))
        assert block.entry_array.dtype == np.int64
        assert block.entry_array.tolist() == [
            [x for row in m.entries for x in row] for m in block]
        assert block.entry_array is block.entry_array

    def test_generator_out_of_range(self):
        with pytest.raises(IndexError, match="out of range"):
            dense(op_E(3, 1, 1), BASIS)
        with pytest.raises(IndexError, match="out of range"):
            dense(dual_op_E(1, 4, 1), BASIS)
