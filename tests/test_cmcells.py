import numpy as np
import pytest

from gaudinrsk.combinatorics import Permutation, all_permutations, rs_permutation
from gaudinrsk.cmcells import (
    CellPartition,
    cm_point,
    kl_reference_cells,
    left_cells,
    right_cells,
    two_sided_cells,
    upsilon,
    y_scaled,
)
from gaudinrsk import spectralflow
from gaudinrsk.spectralflow import FlowContext


class TestCMPoints:
    def test_rank_one_invariant(self):
        point = cm_point((1.0, 2.0, 4.0), (0.5, -1.0, 2.0))
        assert point.rank_defect() < 1e-8

    def test_rejects_colliding_positions(self):
        with pytest.raises(ValueError):
            cm_point((1.0, 1.0), (0.0, 0.0))

    def test_upsilon_n2(self):
        # z = (0, 0) forces Y eigenvalues p_avg +- i/(z gap); use distinct z
        point = cm_point((0.0, 1.0), (0.0, 0.0))
        z_eigs, y_eigs = upsilon(point)
        assert np.allclose(sorted(v.real for v in z_eigs), [0.0, 1.0])
        # Y = [[0, -1], [1, 0]] has spectrum {i, -i}
        assert np.allclose(sorted(v.imag for v in y_eigs), [-1.0, 1.0])
        assert np.allclose([v.real for v in y_eigs], [0.0, 0.0])

    def test_momentum_dominant_degeneration(self):
        z = (1.0, 2.0, 3.0)
        p = (5.0, 7.0, 11.0)
        point = y_scaled(z, p, 1e8)
        _, y_eigs = upsilon(point)
        assert np.allclose(sorted(v.real for v in y_eigs), sorted(p), atol=1e-6)
        assert max(abs(v.imag) for v in y_eigs) < 1e-6


class TestCellPartition:
    def test_rejects_non_partition(self):
        w = all_permutations(2)
        with pytest.raises(ValueError):
            CellPartition(2, "right", [[w[0]]])

    def test_canonical_order_and_eq(self):
        w = all_permutations(2)
        a = CellPartition(2, "right", [[w[1]], [w[0]]])
        b = CellPartition(2, "right", [[w[0]], [w[1]]])
        assert a == b

    def test_join(self):
        w = all_permutations(3)
        rows = CellPartition(3, "right", [[x] for x in w])
        full = CellPartition(3, "left", [list(w)])
        assert rows.join(full).block_sizes() == [6]

    def test_block_of(self):
        cells = kl_reference_cells(3, "two-sided")
        e = Permutation((1, 2, 3))
        assert cells.block_of(e) == [e]
        with pytest.raises(KeyError):
            kl_reference_cells(2, "right").block_of(Permutation((1, 2, 3)))


class TestKLReference:
    def test_counts(self):
        # cells counted by tableaux: right/left by SYT, two-sided by shapes
        assert len(kl_reference_cells(3, "right").blocks) == 4
        assert len(kl_reference_cells(3, "left").blocks) == 4
        assert len(kl_reference_cells(3, "two-sided").blocks) == 3
        assert len(kl_reference_cells(4, "right").blocks) == 10

    def test_two_sided_sizes(self):
        assert kl_reference_cells(3, "two-sided").block_sizes() == [1, 1, 4]
        assert kl_reference_cells(4, "two-sided").block_sizes() == [1, 1, 4, 9, 9]

    def test_left_right_related_by_inverse(self):
        right = kl_reference_cells(3, "right")
        left = kl_reference_cells(3, "left")
        inverted = CellPartition(
            3, "left", [[w.inverse() for w in block] for block in right.blocks]
        )
        assert inverted == left

    def test_right_blocks_share_insertion_tableau(self):
        for block in kl_reference_cells(3, "right").blocks:
            symbols = {rs_permutation(w)[0].rows for w in block}
            assert len(symbols) == 1

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            kl_reference_cells(3, "diagonal")


class TestFlowCells:
    def test_right_cells_n2(self):
        assert right_cells(2) == kl_reference_cells(2, "right")

    def test_right_cells_n3(self):
        assert right_cells(3) == kl_reference_cells(3, "right")

    def test_left_cells_n3(self):
        assert left_cells(3) == kl_reference_cells(3, "left")

    def test_two_sided_cells_n3(self):
        assert two_sided_cells(3) == kl_reference_cells(3, "two-sided")

    def test_two_sided_cells_run_leg_a_once(self, monkeypatch):
        # one flow transports legs A, B and D once each, and clusters legs B
        # and D
        runs, transported = [], []
        original, transport = FlowContext.run, spectralflow.transport

        def recording(self, names, trace=None):
            runs.append(names)
            return original(self, names, trace)

        def counting(*args, **kwargs):
            transported.append(kwargs["leg"])
            return transport(*args, **kwargs)

        monkeypatch.setattr(FlowContext, "run", recording)
        monkeypatch.setattr(spectralflow, "transport", counting)
        assert two_sided_cells(4) == kl_reference_cells(4, "two-sided")
        assert runs == ["ABD"]
        assert transported == ["A", "B", "D"]

    def test_leg_a_freezes_its_near_monomial_points(self, monkeypatch):
        # the eigh-solved matrices per leg on S_4 (dim 24, a whole leg per
        # eigh call): leg A keeps the monomial frame at its first 38 points,
        # where the frame is within eigh's backward error or certified
        # within the match threshold by Davis-Kahan, and solves the last
        # 10. Leg B starts from leg A's end frame, an eigenframe of the same
        # commuting family, so its start point keeps that frame; its second
        # point fails the test, which ends testing, and B solves the other 47
        solved = []
        real_eigh, real_transport = np.linalg.eigh, spectralflow.transport

        def counting(a, *args, **kwargs):
            solved[-1][1] += a.shape[0]
            return real_eigh(a, *args, **kwargs)

        def tracking(*args, leg="", **kwargs):
            solved.append([leg, 0])
            frame, diag = real_transport(*args, leg=leg, **kwargs)
            solved[-1] += [diag["frozen"], diag["solved"]]
            return frame, diag

        monkeypatch.setattr(np.linalg, "eigh", counting)
        monkeypatch.setattr(spectralflow, "transport", tracking)
        cells = right_cells(4)
        monkeypatch.undo()
        assert cells == kl_reference_cells(4, "right")
        # leg, eigh-solved matrices, frozen points, solved points
        assert solved == [["A", 10, 38, 10], ["B", 47, 1, 47]]

    @pytest.mark.parametrize("kind", ["right", "left"])
    @pytest.mark.parametrize("n", [4, 5])
    def test_cells_cut_with_a_wide_margin(self, monkeypatch, n, kind):
        # the records leg B (right) or leg D (left, leg B of the mirrored
        # side) hands to coalescence_classes on S_n, seed 0, under the
        # sup-norm distance of the pairwise reference: records of two
        # classes lie at least 1e7 times farther apart than any two of one
        # class, far past the GAP_SAFETY the clustering needs
        handed = []
        classes_of = spectralflow.coalescence_classes

        def capture(records, residuals):
            classes = classes_of(records, residuals)
            handed.append((np.asarray(records), classes))
            return classes

        monkeypatch.setattr(spectralflow, "coalescence_classes", capture)
        cells = {"right": right_cells, "left": left_cells}[kind]
        assert cells(n) == kl_reference_cells(n, kind)
        [(records, classes)] = handed
        dists = np.abs(records[:, None, :] - records[None, :, :]).max(axis=-1, initial=0.0)
        member = np.empty(len(records), dtype=int)
        for c, cls in enumerate(classes):
            member[cls] = c
        same = member[:, None] == member[None, :]
        intra = dists[same].max()
        inter = dists[~same].min()
        assert inter >= 1e7 * intra, (inter, intra)

    def test_custom_parameters(self):
        cells = right_cells(2, z=(1.0, 3.0), q=(2.0, 5.0))
        assert cells == kl_reference_cells(2, "right")
