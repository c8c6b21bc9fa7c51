"""Calogero-Moser phase-space points and cell partitions of the symmetric
group.

A pair of matrices (Z, Y) with [Z, Y] + Id of rank one represents a point
of the n-th Calogero-Moser space; sending the pair to its two eigenvalue
multisets is a ramified covering whose fiber over generic points has n!
sheets labelled by permutations. Transporting the sheets along paths that
shrink one parameter slot to zero makes sheets collide; the partition of
the labels by collision class reproduces the Robinson-Schensted cells
(right cells by insertion tableau, left cells by recording tableau).

The heavy lifting is done on the operator side: the weight-(1, ..., 1)
block of the degree-n piece for r = n is a copy of the group algebra of
S_n, the large-parameter labels are permutation matrices, and collision
classes are endpoint coalescence classes of the tracked eigenframe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combinatorics import (
    Permutation,
    all_permutations,
    rs_permutation,
)
from .spectralflow import FlowContext


@dataclass
class CMPoint:
    """A rank-one pair representing a Calogero-Moser space point."""

    Z: np.ndarray
    Y: np.ndarray

    def rank_defect(self):
        """Singular values of [Z, Y] + Id beyond the first (should vanish)."""
        comm = self.Z @ self.Y - self.Y @ self.Z + np.eye(len(self.Z))
        sv = np.linalg.svd(comm, compute_uv=False)
        return float(sv[1]) if len(sv) > 1 else 0.0


def cm_point(z, p, tol=1e-8):
    """The standard point with Z = diag(z) and Y with momentum diagonal."""
    z = np.asarray(z, dtype=float)
    p = np.asarray(p, dtype=float)
    n = len(z)
    if len(set(z.tolist())) != n:
        raise ValueError("z entries must be pairwise distinct")
    Y = np.diag(p).astype(float)
    for i in range(n):
        for j in range(n):
            if i != j:
                Y[i, j] = 1.0 / (z[i] - z[j])
    point = CMPoint(np.diag(z), Y)
    if point.rank_defect() > tol:
        raise ValueError(f"rank-one invariant violated: defect {point.rank_defect()}")
    return point


def y_scaled(z, p, s):
    """The momentum-dominant deformation: off-diagonal entries shrink as 1/s."""
    point = cm_point(z, p)
    Y = np.diag(np.diag(point.Y)) + (point.Y - np.diag(np.diag(point.Y))) / s
    return CMPoint(point.Z, Y)


def _sorted_eigs(mat):
    vals = np.linalg.eigvals(mat)
    return tuple(sorted(vals, key=lambda v: (round(v.real, 10), round(v.imag, 10))))


def upsilon(point):
    """The two unordered eigenvalue multisets of a point."""
    return _sorted_eigs(point.Z), _sorted_eigs(point.Y)


@dataclass
class CellPartition:
    n: int
    kind: str
    blocks: list

    def __post_init__(self):
        self.blocks = sorted(sorted(block) for block in self.blocks)
        flat = [w for block in self.blocks for w in block]
        if sorted(flat) != sorted(all_permutations(self.n)):
            raise ValueError(f"blocks do not partition the symmetric group S_{self.n}")

    def __eq__(self, other):
        return (
            isinstance(other, CellPartition)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def block_sizes(self):
        return sorted(len(block) for block in self.blocks)

    def block_of(self, w):
        for block in self.blocks:
            if w in block:
                return block
        raise KeyError(w)

    def join(self, other, kind="two-sided"):
        """Coarsest partition refined by both (transitive closure of unions)."""
        parent = {}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for block in self.blocks + other.blocks:
            for w in block:
                parent.setdefault(w, w)
            root = find(block[0])
            for w in block[1:]:
                parent[find(w)] = root
        groups = {}
        for w in parent:
            groups.setdefault(find(w), []).append(w)
        return CellPartition(self.n, kind, list(groups.values()))


def kl_reference_cells(n, kind):
    """Exact cells from tableau symbols: right by insertion tableau, left by
    recording tableau, two-sided by shape."""
    keys = {
        "right": lambda p, q: p.rows,
        "left": lambda p, q: q.rows,
        "two-sided": lambda p, q: p.shape.parts,
    }
    if kind not in keys:
        raise ValueError(f"unknown cell kind {kind!r}")
    groups = {}
    for w in all_permutations(n):
        p, q = rs_permutation(w)
        groups.setdefault(keys[kind](p, q), []).append(w)
    return CellPartition(n, kind, list(groups.values()))


def _label_to_permutation(label):
    """Permutation w from the monomial label with label[w(a), a] = 1."""
    n = label.n
    one_line = []
    for a in range(1, n + 1):
        col = label.column(a)
        one_line.append(1 + col.index(1))
    return Permutation(one_line)


def _cells(n, z, q, opts, kinds):
    """Partition S_n by coalescence of the S_n block's limit records, once
    per kind, as its leg ends: leg B, z colliding at zero on the schedule of
    the tableau check with q fixed (right cells), and leg D, q colliding at
    zero with z fixed (left); one flow runs leg A once and each leg needed."""
    legs = {"right": ("B", 0), "left": ("D", 1)}  # (leg, side) each kind clusters
    sides = dict(legs[kind] for kind in kinds)
    ctx = FlowContext(n, n, (1,) * n, (1,) * n, z, q, opts)
    classes = {name: ctx.classes(frame, sides[name])
               for name, frame, _ in ctx.run("A" + "".join(sides)) if name in sides}
    labels = [_label_to_permutation(label) for label in ctx.basis]
    return [CellPartition(n, kind, [[labels[i] for i in cls] for cls in classes[legs[kind][0]]])
            for kind in kinds]


def right_cells(n, z=None, q=None, opts=None):
    """Cells from the z-shrinking flow; blocks share the insertion tableau."""
    return _cells(n, z, q, opts, ("right",))[0]


def left_cells(n, z=None, q=None, opts=None):
    """Cells from the q-shrinking flow; blocks share the recording tableau."""
    return _cells(n, z, q, opts, ("left",))[0]


def two_sided_cells(n, z=None, q=None, opts=None):
    """Join of the left and right cell partitions, from one flow."""
    right, left = _cells(n, z, q, opts, ("right", "left"))
    return right.join(left, kind="two-sided")
