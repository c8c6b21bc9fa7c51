"""Eigenline continuation recovering both tableaux of the correspondence.

Runs the full flow on the multilinear block of 2x3 matrices: eigenlines are
labelled by monomials at large parameter separation, transported to the
degenerate limits, and decoded into a pair of tableaux per branch. The
decoded pair is compared against row insertion for every branch. The same
flow's leg B end frame also gives the coalescence classes at z -> 0, which
the tableau check alone (`flow_block`) does not compute.
"""

from gaudinrsk.combinatorics import rsk
from gaudinrsk.spectralflow import FlowContext


def rows(t):
    return "/".join("".join(map(str, row)) for row in t.rows)


def main():
    ctx = FlowContext(2, 3, (1, 1, 1))
    frames = {name: frame for name, frame, _ in ctx.run("ABCDE")}
    labels = ctx.basis
    s_tableaux = ctx.extract_S(frames["C"], labels)
    t_tableaux = ctx.extract_T(frames["E"], labels)
    print(f"{len(labels)} eigenline branches on the block\n")
    print(f"{'label':22} {'S (flow)':10} {'Q (rsk)':10} {'T (flow)':10} {'P (rsk)':10}")
    agree = True
    for label, s, t in zip(labels, s_tableaux, t_tableaux):
        p, q = rsk(label)
        agree &= s == q and t == p
        print(f"{str(label.to_lists()):22} {rows(s):10} {rows(q):10} {rows(t):10} {rows(p):10}")
    print(f"\nall branches agree with row insertion: {agree}")
    print("coalescence classes at z -> 0 (indices share a recording tableau):")
    for cls in ctx.classes(frames["B"], 0):
        print(f"  {cls}")


if __name__ == "__main__":
    main()
