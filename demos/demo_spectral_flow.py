"""Eigenline continuation recovering both tableaux of the correspondence.

Runs the full flow on the multilinear block of 2x3 matrices: eigenlines are
labelled by monomials at large parameter separation, transported from one
base point to the two caterpillar points, z collided in order (leg B) and
q collided in order (leg D), and decoded into a pair of tableaux per
branch: T at leg B's end and S at leg D's. The decoded pair is compared
against row insertion for every branch. The same leg B end frame also
gives the coalescence classes at z -> 0, which the tableau check alone
(`flow_block`) does not compute.
"""

from gaudinrsk.combinatorics import rsk
from gaudinrsk.spectralflow import FlowContext


def rows(t):
    return "/".join("".join(map(str, row)) for row in t.rows)


def main():
    ctx = FlowContext(2, 3, (1, 1, 1))
    frames = {name: frame for name, frame, _ in ctx.run("ABD")}
    labels = ctx.basis
    t_tableaux = ctx.extract_T(frames["B"], labels)
    s_tableaux = ctx.extract_S(frames["D"], labels)
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
