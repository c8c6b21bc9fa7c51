"""Eigenline continuation recovering both tableaux of the correspondence.

Runs the full flow on the multilinear block of 2x3 matrices: eigenlines are
labelled by monomials at large parameter separation, transported to the
degenerate limits, and decoded into a pair of tableaux per branch. The
decoded pair is compared against row insertion for every branch. The same
run also clusters leg B's records at z -> 0, which the tableau check alone
(`flow_block`) does not compute.
"""

from gaudinrsk.combinatorics import rsk
from gaudinrsk.spectralflow import FlowContext


def rows(t):
    return "/".join("".join(map(str, row)) for row in t.rows)


def main():
    result = FlowContext(2, 3, (1, 1, 1)).run("ABCDE", "B")
    print(f"{len(result.branches)} eigenline branches on the block\n")
    print(f"{'label':22} {'S (flow)':10} {'Q (rsk)':10} {'T (flow)':10} {'P (rsk)':10}")
    for branch in result.branches:
        p, q = rsk(branch.label)
        print(f"{str(branch.label.to_lists()):22} {rows(branch.s_tableau):10} "
              f"{rows(q):10} {rows(branch.t_tableau):10} {rows(p):10}")

    agree = all(
        branch.s_tableau == rsk(branch.label)[1]
        and branch.t_tableau == rsk(branch.label)[0]
        for branch in result.branches
    )
    print(f"\nall branches agree with row insertion: {agree}")
    print("coalescence classes at z -> 0 (indices share a recording tableau):")
    for cls in result.classes["B"]:
        print(f"  {cls}")


if __name__ == "__main__":
    main()
