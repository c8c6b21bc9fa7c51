import csv
import io
import itertools
import json
import time

import pytest

from gaudinrsk import cli, cmcells, spectralflow
from gaudinrsk.combinatorics import rsk
from gaudinrsk.cli import EXIT_INCONCLUSIVE, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


class TestRsk:
    def test_forward(self, capsys):
        code, report = run(capsys, "rsk", "--matrix", "[[0,2,1],[1,0,1]]")
        assert code == EXIT_OK
        assert report["P"] == [[1, 2, 3, 3], [2]]
        assert report["Q"] == [[1, 1, 1, 2], [2]]
        assert report["shape"] == [4, 1]

    def test_inverse_roundtrip(self, capsys):
        code, report = run(
            capsys, "rsk", "--inverse",
            "--p", "[[1,2,3,3],[2]]", "--q", "[[1,1,1,2],[2]]",
            "--n", "3", "--r", "2",
        )
        assert code == EXIT_OK
        assert report["matrix"] == [[0, 2, 1], [1, 0, 1]]

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[[1,0],[0,1]]")
        code, report = run(capsys, "rsk", "--file", str(path))
        assert code == EXIT_OK
        assert report["P"] == [[1, 2]]

    @pytest.mark.parametrize("argv", [
        ["--matrix", "[[true,0],[0,1]]"],
        ["--inverse", "--p", "[[true]]", "--q", "[[1]]", "--n", "1", "--r", "1"],
    ])
    def test_booleans_are_usage_errors(self, capsys, argv):
        # JSON true would be read as the entry 1
        assert main(["rsk"] + argv) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_check_suite(self, capsys):
        code, report = run(capsys, "rsk", "--check", "--samples", "50")
        assert code == EXIT_OK
        assert report["ok"]
        assert report["failures"] == []
        assert report["checked"] > 50

    def test_check_runs_rsk_twice_per_matrix(self, capsys, monkeypatch):
        # rsk(A) serves both the inverse and the transpose comparison
        calls = []
        rsk = cli.cb.rsk

        def counting(matrix):
            calls.append(matrix)
            return rsk(matrix)

        monkeypatch.setattr(cli.cb, "rsk", counting)
        code, report = run(capsys, "rsk", "--check", "--samples", "5")
        assert code == EXIT_OK
        assert report["ok"]
        assert len(calls) == 2 * report["checked"]

    def test_check_lists_each_failure(self, capsys, monkeypatch):
        # one planted failure in the exhaustive loop (entries up to 2) and
        # one in the sampled loop: the run exits 1 and lists both
        planted = cli.cb.NatMatrix([[2, 0], [1, 1]])
        exhaustive = sum(1 for r in (1, 2, 3) for n in (1, 2, 3)
                         for _ in cli.cb.all_matrices(r, n, 2))
        seen = []
        round_trips = cli._round_trips

        def planting(a):
            seen.append(a)
            if (len(seen) <= exhaustive and a == planted) or len(seen) == exhaustive + 2:
                return False
            return round_trips(a)

        monkeypatch.setattr(cli, "_round_trips", planting)
        code, report = run(capsys, "rsk", "--check", "--samples", "3")
        assert code == EXIT_MISMATCH
        assert report["ok"] is False
        assert report["checked"] == len(seen) == exhaustive + 3
        assert report["failures"] == [planted.to_lists(), seen[exhaustive + 1].to_lists()]

    @pytest.mark.parametrize("flag, value", [
        ("--max-dim", "0"),
        ("--max-entry", "-1"),
        ("--samples", "-5"),
    ])
    def test_check_rejects_bad_bounds(self, flag, value, capsys, monkeypatch):
        def no_check(a):
            raise AssertionError("a check ran")

        monkeypatch.setattr(cli.cb, "rsk", no_check)
        assert main(["rsk", "--check", flag, value]) == EXIT_USAGE

    def test_bad_matrix(self, capsys):
        assert main(["rsk", "--matrix", "[[1,-2]]"]) == EXIT_USAGE

    def test_missing_input(self, capsys):
        assert main(["rsk"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        [],
        ["--p", "[[1]]"],
        ["--q", "[[1]]", "--n", "1", "--r", "1"],
    ])
    def test_inverse_without_tableaux_is_usage_error(self, capsys, argv):
        assert main(["rsk", "--inverse"] + argv) == EXIT_USAGE
        assert capsys.readouterr().err == "error: --inverse needs --p and --q\n"

    def test_unreadable_file_is_usage_error(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        assert main(["rsk", "--file", str(missing)]) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: cannot read matrix: ")
        assert str(missing) in out.err
        # a directory is no matrix file either, nor bytes that are not text
        assert main(["rsk", "--file", str(tmp_path)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: cannot read matrix: ")
        binary = tmp_path / "m.bin"
        binary.write_bytes(b"\xff\xfe[[1]]")
        assert main(["rsk", "--file", str(binary)]) == EXIT_USAGE


class TestCrystal:
    def test_block_graph(self, capsys):
        code, report = run(capsys, "crystal", "--rank", "2", "--col-sums", "[1,1]")
        assert code == EXIT_OK
        assert len(report["elements"]) == 4
        assert all(e["index"] == 1 for e in report["edges"])
        assert len(report["edges"]) == 2

    def test_shape_graph(self, capsys):
        code, report = run(capsys, "crystal", "--rank", "2", "--shape", "[2]")
        assert code == EXIT_OK
        assert len(report["elements"]) == 3
        assert len(report["edges"]) == 2

    def test_needs_selector(self, capsys):
        assert main(["crystal", "--rank", "2"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["--rank", "-1", "--col-sums", "[1]"],
        ["--rank", "0", "--shape", "[1]"],
        ["--rank", "2", "--col-sums", "[-1, 1]"],
        ["--rank", "2", "--col-sums", "[1.5, 1]"],
        ["--rank", "2", "--col-sums", "[\"1\"]"],
        ["--rank", "2", "--col-sums", "[true]"],
        ["--rank", "2", "--shape", "[true]"],
        ["--rank", "2", "--shape", "[2.5]"],
        ["--rank", "2", "--shape", "[3,1,1]"],
    ])
    def test_bad_rank_or_col_sums_is_a_usage_error(self, capsys, argv):
        # as for flow: no empty graph for a block that cannot exist
        assert main(["crystal"] + argv) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_bad_shape_is_a_usage_error(self, capsys):
        assert main(["crystal", "--rank", "3", "--shape", "[2,3]"]) == EXIT_USAGE
        assert "bad shape: parts (2, 3) are not weakly decreasing" in capsys.readouterr().err


class TestFlow:
    def test_block_agreement(self, capsys):
        code, report = run(capsys, "flow", "--r", "2", "--n", "2",
                           "--col-sums", "[1,1]")
        assert code == EXIT_OK
        assert report["agreement"]
        assert report["checked"] == 4

    def test_block_with_an_empty_column(self, capsys):
        # Omega_12 and Omega_23 are 0 on this block and held as diagonals
        code, report = run(capsys, "flow", "--r", "2", "--n", "3",
                           "--col-sums", "[2,0,1]")
        assert code == EXIT_OK
        assert report["agreement"] and report["checked"] == 6
        assert report["failures"] == report["mismatches"] == []

    def test_budget_overflow(self, capsys, monkeypatch):
        # dim 4096, but 67 off-diagonal parts of sum d^2 = 2,704,156 floats
        # each: the estimate passes the cap before any basis is listed
        def no_basis(*args, **kwargs):
            raise AssertionError("a basis was listed")

        monkeypatch.setattr(spectralflow, "weight_basis", no_basis)
        start = time.perf_counter()
        assert main(["flow", "--r", "2", "--n", "12", "--col-sums", str([1] * 12)]) == EXIT_USAGE
        assert time.perf_counter() - start < 1.0
        assert "needs an estimated 2190 MiB, above the 1024 MiB cap" in capsys.readouterr().err

    def test_huge_sweep_is_refused_before_listing(self, capsys):
        # every block of r = 1 has dimension 1, but the sweep lists 21^7
        # column-sum vectors; the estimate of the largest plus 1 KiB per
        # block for the report is checked first
        start = time.perf_counter()
        assert main(["flow", "--r", "1", "--n", "7", "--max-entry", "20"]) == EXIT_USAGE
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert f"a sweep of {21 ** 7} blocks needs an estimated" in err
        assert "above the 1024 MiB cap" in err

    def test_block_past_the_old_dimension_limit_runs(self, capsys):
        # dim 640 with sum d^2 = 11,056: within the cap with no flag
        code, report = run(capsys, "flow", "--r", "4", "--n", "4", "--col-sums", "[2,1,1,1]")
        assert code == EXIT_OK
        assert report["agreement"] and report["checked"] == 640
        assert report["failures"] == report["mismatches"] == []

    def test_sweep_within_default_budget(self, capsys):
        # 25 blocks of dimension (a + 1)(b + 1), 225 labels in all
        code, report = run(capsys, "flow", "--r", "2", "--n", "2", "--max-entry", "2")
        assert code == EXIT_OK
        assert report["checked"] == 225
        assert report["agreement"]

    def test_sweep_is_charged_its_largest_block(self, capsys):
        # 171 blocks of dimension 1: the blocks run one after another, so the
        # sweep is charged its largest block's estimate, not 171 of them
        code, report = run(capsys, "flow", "--r", "1", "--n", "1", "--max-entry", "170")
        assert code == EXIT_OK
        assert report["checked"] == len(report["blocks"]) == 171
        assert report["agreement"] and report["failures"] == report["mismatches"] == []

    def test_sweep_of_large_blocks_is_admitted(self, capsys, monkeypatch):
        # 125 blocks, the largest (4,4,4) of dim 125 and about 9 MiB: the
        # sweep passes the cap (1102 MiB when charged 125 times that)
        swept = []

        def record(r, n, **kwargs):
            swept.append((r, n, kwargs["max_entry"]))
            return {"failures": [], "agreement": True}

        monkeypatch.setattr(spectralflow, "verify_main_theorem", record)
        assert main(["flow", "--r", "2", "--n", "3", "--max-entry", "2"]) == EXIT_OK
        assert swept == [(2, 3, 2)]

    def test_largest_float_column_sum_runs(self, capsys):
        # float(170!) is finite
        code, report = run(capsys, "flow", "--r", "1", "--n", "1", "--col-sums", "[170]")
        assert code == EXIT_OK
        assert report["checked"] == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_weight_block_with_a_casimir_tie_is_inconclusive(self, capsys, seed):
        # the corner shapes (3, 3) and (4, 1, 1) give one quadratic Casimir
        # value at letter 4: the run ends inconclusive on leg B, naming the
        # tie, and reports no pairing
        code, report = run(capsys, "flow", "--r", "3", "--n", "4", "--col-sums", "[2,1,1,2]",
                           "--weight", "[2,2,2]", "--seed", str(seed))
        assert code == EXIT_INCONCLUSIVE
        assert not report["agreement"] and not report["checked"] and not report["mismatches"]
        [failure] = report["failures"]
        assert failure["error"].startswith("B: exact Casimir tie at letter 4: ")

    def test_weight_sweep_checks_the_blocks_that_hold_it(self, capsys):
        # six of the nine blocks hold no matrix with row sums (1, 1) and
        # flow as blocks of dim 0
        code, report = run(capsys, "flow", "--r", "2", "--n", "2", "--max-entry", "1",
                           "--weight", "[1,1]")
        assert code == EXIT_OK
        assert report["agreement"] and report["checked"] == 4
        assert [b["dim"] for b in report["blocks"]] == [0, 0, 1, 0, 2, 0, 1, 0, 0]
        assert report["failures"] == report["mismatches"] == []

    def test_needs_block_selector(self, capsys):
        assert main(["flow", "--r", "2", "--n", "2"]) == EXIT_USAGE

    def test_planted_wrong_pairing_exits_1(self, capsys, monkeypatch):
        # S swapped between two branches of one shape: the shapes of S and T
        # still agree on every branch, so the flow ends, and the check
        # against RSK lists both labels with S, T, P and Q
        flow_block, swapped = spectralflow.flow_block, []

        def planted(*args, **kwargs):
            result = flow_block(*args, **kwargs)
            a, b = next((a, b) for a, b in itertools.combinations(result.branches, 2)
                        if a.s_tableau.shape == b.s_tableau.shape
                        and a.s_tableau != b.s_tableau)
            a.s_tableau, b.s_tableau = b.s_tableau, a.s_tableau
            swapped.extend((a, b))
            return result

        monkeypatch.setattr(spectralflow, "flow_block", planted)
        code, report = run(capsys, "flow", "--r", "2", "--n", "3", "--col-sums", "[1,1,1]")
        assert code == EXIT_MISMATCH
        assert not report["agreement"] and report["failures"] == []
        assert report["checked"] == 8
        assert report["blocks"] == [{"col_sums": [1, 1, 1], "dim": 8, "mismatches": 2}]
        expected = []
        for branch in swapped:
            p, q = rsk(branch.label)
            expected.append({"label": branch.label.to_lists(), "S": branch.s_tableau.to_lists(),
                             "T": branch.t_tableau.to_lists(), "P": p.to_lists(),
                             "Q": q.to_lists()})
        assert report["mismatches"] == expected
        # each S is the other label's Q, and T is still P
        assert [m["S"] for m in expected] == [m["Q"] for m in expected[::-1]]
        assert all(m["T"] == m["P"] for m in expected)

    def test_decoded_shapes_that_differ_end_the_flow(self, capsys, monkeypatch):
        # one decoder gives the first branch a tableau of another shape than
        # the other decoder's: the flow ends on that DecodingError, exit 2,
        # and pairs no label
        result = spectralflow.flow_block(2, 3, (1, 1, 1))
        first = result.branches[0]
        other = next(b.s_tableau for b in result.branches
                     if b.s_tableau.shape != first.s_tableau.shape)
        extract_S = spectralflow.FlowContext.extract_S

        def planted(self, frame, labels):
            return [other] + extract_S(self, frame, labels)[1:]

        monkeypatch.setattr(spectralflow.FlowContext, "extract_S", planted)
        message = (f"shape mismatch for label {first.label!r}: "
                   f"{other.shape} vs {first.t_tableau.shape}")
        with pytest.raises(spectralflow.DecodingError) as err:
            spectralflow.flow_block(2, 3, (1, 1, 1))
        assert str(err.value) == message
        code, report = run(capsys, "flow", "--r", "2", "--n", "3", "--col-sums", "[1,1,1]")
        assert code == EXIT_INCONCLUSIVE
        assert report["failures"] == [{"col_sums": [1, 1, 1], "error": message}]
        assert not report["agreement"] and report["checked"] == 0
        assert report["mismatches"] == report["blocks"] == []

    def test_trace_written(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code, _ = run(capsys, "flow", "--r", "2", "--n", "2",
                      "--col-sums", "[1,1]", "--trace", str(trace))
        assert code == EXIT_OK
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "leg,t,branch,eigenvalue"
        assert len(lines) > 10

    def test_trace_streams_the_flow_rows(self, capsys, tmp_path):
        # the trace file holds, as csv.writer writes it, one row per branch
        # of every grid point the flow hands over, in the order reached,
        # with the header first
        points = []
        spectralflow.verify_main_theorem(2, 4, col_sums=(2, 1, 1, 2), trace=points)
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(["leg", "t", "branch", "eigenvalue"])
        for leg, t, values in points:
            writer.writerows((leg, t, b, v) for b, v in enumerate(values))
        trace = tmp_path / "trace.csv"
        code, _ = run(capsys, "flow", "--r", "2", "--n", "4", "--col-sums", "[2,1,1,2]",
                      "--trace", str(trace))
        assert code == EXIT_OK
        assert trace.read_bytes() == expected.getvalue().encode()

    def test_failed_flow_leaves_no_trace(self, capsys, tmp_path, monkeypatch):
        # rows already streamed are removed with the temporary file when the
        # flow raises
        def failing(*args, trace=None, **kwargs):
            trace.append(("A", 1.0, [2.0]))
            raise spectralflow.SetupError("forced")

        monkeypatch.setattr(spectralflow, "verify_main_theorem", failing)
        trace = tmp_path / "trace.csv"
        code, report = run(capsys, "flow", "--r", "2", "--n", "2", "--col-sums", "[1,1]",
                           "--trace", str(trace))
        assert code == cli.EXIT_INCONCLUSIVE
        assert report["error"] == "forced"
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["flow", "--r", "2", "--n", "3", "--col-sums", "[1,1,1]", "--z", "[1,2]"],
    ["flow", "--r", "2", "--n", "3", "--col-sums", "[1,1]"],
    ["flow", "--r", "0", "--n", "2", "--col-sums", "[1,1]"],
    ["cells", "--n", "3", "--z", "[1,2]"],
    ["cells", "--n", "0"],
    ["flow", "--r", "2", "--n", "3", "--col-sums", "[1,1,1]", "--z", "[3,2,1]"],
    ["flow", "--r", "2", "--n", "3", "--col-sums", "[1,1,1]", "--q", "[2,2]"],
    ["flow", "--r", "2", "--n", "2", "--col-sums", "[1,1]", "--steps", "0"],
    ["cells", "--n", "3", "--steps", "0"],
    ["flow", "--r", "2", "--n", "2", "--max-entry", "-1"],
    ["flow", "--r", "2", "--n", "2", "--col-sums", "[1,1]", "--weight", "[3,0]"],
    ["flow", "--r", "2", "--n", "2", "--max-entry", "0", "--weight", "[1,0]"],
    # the clustering gap check has one fixed safety factor, which no flag
    # can loosen
    ["flow", "--r", "2", "--n", "2", "--col-sums", "[1,1]", "--gap-safety", "1"],
    ["cells", "--n", "3", "--gap-safety", "1"],
    # records cluster by their own residuals, so there is no tolerance flag
    ["flow", "--r", "2", "--n", "2", "--col-sums", "[1,1]", "--tol", "1e-6"],
    ["cells", "--n", "3", "--tol", "1e-6"],
    # a monomial's squared norm k_1! ... k_n! would overflow a float
    ["flow", "--r", "1", "--n", "1", "--col-sums", "[171]"],
    ["flow", "--r", "1", "--n", "1", "--max-entry", "171"],
    ["flow", "--r", "1", "--n", "2", "--col-sums", "[100,100]"],
    # JSON booleans are not numbers, though Python reads them as 1 and 0
    ["flow", "--r", "2", "--n", "2", "--col-sums", "[true, 1]"],
    ["flow", "--r", "2", "--n", "2", "--col-sums", "[1,0]", "--weight", "[true,0]"],
    ["flow", "--r", "2", "--n", "2", "--col-sums", "[1,1]", "--z", "[true,2]"],
    ["flow", "--r", "2", "--n", "2", "--col-sums", "[1,1]", "--q", "[true,2]"],
    ["cells", "--n", "2", "--z", "[true,2]"],
    # distinct but not increasing: the flow would pair branches wrongly
    ["flow", "--r", "2", "--n", "3", "--col-sums", "[1,1,1]", "--q", "[3,1]"],
    ["cells", "--n", "3", "--q", "[1,3,2]"],
    # numpy's generator takes no negative seed
    ["cells", "--n", "3", "--seed", "-1"],
    ["flow", "--r", "2", "--n", "2", "--col-sums", "[1,1]", "--seed", "-1"],
    # runs are refused by their estimated memory, which no flag can raise
    ["flow", "--r", "2", "--n", "2", "--col-sums", "[1,1]", "--budget", "300"],
])
def test_malformed_flow_input_is_usage_error(argv, capsys):
    assert main(argv) == EXIT_USAGE


@pytest.mark.parametrize("argv, shifted", [
    (["flow", "--r", "2", "--n", "2", "--col-sums", "[1,1]", "--q", "[0,1e-300]"], "(1.0, 1.0)"),
    (["flow", "--r", "2", "--n", "2", "--col-sums", "[1,1]", "--q", "[0,1e-16]"], "(1.0, 1.0)"),
    (["cells", "--n", "3", "--q", "[0,1e-300,1]"], "(1.0, 1.0, 2.0)"),
])
def test_q_merged_by_the_shift_is_refused(argv, shifted, capsys):
    # increasing q closer than one ulp of 1 become equal as q - q_1 + 1, the
    # q the flow takes: the run ends inconclusive and names them
    code, report = run(capsys, *argv)
    assert code == EXIT_INCONCLUSIVE
    errors = [report["error"]] if "error" in report else [f["error"] for f in report["failures"]]
    assert errors == [f"flow needs strictly increasing base q, got q - q_1 + 1 = {shifted}"]


OVERFLOW = "A: family overflows the float range (a coefficient, norm or weight is not finite)"


@pytest.mark.parametrize("argv", [
    # the family's coefficients overflow
    ["flow", "--r", "2", "--n", "2", "--col-sums", "[1,1]", "--q", "[0,1e300]"],
    # the coefficients are finite, but their squared norms overflow
    ["flow", "--r", "2", "--n", "2", "--col-sums", "[1,1]", "--q", "[0,1e150]"],
    ["cells", "--n", "3", "--q", "[0,1,1e300]"],
])
def test_overflowing_q_is_named(argv, capsys):
    # the run ends inconclusive naming leg A and the overflow, not a
    # degenerate spectrum or an undecodable letter, and numpy prints no
    # warning (RuntimeWarning is an error under this suite)
    assert main(argv) == EXIT_INCONCLUSIVE
    out, err = capsys.readouterr()
    report = json.loads(out)
    errors = [report["error"]] if "error" in report else [f["error"] for f in report["failures"]]
    assert errors == [OVERFLOW]
    assert not err


@pytest.mark.parametrize("argv, message", [
    (["rsk", "--matrix", "[[1,"], "bad matrix: Expecting value: line 1 column 5 (char 4)"),
    (["rsk", "--matrix", "3"], "matrix must be a JSON list"),
    (["rsk", "--inverse", "--p", "[[1,2],[2]]", "--q", "[[1,1,2]]", "--r", "2", "--n", "2"],
     "shape mismatch: Partition([2, 1]) vs Partition([3])"),
    # JSON reads Infinity and NaN as floats
    (["flow", "--r", "2", "--n", "2", "--col-sums", "[1,1]", "--z", "[1,Infinity]"],
     "--z entries must be finite numbers"),
    (["flow", "--r", "2", "--n", "2", "--col-sums", "[1.5,1]"],
     "--col-sums and --weight entries must be non-negative integers"),
    (["rsk", "--config"], "--config needs a file path"),
    (["rsk", "--config", "{cfg}"], "bad config line: 'matrix'"),
    # cells has no --r
    (["cells", "--n", "0"], "--n must be at least 1"),
    (["flow", "--r", "0", "--n", "2", "--col-sums", "[1,1]"], "--r and --n must be at least 1"),
    # the report would hold a flag that was ignored
    (["crystal", "--rank", "2", "--shape", "[2,1]", "--col-sums", "[1]"],
     "argument --col-sums: not allowed with argument --shape"),
])
def test_usage_error_names_its_cause(argv, message, capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("matrix\n")
    assert main([arg.format(cfg=cfg) for arg in argv]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("command", [["cells", "--n", "3"],
                                     ["flow", "--r", "2", "--n", "2", "--col-sums", "[1,1]"]])
def test_negative_seed_is_named(command, capsys):
    assert main(command + ["--seed", "-1"]) == EXIT_USAGE
    assert "--seed must be non-negative" in capsys.readouterr().err


class TestCells:
    def test_right_cells(self, capsys):
        code, report = run(capsys, "cells", "--n", "3", "--kind", "right")
        assert code == EXIT_OK
        assert report["matches_kl"]
        assert report["block_sizes"] == [1, 1, 2, 2]

    def test_unknown_kind(self, capsys):
        assert main(["cells", "--n", "3", "--kind", "middle"]) == EXIT_USAGE

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind, error", [
        ("right", "B: ambiguous clustering: intra 1.344e+00 vs inter 6.679e+00"),
        ("left", "D: ambiguous clustering: intra 1.344e-04 vs inter 6.679e-04"),
        # leg B clusters first
        ("two-sided", "B: ambiguous clustering: intra 1.344e+00 vs inter 6.679e+00"),
    ])
    def test_clustering_error_names_its_leg(self, capsys, kind, error, seed):
        # z spread 1e4 wide: the records at each leg's end do not separate
        code, report = run(capsys, "cells", "--n", "3", "--z", "[1e4,2e4,3e4]",
                           "--kind", kind, "--seed", str(seed))
        assert code == EXIT_INCONCLUSIVE
        assert report["error"] == error

    def test_refuses_n_7_before_any_flow(self, capsys, monkeypatch):
        def no_flow(*args, **kwargs):
            raise AssertionError("a cell flow ran")

        monkeypatch.setattr(cli.cmcells, "right_cells", no_flow)
        assert main(["cells", "--n", "7"]) == EXIT_USAGE

    def test_refuses_n_12_at_once(self, capsys):
        # 12! monomials: one dense part alone passes the cap, which the
        # check tells from ln 12! without computing the estimate
        start = time.perf_counter()
        assert main(["cells", "--n", "12"]) == EXIT_USAGE
        assert time.perf_counter() - start < 1.0
        assert "the S_12 block needs more than the 1024 MiB cap" in capsys.readouterr().err

    def test_s6_estimate_is_the_column_count(self, capsys, monkeypatch):
        # cells --n 6 is checked with the estimate that flow gives the same
        # block, counted by columns through --weight [1,1,1,1,1,1]: the one
        # weight space of 6! monomials
        estimates, flow_bytes = [], spectralflow.flow_bytes

        def spy(*args):
            estimates.append(flow_bytes(*args))
            return estimates[-1]

        def stop(*args, **kwargs):
            raise spectralflow.SetupError("stopped after the check")

        monkeypatch.setattr(spectralflow, "flow_bytes", spy)
        monkeypatch.setattr(cli.cmcells, "right_cells", stop)
        monkeypatch.setattr(spectralflow, "verify_main_theorem", stop)
        assert main(["cells", "--n", "6"]) == cli.EXIT_INCONCLUSIVE
        ones = str([1] * 6)
        assert main(["flow", "--r", "6", "--n", "6", "--col-sums", ones,
                     "--weight", ones]) == cli.EXIT_INCONCLUSIVE
        assert spectralflow.weight_sizes(6, 6, (1,) * 6, (1,) * 6) == [720]
        assert estimates == [flow_bytes(6, 6, [720], 48)] * 2
        assert estimates[0] < spectralflow.MAX_BYTES


class TestCoarseGrid:
    """At --steps 2 each leg is one grid step, which the transport reaches
    through bisections on real blocks."""

    @pytest.fixture
    def bisections(self, monkeypatch):
        """The bisections of every leg transported."""
        counts = []
        transport = spectralflow.transport

        def counting(*args, **kwargs):
            frame, diag = transport(*args, **kwargs)
            counts.append(diag["bisections"])
            return frame, diag

        monkeypatch.setattr(spectralflow, "transport", counting)
        return counts

    def test_flow(self, capsys, bisections):
        code, report = run(capsys, "flow", "--r", "3", "--n", "4",
                           "--col-sums", "[1,1,1,1]", "--steps", "2")
        assert code == EXIT_OK
        assert report["agreement"] and report["checked"] == 81
        assert max(bisections) > 1

    @pytest.mark.parametrize("kind", ["right", "left"])
    def test_cells(self, capsys, bisections, kind):
        code, report = run(capsys, "cells", "--n", "5", "--kind", kind, "--steps", "2")
        assert code == EXIT_OK
        assert report["matches_kl"]
        assert report["block_sizes"] == cmcells.kl_reference_cells(5, kind).block_sizes()
        assert max(bisections) > 1


class TestReports:
    def test_deterministic_bytes(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        argv = ["rsk", "--check", "--samples", "25", "--seed", "7"]
        assert main(argv + ["--out", str(out1)]) == EXIT_OK
        assert main(argv + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_sampling(self, capsys):
        _, r1 = run(capsys, "rsk", "--check", "--samples", "25", "--seed", "1",
                    "--max-dim", "2", "--max-entry", "1")
        _, r2 = run(capsys, "rsk", "--check", "--samples", "25", "--seed", "2",
                    "--max-dim", "2", "--max-entry", "1")
        assert r1["config"]["seed"] != r2["config"]["seed"]

    def test_config_embedded(self, capsys):
        _, report = run(capsys, "rsk", "--matrix", "[[1]]")
        assert report["config"]["matrix"] == "[[1]]"
        assert report["config"]["seed"] == 0

    def test_config_file_defaults_and_override(self, capsys, tmp_path):
        cfg = tmp_path / "flow.cfg"
        cfg.write_text("# defaults\nmatrix=[[1,0],[0,1]]\n")
        code, report = run(capsys, "rsk", "--config", str(cfg))
        assert code == EXIT_OK
        assert report["P"] == [[1, 2]]
        code, report = run(capsys, "rsk", "--config", str(cfg),
                           "--matrix", "[[0,1],[1,0]]")
        assert code == EXIT_OK
        assert report["P"] == [[1], [2]]

    def test_config_file_not_text_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "flow.cfg"
        cfg.write_bytes(b"\xff\xfematrix=[[1]]\n")
        assert main(["rsk", "--config", str(cfg)]) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: cannot read config: ")

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cli.os, "replace", fail)
        with pytest.raises(OSError):
            with cli._atomic(str(tmp_path / "report.json")) as fh:
                fh.write("{}\n")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_subcommand(self, capsys):
        assert main(["bogus"]) == EXIT_USAGE
