import csv
import io
import json
import time

import pytest

from gaudinrsk import cli, cmcells, spectralflow
from gaudinrsk.cli import EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main


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

    def test_budget_overflow(self, capsys):
        assert main(["flow", "--r", "3", "--n", "3", "--col-sums", "[4,4,4]",
                     "--budget", "100"]) == EXIT_USAGE

    def test_huge_sweep_is_refused_before_listing(self, capsys):
        # every block of r = 1 has dimension 1, but the sweep lists 21^7
        # column-sum vectors; their summed dimension is checked first
        start = time.perf_counter()
        assert main(["flow", "--r", "1", "--n", "7", "--max-entry", "20"]) == EXIT_USAGE
        assert time.perf_counter() - start < 1.0
        assert f"swept blocks {21 ** 7} exceeds budget 300" in capsys.readouterr().err

    def test_sweep_within_default_budget(self, capsys):
        # 25 blocks of dimension (a + 1)(b + 1), 225 labels in all
        code, report = run(capsys, "flow", "--r", "2", "--n", "2", "--max-entry", "2")
        assert code == EXIT_OK
        assert report["checked"] == 225
        assert report["agreement"]

    def test_largest_float_column_sum_runs(self, capsys):
        # float(170!) is finite
        code, report = run(capsys, "flow", "--r", "1", "--n", "1", "--col-sums", "[170]")
        assert code == EXIT_OK
        assert report["checked"] == 1

    def test_needs_block_selector(self, capsys):
        assert main(["flow", "--r", "2", "--n", "2"]) == EXIT_USAGE

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
])
def test_malformed_flow_input_is_usage_error(argv, capsys):
    assert main(argv) == EXIT_USAGE


class TestCells:
    def test_right_cells(self, capsys):
        code, report = run(capsys, "cells", "--n", "3", "--kind", "right")
        assert code == EXIT_OK
        assert report["matches_kl"]
        assert report["block_sizes"] == [1, 1, 2, 2]

    def test_unknown_kind(self, capsys):
        assert main(["cells", "--n", "3", "--kind", "middle"]) == EXIT_USAGE

    def test_refuses_n_7_before_any_flow(self, capsys, monkeypatch):
        def no_flow(*args, **kwargs):
            raise AssertionError("a cell flow ran")

        monkeypatch.setattr(cli.cmcells, "right_cells", no_flow)
        assert main(["cells", "--n", "7"]) == EXIT_USAGE


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
