"""End-to-end tests for the repro-tc command line interface."""

import subprocess
import sys

import pytest

from repro.cli import main

EDGES = """\
a b
a c
b d
c d
"""


@pytest.fixture
def edges_file(tmp_path):
    path = tmp_path / "graph.edges"
    path.write_text(EDGES)
    return str(path)


def test_import_stays_numpy_free():
    """numpy loads on first use (a build, freeze or load), so
    ``import repro`` and the CLI entry point do not pay for it."""
    completed = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro, repro.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"


class TestBuild:
    def test_build_prints_stats(self, edges_file, capsys):
        assert main(["build", edges_file]) == 0
        out = capsys.readouterr().out
        assert "index built" in out
        assert "num_intervals" in out

    def test_build_writes_index(self, edges_file, tmp_path, capsys):
        target = str(tmp_path / "closure.json")
        assert main(["build", edges_file, "-o", target]) == 0
        assert "index written" in capsys.readouterr().out

    def test_build_options(self, edges_file, capsys):
        assert main(["build", edges_file, "--policy", "first_parent",
                     "--gap", "4", "--merge"]) == 0
        assert "first_parent" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["build", "/no/such/file"]) == 2
        assert "error" in capsys.readouterr().err


class TestQuery:
    def test_reachable_exit_zero(self, edges_file, capsys):
        assert main(["query", edges_file, "a", "d"]) == 0
        assert "reachable" in capsys.readouterr().out

    def test_not_reachable_exit_one(self, edges_file, capsys):
        assert main(["query", edges_file, "d", "a"]) == 1
        assert "not-reachable" in capsys.readouterr().out

    def test_query_saved_index(self, edges_file, tmp_path, capsys):
        target = str(tmp_path / "closure.json")
        main(["build", edges_file, "-o", target])
        capsys.readouterr()
        assert main(["query", target, "a", "d"]) == 0

    def test_unknown_node_is_error(self, edges_file, capsys):
        assert main(["query", edges_file, "a", "ghost"]) == 2
        assert "error" in capsys.readouterr().err


class TestListing:
    def test_successors(self, edges_file, capsys):
        assert main(["successors", edges_file, "a"]) == 0
        out = capsys.readouterr().out.split()
        assert out == ["b", "c", "d"]

    def test_predecessors(self, edges_file, capsys):
        assert main(["predecessors", edges_file, "d"]) == 0
        assert capsys.readouterr().out.split() == ["a", "b", "c"]


class TestFrozenEngine:
    def test_query_engine_frozen(self, edges_file, capsys):
        assert main(["query", edges_file, "a", "d", "--engine", "frozen"]) == 0
        assert "reachable" in capsys.readouterr().out

    def test_successors_engine_frozen(self, edges_file, capsys):
        assert main(["successors", edges_file, "a", "--engine", "frozen"]) == 0
        assert capsys.readouterr().out.split() == ["b", "c", "d"]

    def test_predecessors_engine_frozen(self, edges_file, capsys):
        assert main(["predecessors", edges_file, "d",
                     "--engine", "frozen"]) == 0
        assert capsys.readouterr().out.split() == ["a", "b", "c"]

    def test_freeze_writes_buffers(self, edges_file, tmp_path, capsys):
        target = str(tmp_path / "frozen.json")
        assert main(["freeze", edges_file, "-o", target]) == 0
        out = capsys.readouterr().out
        assert "frozen index" in out and "frozen buffers written" in out
        assert main(["query", target, "a", "d"]) == 0
        capsys.readouterr()
        assert main(["predecessors", target, "d"]) == 0
        assert capsys.readouterr().out.split() == ["a", "b", "c"]

    def test_freeze_saved_index(self, edges_file, tmp_path, capsys):
        closure = str(tmp_path / "closure.json")
        frozen = str(tmp_path / "frozen.json")
        main(["build", edges_file, "-o", closure])
        capsys.readouterr()
        assert main(["freeze", closure, "-o", frozen]) == 0
        capsys.readouterr()
        assert main(["query", frozen, "d", "a"]) == 1

    def test_frozen_file_rejects_dict_engine(self, edges_file, tmp_path,
                                             capsys):
        target = str(tmp_path / "frozen.json")
        main(["freeze", edges_file, "-o", target])
        capsys.readouterr()
        assert main(["query", target, "a", "d", "--engine", "dict"]) == 2
        assert "error" in capsys.readouterr().err

    def test_frozen_unknown_node_is_error(self, edges_file, tmp_path, capsys):
        target = str(tmp_path / "frozen.json")
        main(["freeze", edges_file, "-o", target])
        capsys.readouterr()
        assert main(["query", target, "a", "ghost"]) == 2
        assert "error" in capsys.readouterr().err


class TestStats:
    def test_stats(self, edges_file, capsys):
        assert main(["stats", edges_file]) == 0
        out = capsys.readouterr().out
        assert "full_closure" in out and "compressed" in out

    def test_stats_with_inverse(self, edges_file, capsys):
        assert main(["stats", edges_file, "--inverse"]) == 0
        assert "inverse" in capsys.readouterr().out

    def test_stats_json_covers_the_chain_engine(self, tmp_path, capsys):
        """``engine="auto"`` picks the chain cover at 256+ nodes, so the
        exported workload must run it too."""
        import json

        from repro.graph.generators import random_dag
        path = tmp_path / "graph.edges"
        path.write_text("".join(f"{source} {destination}\n" for source,
                                destination in random_dag(400, 2.0,
                                                          7).arcs()))
        assert main(["stats", str(path), "--stats-json"]) == 0
        histograms = json.loads(capsys.readouterr().out)["histograms"]
        counts = [summary["count"] for key, summary in histograms.items()
                  if key.startswith("tc_op_latency_seconds")
                  and 'engine="ChainCoverIndex"' in key]
        assert counts and max(counts) > 0


class TestUpdate:
    def test_update_edge_list(self, edges_file, tmp_path, capsys):
        diff = tmp_path / "diff.txt"
        diff.write_text("+ d e\n- a b\n")
        assert main(["update", edges_file, str(diff)]) == 0
        assert "maintenance passes" in capsys.readouterr().out

    def test_update_saved_index_in_place(self, edges_file, tmp_path, capsys):
        target = str(tmp_path / "closure.json")
        main(["build", edges_file, "-o", target])
        diff = tmp_path / "diff.txt"
        diff.write_text("+ d epsilon\n")
        capsys.readouterr()
        assert main(["update", target, str(diff)]) == 0
        capsys.readouterr()
        assert main(["query", target, "a", "epsilon"]) == 0

    def test_update_to_new_output(self, edges_file, tmp_path, capsys):
        diff = tmp_path / "diff.txt"
        diff.write_text("+ a z\n")
        out = str(tmp_path / "updated.json")
        assert main(["update", edges_file, str(diff), "-o", out]) == 0
        capsys.readouterr()
        assert main(["query", out, "a", "z"]) == 0

    def test_malformed_diff(self, edges_file, tmp_path, capsys):
        diff = tmp_path / "diff.txt"
        diff.write_text("~ bogus line\n")
        assert main(["update", edges_file, str(diff)]) == 2
        assert "error" in capsys.readouterr().err


class TestExplainAndProfile:
    def test_explain_positive(self, edges_file, capsys):
        assert main(["explain", edges_file, "a", "d"]) == 0
        assert "reaches" in capsys.readouterr().out

    def test_explain_negative(self, edges_file, capsys):
        assert main(["explain", edges_file, "d", "a"]) == 0
        assert "does NOT reach" in capsys.readouterr().out

    def test_describe(self, edges_file, capsys):
        assert main(["describe", edges_file]) == 0
        out = capsys.readouterr().out
        assert "tree cover:" in out and "intervals:" in out

    def test_describe_no_tree(self, edges_file, capsys):
        assert main(["describe", edges_file, "--no-tree"]) == 0
        assert "tree cover:" not in capsys.readouterr().out

    def test_describe_saved_index(self, edges_file, tmp_path, capsys):
        target = str(tmp_path / "closure.json")
        main(["build", edges_file, "-o", target])
        capsys.readouterr()
        assert main(["describe", target]) == 0
        assert "IntervalTCIndex over" in capsys.readouterr().out

    def test_profile(self, edges_file, capsys):
        assert main(["profile", edges_file]) == 0
        out = capsys.readouterr().out
        assert "depth" in out and "reachable_pairs" in out


class TestBench:
    @pytest.mark.parametrize("figure,needle", [
        ("fig3.9", "storage vs degree"),
        ("fig3.11", "fig3.11"),
        ("worst-case", "fig3.6/3.7"),
        ("chains", "Theorem 2"),
        ("ablation", "policies"),
        ("workloads", "families"),
    ])
    def test_small_bench_runs(self, figure, needle, capsys):
        assert main(["bench", figure, "--nodes", "60", "--max-degree", "4",
                     "--sample", "50"]) == 0
        assert needle in capsys.readouterr().out

    def test_fig_3_12_histogram(self, capsys):
        assert main(["bench", "fig3.12", "--sample", "40"]) == 0
        assert "#" in capsys.readouterr().out

    def test_fig_3_10_includes_inverse(self, capsys):
        assert main(["bench", "fig3.10", "--nodes", "50",
                     "--max-degree", "3"]) == 0
        assert "inverse" in capsys.readouterr().out

    def test_bench_io(self, capsys):
        assert main(["bench", "io"]) == 0
        assert "page_faults" in capsys.readouterr().out

    def test_bench_merging(self, capsys):
        assert main(["bench", "merging"]) == 0
        assert "saving_percent" in capsys.readouterr().out
