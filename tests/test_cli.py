"""CLI tests: spec grammar round-trips, output payload shapes, exit codes,
and file side effects. Subcommands are invoked in-process via main()."""

import dataclasses
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from circnet import cli, metrics, search
from circnet.report import CSV_HEADER
from circnet.cli import (
    EXIT_CHECKPOINT,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    format_spec,
    main,
    parse_spec,
)

SPECS = [
    "circulant:32:1,7",
    "ring:8",
    "complete:4",
    "hypercube:5",
    "torus:8,8,4",
    "product:ring:8*complete:4",
    "product:circulant:256:1,13,33,128*complete:4",
    "product:ring:4*ring:4*ring:5",
    "product:torus:4,4*ring:5*complete:2",
]


class TestSpecGrammar:
    @pytest.mark.parametrize("spec", SPECS)
    def test_round_trip(self, spec):
        t = parse_spec(spec)
        assert format_spec(t) == spec
        assert format_spec(parse_spec(format_spec(t))) == spec

    def test_sizes(self):
        assert parse_spec("hypercube:5").n == 32
        assert parse_spec("torus:8,8,4,4").n == 1024
        assert parse_spec("product:ring:8*complete:4").n == 32

    @pytest.mark.parametrize(
        "bad", ["blah:3", "circulant:16", "torus:", "product:ring:8", "hypercube:x"]
    )
    def test_bad_specs(self, bad):
        rc = main(["metrics", bad])
        assert rc == EXIT_USAGE


class TestMetricsCommand:
    def test_hypercube5(self, capsys):
        assert main(["metrics", "hypercube:5"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        r = out["result"]
        assert r["diameter"] == 5 and r["bisection"] == 16 and r["bisection_exact"]
        assert round(r["mpl"], 2) == 2.58
        assert out["config"]["spec"] == "hypercube:5"
        assert "wall_s" in out["timing"]

    def test_circulant_reference_row(self, capsys):
        assert main(["metrics", "circulant:32:1,7"]) == EXIT_OK
        r = json.loads(capsys.readouterr().out)["result"]
        assert r["diameter"] == 4 and r["dist_sum"] == 84 and r["bisection"] == 16

    def test_partition_import(self, tmp_path, capsys):
        part = tmp_path / "part.txt"
        part.write_text("0 1 2 3\n4 5 6 7\n")
        assert main(["metrics", "ring:8", "--partition", str(part)]) == EXIT_OK
        r = json.loads(capsys.readouterr().out)["result"]
        assert r["bisection"] == 2 and not r["bisection_exact"]

    def test_bad_partition_is_infeasible(self, tmp_path):
        part = tmp_path / "part.txt"
        part.write_text("0 1 2\n3 4 5 6 7\n")
        assert main(["metrics", "ring:8", "--partition", str(part)]) == EXIT_INFEASIBLE


class TestPartitionFileFuzz:
    @given(
        st.one_of(
            st.text(),
            st.permutations(range(8)).map(
                lambda p: " ".join(map(str, p[:4])) + "\n" + " ".join(map(str, p[4:])) + "\n"
            ),
        )
    )
    def test_exits_cleanly(self, text):
        # any file is either measured (0) or refused as infeasible (3); an
        # exception escaping main() would be a traceback on the command line
        with tempfile.TemporaryDirectory() as d:
            part = Path(d) / "part.txt"
            part.write_text(text, encoding="utf-8")
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                rc = main(["metrics", "ring:8", "--partition", str(part)])
        assert rc in (EXIT_OK, EXIT_INFEASIBLE)


class TestRestartsValidation:
    """`--restarts` below 1 is refused before any BFS, whatever the graph's
    size or parity and however its width would be obtained: the BFS is
    replaced by one that fails if it is called."""

    @pytest.fixture(autouse=True)
    def no_bfs(self, monkeypatch):
        def bfs(*args):
            raise AssertionError("a BFS was run")

        monkeypatch.setattr(metrics, "diameter_mpl", bfs)

    @pytest.mark.parametrize(
        "args",
        [
            ["metrics", "circulant:32:1,7", "--restarts", "0"],  # exact width
            ["metrics", "circulant:64:1,14", "--restarts", "0"],  # heuristic width
            ["metrics", "circulant:33:1,7", "--restarts", "0"],  # odd n, no width
            [
                "compare", "circulant:32:1,7", "hypercube:5",
                "--baseline", "torus:8,4", "--restarts", "-1",
            ],
        ],
    )
    def test_rejected_before_any_bfs(self, args, capsys):
        assert main(args) == EXIT_INFEASIBLE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "restarts" in captured.err

    def test_rejected_with_a_partition(self, tmp_path, capsys):
        part = tmp_path / "part.txt"
        part.write_text("0 1 2 3\n4 5 6 7\n")
        args = ["metrics", "ring:8", "--partition", str(part), "--restarts", "0"]
        assert main(args) == EXIT_INFEASIBLE
        assert "restarts" in capsys.readouterr().err


class TestTrafficCommand:
    def test_complete4_all2all(self, capsys):
        assert main(["traffic", "complete:4", "--pattern", "all2all"]) == EXIT_OK
        r = json.loads(capsys.readouterr().out)["result"]
        assert r["eb_proxy"] == 12.0

    def test_mean_hops_is_mpl(self, capsys):
        assert main(["traffic", "circulant:32:1,7", "--pattern", "all2all"]) == EXIT_OK
        r = json.loads(capsys.readouterr().out)["result"]
        assert round(r["mean_hops"], 2) == 2.71

    def test_shift_pattern(self, capsys):
        assert main(["traffic", "ring:8", "--pattern", "shift:4"]) == EXIT_OK
        r = json.loads(capsys.readouterr().out)["result"]
        assert r["mean_hops"] == 4.0

    def test_random_deterministic(self, capsys):
        main(["traffic", "ring:8", "--pattern", "random:40", "--seed", "5"])
        a = capsys.readouterr().out
        main(["traffic", "ring:8", "--pattern", "random:40", "--seed", "5"])
        b = capsys.readouterr().out
        assert json.loads(a)["result"] == json.loads(b)["result"]

    def test_links_csv_written(self, tmp_path, capsys):
        out = tmp_path / "links.csv"
        assert (
            main(["traffic", "ring:4", "--pattern", "all2all", "--links-csv", str(out)])
            == EXIT_OK
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "src,dst,load"
        assert len(lines) == 9

    def test_bad_pattern(self):
        assert main(["traffic", "ring:8", "--pattern", "sweep:2"]) == EXIT_USAGE

    @pytest.mark.parametrize("pattern", ["random:x", "random:0", "shift:8"])
    def test_bad_pattern_argument(self, pattern, capsys):
        assert main(["traffic", "ring:8", "--pattern", pattern]) == EXIT_USAGE
        assert f"bad pattern spec {pattern!r}" in capsys.readouterr().err


class TestCompareCommand:
    def test_csv_n32(self, capsys):
        rc = main(
            [
                "compare",
                "circulant:32:1,7",
                "hypercube:5",
                "--baseline",
                "torus:8,4",
            ]
        )
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,k,label,D,MPL,BW,d_inv,mpl_inv,bw_ratio"
        row = next(ln for ln in lines if ln.startswith("32,4,circulant:32:1,7"))
        assert row.endswith("1.50,1.14,2.00")

    def test_json_n32(self, capsys):
        rc = main(
            [
                "compare",
                "circulant:32:1,7",
                "hypercube:5",
                "--baseline",
                "torus:8,4",
                "--format",
                "json",
            ]
        )
        assert rc == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert sorted(row["label"] for row in rows) == [
            "circulant:32:1,7", "hypercube:5", "torus:8,4"
        ]
        assert all(sorted(row) == sorted(CSV_HEADER.split(",")) for row in rows)
        row = next(row for row in rows if row["label"] == "circulant:32:1,7")
        assert (row["n"], row["k"], row["D"], row["BW"]) == (32, 4, 4, 16)
        # MPL and the ratios are rounded to two decimals, as in the CSV
        assert (row["MPL"], row["d_inv"], row["mpl_inv"], row["bw_ratio"]) == (
            2.71, 1.5, 1.14, 2.0
        )

    def test_mixed_sizes_rejected(self):
        rc = main(["compare", "ring:8", "--baseline", "torus:8,4"])
        assert rc == EXIT_INFEASIBLE


class TestGenerateAndRoute:
    def test_generate_edge_list(self, capsys):
        assert main(["generate", "ring:4"]) == EXIT_OK
        assert capsys.readouterr().out == "0 1\n0 3\n1 2\n2 3\n"

    def test_generate_descriptor_to_stderr(self, capsys):
        assert main(["generate", "ring:4", "--descriptor"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == "0 1\n0 3\n1 2\n2 3\n"
        assert json.loads(captured.err) == {"kind": "ring", "n": 4, "params": {"n": 4}}

    def test_generate_to_file(self, tmp_path):
        out = tmp_path / "edges.txt"
        assert main(["generate", "torus:4,4", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 32  # 16 vertices, degree 4
        pairs = [tuple(map(int, ln.split())) for ln in lines]
        assert all(u < v for u, v in pairs)
        assert pairs == sorted(pairs)

    def test_route_export(self, capsys):
        assert main(["route", "circulant:16:1,6"]) == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        assert d["scheme"] == "vertex-symmetric" and d["n"] == 16
        assert len(d["rows"]) == 16

    def test_route_product_scheme(self, capsys):
        assert main(["route", "torus:4,4"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["scheme"] == "dimension-order"


class TestSearchCommand:
    def test_small_search_payload(self, tmp_path, capsys):
        out = tmp_path / "res.jsonl"
        rc = main(
            [
                "search", "--n", "16", "--k", "4", "--workers", "1",
                "--restarts", "8", "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["n"] == 16
        assert any(rec["jumps"] == [1, 6] for rec in payload["results"])
        assert "scan_rate_per_core" in payload["timing"]
        lines = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert lines == payload["results"]

    def test_complete_graph_search(self, capsys):
        rc = main(["search", "--n", "8", "--k", "7", "--workers", "1"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"][0]["jumps"] == [1, 2, 3, 4]
        assert payload["results"][0]["diameter"] == 1

    def test_infeasible(self):
        assert main(["search", "--n", "9", "--k", "5"]) == EXIT_INFEASIBLE

    def test_corrupt_checkpoint(self, tmp_path, capsys):
        ck = tmp_path / "ck.jsonl"
        ck.write_text("{not json")
        rc = main(["search", "--n", "16", "--k", "4", "--checkpoint", str(ck)])
        assert rc == EXIT_CHECKPOINT

    def test_wrong_space_checkpoint(self, tmp_path, capsys):
        ck = tmp_path / "ck.jsonl"
        rc = main(
            ["search", "--n", "16", "--k", "4", "--workers", "1",
             "--restarts", "4", "--checkpoint", str(ck)]
        )
        assert rc == EXIT_OK
        capsys.readouterr()
        rc = main(["search", "--n", "32", "--k", "4", "--checkpoint", str(ck)])
        assert rc == EXIT_CHECKPOINT

    @pytest.mark.parametrize("elapsed", [None, "nan", -5])
    def test_resume_without_scan_time(self, tmp_path, capsys, elapsed):
        ck = tmp_path / "ck.jsonl"
        args = ["search", "--n", "32", "--k", "4", "--workers", "1", "--restarts", "4",
                "--checkpoint", str(ck)]
        assert main(args) == EXIT_OK
        capsys.readouterr()
        lines = []
        for line in ck.read_text().splitlines():
            rec = json.loads(line)
            if elapsed is None:
                del rec["elapsed"]
            else:
                rec["elapsed"] = elapsed
            lines.append(json.dumps(rec))
        ck.write_text("\n".join(lines) + "\n")
        rc = main(args)
        captured = capsys.readouterr()
        if elapsed is not None:
            assert rc == EXIT_CHECKPOINT and "elapsed" in captured.err
            return
        assert rc == EXIT_OK

        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")

        payload = json.loads(captured.out, parse_constant=refuse)
        assert payload["timing"]["scan_rate_per_core"] is None
        assert "scan rate: n/a" in captured.err

    @pytest.mark.parametrize(
        "n, k, ranks", [(257, 6, 8_001), (255, 6, 10_292), (32, 4, search.count_space(32, 4))]
    )
    def test_scan_rate_counts_the_ranks_walked(self, n, k, ranks, monkeypatch, capsys):
        # With the scan time pinned to 0.5 s the rate shows its numerator:
        # the ranks of the scan plan (the pinned sets, then the divisor
        # parts), not `scanned`, the size of the requested space.
        real = cli.run_search

        def half_second(*args):
            records, merged = real(*args)
            return records, dataclasses.replace(merged, elapsed=0.5)

        monkeypatch.setattr(cli, "run_search", half_second)
        rc = main(["search", "--n", str(n), "--k", str(k), "--workers", "1", "--restarts", "4"])
        assert rc == EXIT_OK
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert search.count_scan_ranks(n, k) == ranks
        assert payload["timing"]["scan_rate_per_core"] == 2 * ranks
        assert f"scan rate: {2 * ranks} graphs/s/core" in captured.err
        assert payload["scanned"] == search.count_space(n, k)

    def test_full_space_scan_rate_counts_the_same_ranks(self, monkeypatch, capsys):
        # The reduced and the full (32, 4) space share one scan plan of 14
        # ranks; only `scanned`, the requested space's size, differs.
        real = cli.run_search

        def half_second(*args):
            records, merged = real(*args)
            return records, dataclasses.replace(merged, elapsed=0.5)

        monkeypatch.setattr(cli, "run_search", half_second)
        for extra, scanned in (([], 14), (["--full-space"], 105)):
            args = ["search", "--n", "32", "--k", "4", "--workers", "1", "--restarts", "4"]
            assert main(args + extra) == EXIT_OK
            captured = capsys.readouterr()
            payload = json.loads(captured.out)
            assert payload["timing"]["scan_rate_per_core"] == 2 * 14
            assert "scan rate: 28 graphs/s/core" in captured.err
            assert payload["scanned"] == scanned == search.count_space(32, 4, not extra)

    def test_exact_limit_above_cap_falls_back_to_heuristic(self, capsys):
        rc = main(
            ["search", "--n", "64", "--k", "4", "--workers", "1",
             "--exact-bisection-limit", "64", "--restarts", "4"]
        )
        assert rc == EXIT_OK
        results = json.loads(capsys.readouterr().out)["results"]
        assert results and all(rec["bisection_exact"] is False for rec in results)


class TestSearchConfigValidation:
    @pytest.mark.parametrize(
        "flag", ["--restarts", "--checkpoint-every", "--workers"]
    )
    def test_bad_value_exits_before_the_scan(self, flag, monkeypatch, capsys):
        def scan(*args):
            raise AssertionError("a candidate was scanned")

        monkeypatch.setattr(search, "_scan_chunk", scan)
        args = ["search", "--n", "64", "--k", "4", "--workers", "1", flag, "0"]
        assert main(args) == EXIT_INFEASIBLE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag[2:].replace("-", "_") in captured.err


class TestUsage:
    def test_no_args(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE
