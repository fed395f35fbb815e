"""Tests for the command-line interface."""

import io
import os

import pytest

from repro.cli import build_parser, main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def dblp_json(tmp_path):
    path = os.path.join(tmp_path, "dblp.json")
    code, _ = run_cli(
        ["generate", "--dataset", "dblp-small", "--seed", "3", "--out", path]
    )
    assert code == 0
    return path


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_generate_writes_file(tmp_path):
    path = os.path.join(tmp_path, "db.json")
    code, output = run_cli(
        ["generate", "--dataset", "wsu", "--out", path]
    )
    assert code == 0
    assert os.path.exists(path)
    assert "nodes" in output


def test_generate_deterministic(tmp_path):
    a = os.path.join(tmp_path, "a.json")
    b = os.path.join(tmp_path, "b.json")
    run_cli(["generate", "--dataset", "wsu", "--seed", "9", "--out", a])
    run_cli(["generate", "--dataset", "wsu", "--seed", "9", "--out", b])
    assert open(a).read() == open(b).read()


def test_stats(dblp_json):
    code, output = run_cli(["stats", dblp_json])
    assert code == 0
    assert "nodes" in output
    assert "r-a" in output
    assert "paper" in output


def test_stats_missing_file():
    code, _ = run_cli(["stats", "/nonexistent/db.json"])
    assert code == 2


def test_query(dblp_json):
    code, output = run_cli(
        [
            "query",
            dblp_json,
            "--pattern",
            "p-in-.r-a.r-a-.p-in",
            "--node",
            "proc:0",
            "--top",
            "5",
        ]
    )
    assert code == 0
    lines = [line for line in output.splitlines() if line.strip()]
    assert 1 <= len(lines) <= 5
    assert "proc:" in output


def test_query_with_algorithm_flag(dblp_json):
    code, output = run_cli(
        [
            "query",
            dblp_json,
            "--algorithm",
            "rwr",
            "--node",
            "proc:0",
            "--top",
            "5",
        ]
    )
    assert code == 0
    assert "proc:" in output


def test_query_pattern_algorithm_requires_pattern(dblp_json):
    code, _ = run_cli(
        ["query", dblp_json, "--algorithm", "pathsim", "--node", "proc:0"]
    )
    assert code == 2


def test_query_rejects_pattern_for_topology_algorithm(dblp_json):
    # A supplied --pattern must never be silently ignored.
    code, _ = run_cli(
        [
            "query",
            dblp_json,
            "--algorithm",
            "rwr",
            "--pattern",
            "r-a-.r-a",
            "--node",
            "proc:0",
        ]
    )
    assert code == 2


def test_query_expand_prints_patterns_used(dblp_json):
    code, output = run_cli(
        [
            "query",
            dblp_json,
            "--pattern",
            "p-in.p-in-",
            "--node",
            "paper:0",
            "--expand",
            "--max-expand",
            "8",
            "--top",
            "3",
        ]
    )
    assert code == 0
    assert "relsim over" in output
    assert "p-in.p-in-" in output


def test_query_expand_rejects_topology_algorithm(dblp_json):
    code, _ = run_cli(
        [
            "query",
            dblp_json,
            "--algorithm",
            "rwr",
            "--node",
            "proc:0",
            "--expand",
        ]
    )
    assert code == 2


def test_query_unknown_algorithm_rejected(dblp_json):
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["query", dblp_json, "--algorithm", "nope", "--node", "x"]
        )


def test_query_bad_pattern(dblp_json):
    code, _ = run_cli(
        ["query", dblp_json, "--pattern", "((", "--node", "proc:0"]
    )
    assert code == 2


def test_query_unknown_node(dblp_json):
    code, _ = run_cli(
        ["query", dblp_json, "--pattern", "r-a", "--node", "ghost"]
    )
    assert code == 2


def test_transform(dblp_json, tmp_path):
    out_path = os.path.join(tmp_path, "sigm.json")
    code, output = run_cli(
        ["transform", dblp_json, "--mapping", "dblp2sigm", "--out", out_path]
    )
    assert code == 0
    assert os.path.exists(out_path)
    assert "DBLP2SIGM" in output

    # The transformed database answers queries with the target pattern.
    code, output = run_cli(
        [
            "query",
            out_path,
            "--pattern",
            "r-a.r-a-",
            "--node",
            "proc:0",
        ]
    )
    assert code == 0


def test_explain(dblp_json):
    code, output = run_cli(
        [
            "explain",
            dblp_json,
            "--pattern",
            "r-a-.r-a",
            "--pattern",
            "(r-a-.r-a)-",
        ]
    )
    assert code == 0
    assert "canonical: r-a-.r-a" in output
    assert "order:" in output
    assert "shared sub-plans" in output


def test_explain_expand(dblp_json):
    code, output = run_cli(
        [
            "explain",
            dblp_json,
            "--pattern",
            "r-a-.p-in.p-in-.r-a",
            "--expand",
            "--max-expand",
            "8",
        ]
    )
    assert code == 0
    assert "8 patterns" in output
    assert "shared sub-plans" in output


@pytest.mark.parametrize("command", ["explain", "check"])
def test_explain_expand_rejects_pattern_set(dblp_json, command, capsys):
    code, _ = run_cli(
        [
            command,
            dblp_json,
            "--pattern",
            "r-a",
            "--pattern",
            "r-a-",
            "--expand",
        ]
    )
    assert code == 2
    assert "--expand runs Algorithm 1 on one simple pattern; got 2" in (
        capsys.readouterr().err
    )


def test_patterns(dblp_json):
    code, output = run_cli(
        ["patterns", dblp_json, "--pattern", "r-a-.p-in.p-in-.r-a",
         "--max", "8"]
    )
    assert code == 0
    assert "E_p" in output
    assert "r-a-.p-in.p-in-.r-a" in output


def test_patterns_no_filters_flag(dblp_json):
    code, output = run_cli(
        [
            "patterns",
            dblp_json,
            "--pattern",
            "p-in.p-in-",
            "--no-filters",
            "--max",
            "8",
        ]
    )
    assert code == 0
    assert "constraints used" in output


def test_explain_with_delta_flags_plans_post_delta_snapshot(dblp_json):
    baseline_code, baseline = run_cli(
        ["explain", dblp_json, "--pattern", "p-in.p-in-"]
    )
    code, output = run_cli(
        [
            "explain",
            dblp_json,
            "--pattern",
            "p-in.p-in-",
            "--add-edge",
            "paper:1,p-in,proc:3",
        ]
    )
    assert baseline_code == 0 and code == 0
    assert "applied delta (+1 / -0 edges) in " in output
    assert "(snapshot version 2)" in output
    assert "compiled plan: 1 pattern" in output
    # The report is computed on the post-delta snapshot: the p-in leaf
    # gained an edge, so the estimated nnz differs from the baseline.
    baseline_estimate = [
        line for line in baseline.splitlines() if "est nnz" in line
    ]
    delta_estimate = [
        line for line in output.splitlines() if "est nnz" in line
    ]
    assert baseline_estimate and delta_estimate
    assert baseline_estimate != delta_estimate


def test_explain_delta_flag_validation(dblp_json):
    code, _ = run_cli(
        [
            "explain",
            dblp_json,
            "--pattern",
            "p-in.p-in-",
            "--add-edge",
            "not-an-edge",
        ]
    )
    assert code == 2
    # Removing an absent edge fails the whole command, planning nothing.
    code, output = run_cli(
        [
            "explain",
            dblp_json,
            "--pattern",
            "p-in.p-in-",
            "--remove-edge",
            "ghost,p-in,nowhere",
        ]
    )
    assert code == 2
    assert "compiled plan" not in output


def test_robustness_command():
    code, output = run_cli(
        [
            "robustness",
            "--dataset",
            "dblp-small",
            "--mapping",
            "dblp2sigm",
            "--queries",
            "5",
        ]
    )
    assert code == 0
    assert "RelSim" in output
    # RelSim's row must be exactly zero.
    relsim_line = next(
        line for line in output.splitlines() if line.startswith("RelSim")
    )
    assert "0.000" in relsim_line


def test_unknown_dataset_rejected(tmp_path):
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["generate", "--dataset", "nope", "--out", "x.json"]
        )


def test_stats_live_reports_cache_and_delta_counters(dblp_json):
    code, output = run_cli(["stats", dblp_json, "--live"])
    assert code == 0
    assert "serving (version 1):" in output
    assert "cache_info:" in output
    assert "matrices" in output
    assert "delta_stats:" in output
    assert "last_path" in output
    assert "last_error" not in output  # healthy service: nothing to report


def test_stats_live_applies_delta_flags(dblp_json):
    from repro.graph.io import load_json

    database = load_json(dblp_json)
    paper = sorted(database.nodes_of_type("paper"))[0]
    proc = sorted(database.nodes_of_type("proc"))[-1]
    flag = "{},p-in,{}".format(paper, proc)
    code, output = run_cli(["stats", dblp_json, "--live", "--add-edge", flag])
    assert code == 0
    assert "serving (version 2):" in output
    assert "incremental" in output


def test_stats_delta_flags_require_live(dblp_json, capsys):
    code, _ = run_cli(["stats", dblp_json, "--add-edge", "a,p-in,b"])
    assert code == 2
    assert "require stats --live" in capsys.readouterr().err


@pytest.mark.parametrize(
    "size", ["abc", "-5", "inf", "nan", "1e400", "1e308G"]
)
def test_memory_budget_rejects_sizes_no_int_holds(dblp_json, capsys, size):
    code, _ = run_cli(["stats", dblp_json, "--live", "--memory-budget", size])
    assert code == 2
    assert "--memory-budget" in capsys.readouterr().err


def test_stats_needs_database_or_snapshot(capsys):
    code, _ = run_cli(["stats"])
    assert code == 2
    assert "database path or --snapshot" in capsys.readouterr().err


def test_stats_reads_snapshot_files(dblp_json, tmp_path):
    from repro.api import SimilaritySession
    from repro.graph.io import load_json
    from repro.server import save_snapshot

    path = os.path.join(tmp_path, "stats.npz")
    session = SimilaritySession(load_json(dblp_json))
    session.prepare(algorithm="pathsim", pattern="p-in.p-in-", top_k=5)
    save_snapshot(path, session)

    code, output = run_cli(["stats", "--snapshot", path])
    assert code == 0
    assert "serving snapshot {}".format(path) in output
    assert "0 skipped" in output

    code, output = run_cli(["stats", "--snapshot", path, "--live"])
    assert code == 0
    assert "serving (version 1):" in output
    # Warm start: the preloaded cache starts with zero misses.
    misses_line = next(
        line for line in output.splitlines() if "misses" in line
    )
    assert misses_line.split()[-1] == "0"


def test_memory_budget_holds_on_warm_start(dblp_json, tmp_path):
    from repro.api import SimilaritySession
    from repro.cli import _serving_service
    from repro.graph.io import load_json
    from repro.server import save_snapshot

    path = os.path.join(tmp_path, "budget.npz")
    session = SimilaritySession(load_json(dblp_json))
    session.prepare(algorithm="relsim", pattern="r-a-.p-in.p-in-.r-a")
    save_snapshot(path, session)

    def counters(argv):
        code, output = run_cli(argv)
        assert code == 0
        rows = [line.split() for line in output.splitlines()]
        return {row[0]: row[1] for row in rows if len(row) == 2}

    unbudgeted = counters(["stats", "--snapshot", path, "--live"])
    assert int(unbudgeted["bytes"]) > 1024
    budgeted = counters(
        ["stats", "--snapshot", path, "--live", "--memory-budget", "1K"]
    )
    assert budgeted["memory_budget"] == "1024"
    assert int(budgeted["bytes"]) <= 1024

    args = build_parser().parse_args(
        ["serve", "--snapshot", path, "--memory-budget", "1K"]
    )
    info = _serving_service(args, io.StringIO()).session.cache_info()
    assert info["memory_budget"] == 1024
    assert info["bytes"] <= 1024


def test_serve_needs_database_or_snapshot(capsys):
    code, _ = run_cli(["serve"])
    assert code == 2
    assert "database path or an existing --snapshot" in capsys.readouterr().err


def test_serve_validates_algorithm_flags(dblp_json, capsys):
    # Pattern algorithms demand --pattern; the check fires before any
    # socket is bound, so this exercises serve without serving.
    code, _ = run_cli(["serve", dblp_json, "--algorithm", "relsim"])
    assert code == 2
    assert "needs --pattern" in capsys.readouterr().err
    code, _ = run_cli(
        ["serve", dblp_json, "--algorithm", "rwr", "--pattern", "p-in"]
    )
    assert code == 2
    assert "does not take --pattern" in capsys.readouterr().err


def test_serve_refuses_zero_threads(dblp_json, capsys):
    # Refused while the server is constructed, before any socket binds.
    code, _ = run_cli(
        ["serve", dblp_json, "--pattern", "r-a-.r-a", "--threads", "0",
         "--port", "0"]
    )
    assert code == 2
    assert "error: threads must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--max-batch", "0", "max_batch must be >= 1"),
        ("--window", "-5", "coalesce_window must be >= 0"),
    ],
)
def test_serve_refuses_limits_before_writing_a_snapshot(
    dblp_json, tmp_path, capsys, flag, value, message
):
    snapshot = os.path.join(tmp_path, "new.npz")
    code, _ = run_cli(
        ["serve", dblp_json, "--pattern", "r-a-.r-a", "--snapshot",
         snapshot, flag, value, "--port", "0"]
    )
    assert code == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(snapshot)


def test_check_clean_pattern(dblp_json):
    code, output = run_cli(
        ["check", dblp_json, "--pattern", "r-a-.r-a"]
    )
    assert code == 0
    assert "r-a-.r-a: ok" in output
    assert "endpoints {area->area}" in output
    assert "checked 1 pattern: 0 errors, 0 warnings" in output


def test_check_reports_errors_with_caret(dblp_json):
    code, output = run_cli(["check", dblp_json, "--pattern", "r-a.r-a"])
    assert code == 1
    assert "1 error" in output
    assert "error[endpoint-mismatch] at 4..7" in output
    # Caret line underlines the offending subterm of the rendering.
    lines = output.splitlines()
    caret = next(line for line in lines if line.strip().startswith("^"))
    assert caret.strip() == "^^^"


def test_check_mixed_patterns_exit_code(dblp_json):
    code, output = run_cli(
        [
            "check",
            dblp_json,
            "--pattern",
            "r-a-.r-a",
            "--pattern",
            "no-such-label",
        ]
    )
    assert code == 1
    assert "unknown-label" in output
    assert "checked 2 patterns: 1 error" in output


def test_check_json_output(dblp_json):
    import json

    code, output = run_cli(
        ["check", dblp_json, "--pattern", "r-a.r-a", "--json"]
    )
    assert code == 1
    payload = json.loads(output)
    assert payload["errors"] == 1
    entry = payload["patterns"][0]
    assert entry["ok"] is False
    diagnostic = entry["diagnostics"][0]
    assert diagnostic["code"] == "endpoint-mismatch"
    assert diagnostic["span"] == [4, 7]


def test_check_expand(dblp_json):
    code, output = run_cli(
        [
            "check",
            dblp_json,
            "--pattern",
            "r-a-.p-in.p-in-.r-a",
            "--expand",
            "--max-expand",
            "8",
        ]
    )
    assert code == 0
    assert "checked 8 patterns: 0 errors" in output


def test_check_json_reports_density_warnings(dblp_json):
    import json

    code, output = run_cli(
        ["check", dblp_json, "--pattern", "(r-a.r-a-)*", "--json"]
    )
    assert code == 0
    payload = json.loads(output)
    assert (payload["errors"], payload["warnings"]) == (0, 2)
    entry = payload["patterns"][0]
    assert entry["ok"] is True
    assert [d["code"] for d in entry["diagnostics"]] == [
        "density-budget",
        "star-blowup",
    ]
    assert all(d["severity"] == "warning" for d in entry["diagnostics"])
    assert entry["diagnostics"][0]["span"] == [0, 11]


def test_check_bad_pattern_syntax(dblp_json, capsys):
    code, _ = run_cli(["check", dblp_json, "--pattern", "(((", "--json"])
    assert code == 2
    assert capsys.readouterr().err


# -- watch -------------------------------------------------------------


@pytest.fixture
def watch_server(fig1):
    from repro.api import SimilarityService
    from repro.server import BackgroundServer

    service = SimilarityService(fig1)
    prepared = service.prepare(
        algorithm="relsim", pattern="r-a-.p-in.p-in-.r-a", top_k=2
    )
    with BackgroundServer(service, prepared, port=0) as background:
        yield "http://{}:{}".format(*background.address), prepared


def test_watch_prints_the_snapshot_event(watch_server):
    url, prepared = watch_server
    code, output = run_cli(
        ["watch", url, "--node", "Databases", "--max-events", "1"]
    )
    assert code == 0
    assert output.startswith("snapshot v1")
    for node, score in prepared.run("Databases").items():
        assert "{}={:.4f}".format(node, score) in output


def test_watch_json_lines(watch_server):
    import json

    url, _ = watch_server
    code, output = run_cli(
        [
            "watch", url, "--node", "Databases", "--top", "1",
            "--max-events", "1", "--json",
        ]
    )
    assert code == 0
    record = json.loads(output.strip())
    assert record["event"] == "snapshot"
    assert record["data"]["version"] == 1
    assert len(record["data"]["ranking"]) == 1


def test_watch_reports_server_rejections(watch_server, capsys):
    url, _ = watch_server
    code, output = run_cli(["watch", url, "--node", "NoSuchNode"])
    assert code == 2
    assert output == ""
    assert "404" in capsys.readouterr().err


def test_watch_rejects_unparseable_url(capsys):
    code, _ = run_cli(["watch", "http://", "--node", "x"])
    assert code == 2
    assert "server URL" in capsys.readouterr().err
