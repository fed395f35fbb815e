"""Command-line interface for the repro library.

Subcommands mirror the research workflow::

    repro generate --dataset dblp --out db.json          # synthesize data
    repro stats db.json                                  # describe it
    repro query db.json --pattern "r-a-.r-a" --node X    # similarity search
    repro query db.json --algorithm rwr --node X         # any registered algo
    repro query db.json --pattern "r-a-.r-a" --node X --expand   # Algorithm 1
    repro explain db.json --pattern "r-a-.r-a" --expand  # compiled plan
    repro check db.json --pattern "r-a-.r-a" --json      # static type check
    repro serve db.json --pattern "r-a-.r-a" --expand    # HTTP server
    repro serve --snapshot snap.npz                      # ... warm-started
    repro watch http://127.0.0.1:8321 --node "proc:0"    # standing query
    repro stats db.json --live                           # cache/delta counters
    repro transform db.json --mapping dblp2sigm --out t.json
    repro patterns db.json --pattern "r-a-.r-a"          # Algorithm 1
    repro robustness --dataset dblp --mapping dblp2sigm  # mini Table 1

Queries go through one :class:`~repro.api.SimilaritySession` per
database, so every algorithm involved shares materialized matrices.

Entry points: ``python -m repro.cli ...`` or :func:`main` for tests.
"""

import argparse
import math
import os
import sys
import time

from repro.api import (
    SimilarityService,
    SimilaritySession,
    algorithm_parameters,
    available_algorithms,
)
from repro.datasets import (
    generate_biomed_small,
    generate_dblp,
    generate_dblp_scale,
    generate_dblp_small,
    generate_mas,
    generate_wsu,
    sample_queries_by_degree,
)
from repro.eval import RobustnessExperiment, robustness_table
from repro.exceptions import EvaluationError, ReproError
from repro.graph.io import load_json, save_json
from repro.graph.statistics import summarize
from repro.lang import parse_pattern
from repro.patterns import generate_patterns
from repro.server import (
    ReproServer,
    load_service,
    load_session,
    save_snapshot,
)
from repro.transform import (
    EXPERIMENT_PATTERNS,
    biomedt,
    dblp2sigm,
    dblp2sigmx,
    map_pattern,
    wsuc2alch,
)

_DATASETS = {
    "dblp": generate_dblp,
    "dblp-small": generate_dblp_small,
    # Scale tiers of the power-law DBLP-like generator (~edge counts;
    # see repro.datasets.scale and benchmarks/bench_scale.py).
    "dblp-scale-1e5": lambda seed=0: generate_dblp_scale(10**5, seed=seed),
    "dblp-scale-1e6": lambda seed=0: generate_dblp_scale(10**6, seed=seed),
    "wsu": generate_wsu,
    "biomed": generate_biomed_small,
    "mas": generate_mas,
}

_MAPPINGS = {
    "dblp2sigm": dblp2sigm,
    "dblp2sigmx": dblp2sigmx,
    "wsuc2alch": wsuc2alch,
    "biomedt": biomedt,
}

_MAPPING_SPECS = {
    "dblp2sigm": "DBLP2SIGM",
    "dblp2sigmx": "DBLP2SIGM",
    "wsuc2alch": "WSUC2ALCH",
    "biomedt": "BioMedT",
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Structurally robust graph similarity search (RelSim).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="synthesize a dataset")
    generate.add_argument("--dataset", choices=sorted(_DATASETS), required=True)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True, help="output JSON path")

    stats = sub.add_parser("stats", help="describe a database")
    stats.add_argument(
        "database", nargs="?", default=None, help="JSON database path"
    )
    stats.add_argument(
        "--snapshot",
        default=None,
        help="describe a serving snapshot file instead of a JSON database",
    )
    stats.add_argument(
        "--live",
        action="store_true",
        help="build a serving service and report engine cache_info and "
        "delta_stats counters",
    )
    _add_memory_budget_flag(stats)
    _add_delta_flags(stats)

    query = sub.add_parser("query", help="similarity search")
    query.add_argument("database")
    query.add_argument(
        "--pattern",
        default=None,
        help="RRE pattern (required for pattern-based algorithms)",
    )
    query.add_argument("--node", required=True, help="query node id")
    query.add_argument("--top", type=int, default=10)
    query.add_argument(
        "--algorithm",
        choices=available_algorithms(),
        default="relsim",
        help="registered algorithm to answer with",
    )
    query.add_argument(
        "--expand",
        action="store_true",
        help="run Algorithm 1 on the simple pattern first (RelSim)",
    )
    query.add_argument(
        "--max-expand",
        type=int,
        default=16,
        help="pattern budget for --expand",
    )
    query.add_argument(
        "--scoring", choices=("pathsim", "count", "cosine"), default="pathsim"
    )
    query.add_argument(
        "--answer-type", default=None, help="restrict answers to a node type"
    )

    serve = sub.add_parser(
        "serve",
        help="HTTP/JSON similarity server (coalescing, live updates, "
        "snapshots)",
    )
    serve.add_argument(
        "database",
        nargs="?",
        default=None,
        help="JSON database path (optional when --snapshot names an "
        "existing snapshot to warm-start from)",
    )
    _add_serving_flags(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8321, help="0 picks a free port"
    )
    serve.add_argument(
        "--snapshot",
        default=None,
        help="warm-start from this snapshot file when it exists, and "
        "checkpoint back to it after every successful /apply",
    )
    serve.add_argument(
        "--window",
        type=float,
        default=2.0,
        help="request-coalescing window in milliseconds",
    )
    serve.add_argument("--max-batch", type=int, default=64)
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="beyond this many in-flight requests the server answers 503",
    )
    serve.add_argument(
        "--no-coalesce",
        action="store_true",
        help="serve each /query as its own run() call (the serial "
        "baseline)",
    )

    watch = sub.add_parser(
        "watch",
        help="follow a standing query's top-k over SSE (POST /subscribe)",
    )
    watch.add_argument(
        "url", help="server base URL, e.g. http://127.0.0.1:8321"
    )
    watch.add_argument("--node", required=True, help="query node to watch")
    watch.add_argument(
        "--top",
        type=int,
        default=None,
        help="ranking size (default: the server's prepared top_k)",
    )
    watch.add_argument(
        "--max-events",
        type=int,
        default=None,
        help="exit after this many events (default: until disconnect)",
    )
    watch.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="socket timeout in seconds (default: wait forever)",
    )
    watch.add_argument(
        "--json",
        action="store_true",
        help="print one JSON object per event instead of text lines",
    )

    explain = sub.add_parser(
        "explain", help="show the compiled evaluation plan for patterns"
    )
    explain.add_argument("database")
    explain.add_argument(
        "--pattern",
        action="append",
        required=True,
        dest="patterns",
        help="RRE pattern (repeat for a set)",
    )
    explain.add_argument(
        "--expand",
        action="store_true",
        help="run Algorithm 1 on the (single) simple pattern first",
    )
    explain.add_argument(
        "--max-expand",
        type=int,
        default=16,
        help="pattern budget for --expand",
    )
    _add_delta_flags(explain)

    check = sub.add_parser(
        "check", help="static type-check patterns against a database schema"
    )
    check.add_argument("database")
    check.add_argument(
        "--pattern",
        action="append",
        required=True,
        dest="patterns",
        help="RRE pattern (repeat for a set)",
    )
    check.add_argument(
        "--expand",
        action="store_true",
        help="run Algorithm 1 on the (single) simple pattern first",
    )
    check.add_argument(
        "--max-expand",
        type=int,
        default=16,
        help="pattern budget for --expand",
    )
    check.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="machine-readable diagnostics (one JSON object)",
    )

    transform = sub.add_parser("transform", help="apply a catalog mapping")
    transform.add_argument("database")
    transform.add_argument("--mapping", choices=sorted(_MAPPINGS), required=True)
    transform.add_argument("--out", required=True)

    patterns = sub.add_parser(
        "patterns", help="run Algorithm 1 on a simple pattern"
    )
    patterns.add_argument("database")
    patterns.add_argument("--pattern", required=True)
    patterns.add_argument("--max", type=int, default=16)
    patterns.add_argument(
        "--no-filters",
        action="store_true",
        help="disable the Section-6 optimizations",
    )

    robustness = sub.add_parser(
        "robustness", help="mini robustness experiment (Table-1 style)"
    )
    robustness.add_argument("--dataset", choices=sorted(_DATASETS), default="dblp-small")
    robustness.add_argument("--mapping", choices=sorted(_MAPPINGS), default="dblp2sigm")
    robustness.add_argument("--queries", type=int, default=20)
    robustness.add_argument("--seed", type=int, default=0)
    return parser


def _add_serving_flags(parser):
    """The flags that define what ``serve`` answers.

    The prepared query — algorithm, pattern, Algorithm-1 expansion,
    scoring, cutoff — plus worker threads, the memory budget and a
    pre-serve edge delta.
    """
    parser.add_argument(
        "--pattern",
        default=None,
        help="RRE pattern (required for pattern-based algorithms)",
    )
    parser.add_argument(
        "--algorithm",
        choices=available_algorithms(),
        default="relsim",
    )
    parser.add_argument("--top", type=int, default=10)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument(
        "--expand",
        action="store_true",
        help="run Algorithm 1 on the simple pattern (RelSim)",
    )
    parser.add_argument("--max-expand", type=int, default=16)
    parser.add_argument(
        "--scoring", choices=("pathsim", "count", "cosine"), default="pathsim"
    )
    _add_memory_budget_flag(parser)
    _add_delta_flags(parser)


def _add_memory_budget_flag(parser):
    parser.add_argument(
        "--memory-budget",
        default=None,
        metavar="BYTES[K|M|G]",
        help="byte budget for the engine's matrix cache (evict/spill "
        "instead of growing unbounded), e.g. 256M",
    )


def _parse_bytes(text):
    """``'512M'`` / ``'2G'`` / ``'65536'`` -> int bytes (None passes)."""
    if text is None:
        return None
    value = str(text).strip()
    suffixes = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}
    scale = 1
    if value and value[-1].lower() in suffixes:
        scale = suffixes[value[-1].lower()]
        value = value[:-1]
    try:
        amount = float(value) * scale
    except ValueError:
        amount = math.nan
    # float() reads "inf", "nan" and "1e400", and a suffix can scale a
    # huge number to inf: no int holds those.
    if not math.isfinite(amount):
        raise EvaluationError(
            "--memory-budget takes bytes with an optional K/M/G suffix "
            "(got {!r})".format(text)
        )
    result = int(amount)
    if result < 1:
        raise EvaluationError(
            "--memory-budget must come to >= 1 byte (got {!r})".format(text)
        )
    return result


def _budget_options(args):
    """Session keywords from ``--memory-budget`` (absent flag = none)."""
    budget = _parse_bytes(args.memory_budget)
    return {} if budget is None else {"memory_budget": budget}


def _add_delta_flags(parser):
    """``--add-edge``/``--remove-edge`` — run on a post-delta snapshot."""
    parser.add_argument(
        "--add-edge",
        action="append",
        default=[],
        dest="add_edges",
        metavar="SRC,LABEL,TGT",
        help="add this edge before running; repeat for a batch",
    )
    parser.add_argument(
        "--remove-edge",
        action="append",
        default=[],
        dest="remove_edges",
        metavar="SRC,LABEL,TGT",
        help="remove this edge before running; repeat for a batch",
    )


def _parse_edge_flag(text):
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 3 or not all(parts):
        raise EvaluationError(
            "edge flags take SRC,LABEL,TGT (got {!r})".format(text)
        )
    return tuple(parts)


def _apply_delta_flags(service, args, out):
    """Apply ``--add-edge``/``--remove-edge`` to ``service`` as one batch.

    Every command that takes the flags then runs on exactly what a live
    service would serve after ``apply()``.  Prints one line when there
    was a delta.
    """
    added = [_parse_edge_flag(text) for text in args.add_edges]
    removed = [_parse_edge_flag(text) for text in args.remove_edges]
    if not added and not removed:
        return
    start = time.perf_counter()
    version = service.apply(edges_added=added, edges_removed=removed)
    print(
        "applied delta (+{} / -{} edges) in {:.1f} ms (snapshot version "
        "{})".format(
            len(added),
            len(removed),
            1000.0 * (time.perf_counter() - start),
            version,
        ),
        file=out,
    )


def _cmd_generate(args, out):
    bundle = _DATASETS[args.dataset](seed=args.seed)
    save_json(bundle.database, args.out)
    print(
        "wrote {} ({} nodes, {} edges)".format(
            args.out,
            bundle.database.num_nodes(),
            bundle.database.num_edges(),
        ),
        file=out,
    )
    return 0


def _cmd_stats(args, out):
    if args.database is None and args.snapshot is None:
        raise EvaluationError("stats needs a database path or --snapshot")
    if (args.add_edges or args.remove_edges) and not args.live:
        raise EvaluationError("edge delta flags require stats --live")
    if not args.live:
        if args.snapshot is not None:
            session, info = load_session(args.snapshot)
            _print_snapshot_info(args.snapshot, info, out)
            database, name = session.view.to_database(), args.snapshot
        else:
            database, name = load_json(args.database), args.database
        print(summarize(database, name=name), file=out)
        return 0
    if args.snapshot is not None:
        service, info = load_service(args.snapshot, **_budget_options(args))
        _print_snapshot_info(args.snapshot, info, out)
        name = args.snapshot
    else:
        service = SimilarityService(
            load_json(args.database), **_budget_options(args)
        )
        name = args.database
    _apply_delta_flags(service, args, out)
    print(summarize(service.database, name=name), file=out)
    print("serving (version {}):".format(service.version), file=out)
    print("  cache_info:", file=out)
    for key, value in sorted(service.session.cache_info().items()):
        print("    {:<14s} {}".format(key, value), file=out)
    print("  delta_stats:", file=out)
    for key, value in sorted(service.delta_stats.items()):
        print("    {:<14s} {}".format(key, value), file=out)
    last_error = service.last_error
    if last_error is not None:
        print("  last_error: {}".format(last_error["message"]), file=out)
    return 0


def _print_snapshot_info(path, info, out):
    print(
        "serving snapshot {}: {} matrices, {} diagonals, {} column norms "
        "preloaded ({} skipped)".format(
            path,
            info["matrices"],
            info["diagonals"],
            info["column_norms"],
            info["skipped"],
        ),
        file=out,
    )


def _algorithm_options(algorithm, pattern, scoring=None, answer_type=None):
    """Map CLI flags onto the constructor keywords ``algorithm`` takes."""
    parameters = algorithm_parameters(algorithm)
    takes_pattern = "pattern" in parameters or "patterns" in parameters
    if takes_pattern and pattern is None:
        raise EvaluationError(
            "algorithm {!r} needs --pattern".format(algorithm)
        )
    if not takes_pattern and pattern is not None:
        hint = "pattern-{}".format(algorithm)
        raise EvaluationError(
            "algorithm {!r} does not take --pattern{}".format(
                algorithm,
                " (did you mean --algorithm {}?)".format(hint)
                if hint in available_algorithms()
                else "",
            )
        )
    options = {}
    if takes_pattern:
        options["pattern"] = parse_pattern(pattern)
    if scoring is not None and "scoring" in parameters:
        options["scoring"] = scoring
    if answer_type is not None and "answer_type" in parameters:
        options["answer_type"] = answer_type
    return options


def _cmd_query(args, out):
    database = load_json(args.database)
    session = SimilaritySession(database)
    options = _algorithm_options(
        args.algorithm,
        args.pattern,
        scoring=args.scoring,
        answer_type=args.answer_type,
    )
    builder = session.query(args.node).using(args.algorithm, **options)
    if args.expand:
        builder.expand_patterns(max_patterns=args.max_expand)
    ranking = builder.rank(top_k=args.top)
    patterns_used = builder.patterns_used if args.expand else None
    if patterns_used:
        print(
            "{} over {} pattern{}:".format(
                args.algorithm,
                len(patterns_used),
                "" if len(patterns_used) == 1 else "s",
            ),
            file=out,
        )
        for pattern in patterns_used:
            print("  {}".format(pattern), file=out)
    for position, (node, score) in enumerate(ranking.items(), start=1):
        print("{:>3}. {:<30s} {:.6f}".format(position, node, score), file=out)
    if not len(ranking):
        print("(no similar nodes found)", file=out)
    return 0


def _pattern_set(args, schema):
    """The ``--pattern`` set, run through Algorithm 1 under ``--expand``."""
    patterns = [parse_pattern(text) for text in args.patterns]
    if not args.expand:
        return patterns
    if len(patterns) != 1:
        raise EvaluationError(
            "--expand runs Algorithm 1 on one simple pattern; got "
            "{}".format(len(patterns))
        )
    generated = generate_patterns(
        patterns[0], schema.constraints, max_patterns=args.max_expand
    )
    return list(generated.patterns)


def _cmd_explain(args, out):
    database = load_json(args.database)
    service = SimilarityService(database)
    _apply_delta_flags(service, args, out)
    patterns = _pattern_set(args, database.schema)
    print(service.session.explain(patterns), file=out)
    return 0


def _cmd_check(args, out):
    """``repro check``: static pattern diagnostics, exit 1 on errors.

    Runs ``session.check`` over the pattern set (after Algorithm-1
    expansion when ``--expand`` is given) and prints every diagnostic
    with its source span: type errors, redundant spellings and the
    planner's density warnings.  Nothing is evaluated, so this is safe
    to run in CI against production pattern corpora.
    """
    import json as json_module

    database = load_json(args.database)
    patterns = _pattern_set(args, database.schema)
    session = SimilaritySession(database)
    results = session.check(patterns)
    errors = warnings = 0
    if args.as_json:
        report = []
        for pattern, diagnostics in results:
            errors += sum(d.is_error for d in diagnostics)
            warnings += sum(not d.is_error for d in diagnostics)
            report.append(
                {
                    "pattern": str(pattern),
                    "ok": not any(d.is_error for d in diagnostics),
                    "diagnostics": [d.to_dict() for d in diagnostics],
                }
            )
        print(
            json_module.dumps(
                {
                    "patterns": report,
                    "errors": errors,
                    "warnings": warnings,
                },
                indent=2,
            ),
            file=out,
        )
    else:
        for position, (pattern, diagnostics) in enumerate(results, start=1):
            pattern_errors = sum(d.is_error for d in diagnostics)
            errors += pattern_errors
            warnings += len(diagnostics) - pattern_errors
            if not diagnostics:
                endpoints = session.engine.compiler.checker.endpoints(pattern)
                print(
                    "[{}] {}: ok (endpoints {})".format(
                        position, pattern, endpoints.describe()
                    ),
                    file=out,
                )
                continue
            print(
                "[{}] {}: {} error{}, {} warning{}".format(
                    position,
                    pattern,
                    pattern_errors,
                    "" if pattern_errors == 1 else "s",
                    len(diagnostics) - pattern_errors,
                    "" if len(diagnostics) - pattern_errors == 1 else "s",
                ),
                file=out,
            )
            for diagnostic in diagnostics:
                report = diagnostic.format(caret=True)
                for line in report.splitlines():
                    print("    {}".format(line), file=out)
        print(
            "checked {} pattern{}: {} error{}, {} warning{}".format(
                len(results),
                "" if len(results) == 1 else "s",
                errors,
                "" if errors == 1 else "s",
                warnings,
                "" if warnings == 1 else "s",
            ),
            file=out,
        )
    return 1 if errors else 0


def _serving_service(args, out):
    """The service ``repro serve`` will publish, warm when possible.

    An existing ``--snapshot`` file wins (warm start: the engine cache
    is preloaded from disk, preparation is pure hits); otherwise the
    positional database is loaded cold.  ``--memory-budget`` and the
    edge delta flags apply either way, so the first served snapshot is
    exactly what a live ``/apply`` would have produced.
    """
    if args.snapshot is not None and os.path.exists(args.snapshot):
        start = time.perf_counter()
        service, info = load_service(args.snapshot, **_budget_options(args))
        print(
            "warm start from {} in {:.1f} ms ({} matrices, {} diagonals, "
            "{} skipped)".format(
                args.snapshot,
                1000.0 * (time.perf_counter() - start),
                info["matrices"],
                info["diagonals"],
                info["skipped"],
            ),
            file=out,
        )
    elif args.database is not None:
        service = SimilarityService(
            load_json(args.database), **_budget_options(args)
        )
    else:
        raise EvaluationError(
            "serve needs a database path or an existing --snapshot file"
        )
    _apply_delta_flags(service, args, out)
    return service


def _cmd_serve(args, out):
    service = _serving_service(args, out)
    options = _algorithm_options(
        args.algorithm, args.pattern, scoring=args.scoring
    )
    expand = {"max_patterns": args.max_expand} if args.expand else None
    prepared = service.prepare(
        algorithm=args.algorithm, top_k=args.top, expand=expand, **options
    )
    server = ReproServer(
        service,
        prepared,
        host=args.host,
        port=args.port,
        coalesce=not args.no_coalesce,
        coalesce_window=args.window / 1000.0,
        max_batch=args.max_batch,
        max_inflight=args.max_inflight,
        threads=args.threads,
        snapshot_path=args.snapshot,
    )
    if args.snapshot is not None and not os.path.exists(args.snapshot):
        stats = save_snapshot(args.snapshot, service)
        print(
            "wrote initial snapshot {} ({} matrices, {} bytes)".format(
                args.snapshot, stats["matrices"], stats["bytes"]
            ),
            file=out,
        )
    server.serve_forever()
    return 0


def _print_sse_event(name, data, as_json, out):
    import json

    if as_json:
        try:
            payload = json.loads(data) if data else None
        except ValueError:
            payload = data
        print(json.dumps({"event": name, "data": payload}), file=out, flush=True)
        return
    try:
        payload = json.loads(data)
    except ValueError:
        print("{}: {}".format(name, data), file=out, flush=True)
        return
    if name in ("snapshot", "update") and isinstance(payload, dict):
        ranking = " ".join(
            "{}={:.4f}".format(node, score)
            for node, score in payload.get("ranking", [])
        )
        changes = []
        for sign, key in (("+", "entered"), ("-", "left"), ("~", "reordered")):
            nodes = payload.get(key)
            if name == "update" and nodes:
                changes.append(sign + ",".join(nodes))
        suffix = " ({})".format(" ".join(changes)) if changes else ""
        print(
            "{} v{}{}: {}".format(
                name, payload.get("version"), suffix, ranking or "(empty)"
            ),
            file=out,
            flush=True,
        )
    else:
        print("{}: {}".format(name, data), file=out, flush=True)


def _cmd_watch(args, out):
    """Stream a standing query's events to stdout, one line per event."""
    import http.client
    import json
    from urllib.parse import urlsplit

    parts = urlsplit(args.url if "//" in args.url else "//" + args.url)
    if not parts.hostname:
        raise EvaluationError(
            "watch needs a server URL like http://127.0.0.1:8321, got "
            "{!r}".format(args.url)
        )
    body = {"node": args.node}
    if args.top is not None:
        body["top_k"] = args.top
    connection = http.client.HTTPConnection(
        parts.hostname, parts.port or 80, timeout=args.timeout
    )
    try:
        connection.request(
            "POST",
            "/subscribe",
            body=json.dumps(body),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        if response.status != 200:
            detail = response.read().decode("utf-8", "replace")
            print(
                "error: server answered {}: {}".format(
                    response.status, detail
                ),
                file=sys.stderr,
            )
            return 2
        seen = 0
        name = None
        data = []
        while args.max_events is None or seen < args.max_events:
            try:
                raw = response.readline()
            except (TimeoutError, OSError):
                break
            if not raw:
                break  # server closed the stream
            line = raw.decode("utf-8", "replace").rstrip("\r\n")
            if line.startswith("event:"):
                name = line[len("event:"):].strip()
            elif line.startswith("data:"):
                data.append(line[len("data:"):].strip())
            elif not line and (name is not None or data):
                # Blank line terminates one SSE frame.
                _print_sse_event(name or "message", "".join(data), args.json, out)
                seen += 1
                name = None
                data = []
        return 0
    finally:
        connection.close()


def _cmd_transform(args, out):
    database = load_json(args.database)
    mapping = _MAPPINGS[args.mapping]()
    transformed = mapping.apply(database)
    save_json(transformed, args.out)
    print(
        "applied {}: {} -> {} ({} nodes, {} edges)".format(
            mapping.name,
            args.database,
            args.out,
            transformed.num_nodes(),
            transformed.num_edges(),
        ),
        file=out,
    )
    return 0


def _cmd_patterns(args, out):
    database = load_json(args.database)
    result = generate_patterns(
        args.pattern,
        database.schema.constraints,
        use_filters=not args.no_filters,
        max_patterns=args.max,
    )
    print(
        "E_p ({} patterns, {} constraints used{}):".format(
            len(result),
            result.constraints_used,
            ", truncated" if result.truncated else "",
        ),
        file=out,
    )
    for pattern in result:
        print("  {}".format(pattern), file=out)
    return 0


def _cmd_robustness(args, out):
    bundle = _DATASETS[args.dataset](seed=args.seed)
    database = bundle.database
    mapping = _MAPPINGS[args.mapping]()
    spec = EXPERIMENT_PATTERNS[_MAPPING_SPECS[args.mapping]]
    variant = mapping.apply(database)
    p_src = parse_pattern(spec["relsim_source"])
    p_tgt = map_pattern(mapping, p_src)
    queries = sample_queries_by_degree(
        database, spec["query_type"], args.queries, seed=args.seed
    )
    # Asymmetric relationships (e.g. disease -> drug) need a scoring
    # whose denominator is not a round-trip count; see RelSim docs.
    asymmetric = spec["answer_type"] != spec["query_type"]
    scoring = "cosine" if asymmetric else "pathsim"
    answer_type = spec["answer_type"] if asymmetric else None
    # One session per variant: RelSim and PathSim on the same side share
    # every commuting matrix they touch.
    experiment = RobustnessExperiment(
        database,
        variant,
        {
            "RelSim": (
                lambda s: s.algorithm(
                    "relsim", pattern=p_src, scoring=scoring,
                    answer_type=answer_type,
                ),
                lambda s: s.algorithm(
                    "relsim", pattern=p_tgt, scoring=scoring,
                    answer_type=answer_type,
                ),
            ),
            "PathSim": (
                lambda s: s.algorithm(
                    "pathsim", pattern=spec["pathsim_source"],
                    answer_type=answer_type,
                ),
                lambda s: s.algorithm(
                    "pathsim", pattern=spec["pathsim_target"],
                    answer_type=answer_type,
                ),
            ),
            "RWR": (
                lambda s: s.algorithm("rwr", answer_type=answer_type),
                lambda s: s.algorithm("rwr", answer_type=answer_type),
            ),
        },
        queries=queries,
        sessions=(
            SimilaritySession(database),
            SimilaritySession(variant),
        ),
        transformation_name=mapping.name,
    )
    print(robustness_table([experiment.run()]), file=out)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "query": _cmd_query,
    "explain": _cmd_explain,
    "check": _cmd_check,
    "serve": _cmd_serve,
    "watch": _cmd_watch,
    "transform": _cmd_transform,
    "patterns": _cmd_patterns,
    "robustness": _cmd_robustness,
}


def main(argv=None, out=None):
    """CLI entry point; returns a process exit code."""
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except ReproError as error:
        print("error: {}".format(error), file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print("error: {}".format(error), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
