"""Quickstart: build a graph, run similarity search, survive a schema change.

This walks the paper's Figure-1 example end to end:

1. build the DBLP-style bibliographic fragment and open a
   ``SimilaritySession`` — the one entry point: every algorithm asked of
   the session shares one engine of materialized matrices;
2. ask "which research area is most similar to Data Mining?" with
   PathSim, SimRank, RWR and RelSim, all by registry name;
3. restructure the database into the SIGMOD-Record style (areas attach
   to proceedings instead of papers) with the DBLP2SIGM transformation;
4. show that the baselines change their answers while RelSim — with the
   Theorem-2-translated RRE pattern — returns exactly the same ranking;
5. serve the query shape: prepare once, run per node on cached state,
   and absorb a live edge update through ``SimilarityService``'s atomic
   snapshot swap;
6. serve it over the network: boot the HTTP front-end on a free port
   and ask the same question with a JSON request.

Run:  python examples/quickstart.py
"""

import json
import urllib.request

from repro import SimilarityService, SimilaritySession, parse_pattern
from repro.server import BackgroundServer
from repro.transform import dblp2sigm, map_pattern
from repro.datasets import figure1_dblp


def show_ranking(title, ranking):
    print("  {}:".format(title))
    for node, score in ranking.items():
        print("    {:<22s} {:.4f}".format(node, score))


def main():
    # ------------------------------------------------------------------
    # 1. The Figure-1(a) fragment: papers, conferences, research areas.
    # ------------------------------------------------------------------
    db = figure1_dblp()
    session = SimilaritySession(db)
    print("Original database:", db)
    print()

    # ------------------------------------------------------------------
    # 2. Similarity search on the original structure.
    #    The relationship: areas are similar when the same conferences
    #    publish papers in them (area <- paper -> proc <- paper -> area).
    #    One session: PathSim and RelSim share the commuting matrices.
    # ------------------------------------------------------------------
    pattern = parse_pattern("r-a-.p-in.p-in-.r-a")
    query = "DataMining"

    print("Who is most similar to {!r}?".format(query))
    show_ranking(
        "PathSim", session.query(query).using("pathsim", pattern=pattern).rank()
    )
    show_ranking("SimRank", session.query(query).using("simrank").rank())
    show_ranking("RWR", session.query(query).using("rwr").rank())
    relsim = session.algorithm("relsim", pattern=pattern)
    show_ranking("RelSim", relsim.rank(query))
    print()

    # ------------------------------------------------------------------
    # 3. Restructure: the SIGMOD-Record style of Figure 1(b).
    # ------------------------------------------------------------------
    mapping = dblp2sigm()
    variant = mapping.apply(db)
    print("Transformed database (DBLP2SIGM):", variant)
    print("   r-a edges now:", sorted(variant.edges("r-a")))
    print()

    # ------------------------------------------------------------------
    # 4. Same question over the new structure — a fresh session, because
    #    a session is a snapshot of one database.  Baselines run on the
    #    new topology; RelSim uses the pattern translated by the
    #    Theorem-2 mapping: r-a  =>  <<p-in.r-a>>.
    # ------------------------------------------------------------------
    translated = map_pattern(mapping, pattern)
    variant_session = SimilaritySession(variant)
    print("RelSim pattern over the new structure:", translated)
    print()

    print("Who is most similar to {!r} now?".format(query))
    # The natural simple pattern over the new structure for PathSim:
    show_ranking(
        "PathSim",
        variant_session.query(query).using("pathsim", pattern="r-a-.r-a").rank(),
    )
    show_ranking("SimRank", variant_session.query(query).using("simrank").rank())
    show_ranking("RWR", variant_session.query(query).using("rwr").rank())
    show_ranking(
        "RelSim",
        variant_session.query(query).using("relsim", pattern=translated).rank(),
    )
    print()

    original = relsim.rank(query).top()
    after = (
        variant_session.query(query)
        .using("relsim", pattern=translated)
        .rank()
        .top()
    )
    print("RelSim ranking before:", original)
    print("RelSim ranking after: ", after)
    assert original == after, "RelSim must be structurally robust!"
    print("=> identical: RelSim is structurally robust (Corollary 1).")
    print()

    # ------------------------------------------------------------------
    # 5. Serving: prepare the query shape once (parse, compile, warm),
    #    run it per node with near-zero overhead, and keep serving
    #    through a live update — the service rebuilds a fresh snapshot
    #    off the serving path and swaps it in atomically, re-binding
    #    the prepared handle.
    # ------------------------------------------------------------------
    service = SimilarityService(db)
    prepared = service.prepare(algorithm="relsim", pattern=pattern, top_k=3)
    show_ranking(
        "RelSim (prepared, v{})".format(service.version), prepared.run(query)
    )
    service.apply(edges_added=[("CodeMining", "p-in", "VLDB")])
    show_ranking(
        "RelSim (prepared, v{} after live update)".format(service.version),
        prepared.run(query),
    )
    print()

    # ------------------------------------------------------------------
    # 6. Over the network: the same service behind the asyncio HTTP
    #    front-end (what `repro serve` runs).  port=0 binds a free
    #    port; concurrent /query requests would coalesce into batches.
    # ------------------------------------------------------------------
    with BackgroundServer(service, prepared, port=0) as server:
        url = "http://{}:{}/query".format(*server.address)
        response = urllib.request.urlopen(
            urllib.request.Request(
                url, data=json.dumps({"node": query}).encode()
            ),
            timeout=30,
        )
        answer = json.loads(response.read())
    print("HTTP POST /query {!r} (version {}):".format(
        query, answer["version"]
    ))
    for node, score in answer["ranking"]:
        print("    {:<22s} {:.4f}".format(node, score))
    assert answer["ranking"] == [
        [node, score] for node, score in prepared.run(query).items()
    ], "the wire answer must match the in-process one"


if __name__ == "__main__":
    main()
