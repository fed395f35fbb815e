"""repro — reproduction of "Structural Generalizability: The Case of
Similarity Search" (SIGMOD 2021).

Public API tour
---------------
Build a graph database::

    from repro import GraphDatabase, Schema
    schema = Schema(["p-in", "r-a"])
    db = GraphDatabase(schema)
    db.add_edge("paper:1", "p-in", "VLDB")

Open a session — the one entry point for similarity search.  It owns a
shared :class:`CommutingMatrixEngine`, so every algorithm built through
it reuses the same materialized sparse matrices::

    from repro import SimilaritySession
    session = SimilaritySession(db)

Ask a similarity query fluently.  Algorithms are resolved by name
through the registry (``available_algorithms()`` lists them;
``register_algorithm`` plugs in your own)::

    ranking = (
        session.query("VLDB")
        .using("relsim", pattern="p-in-.r-a.r-a-.p-in")
        .top(10)
    )

The usability layer (Section 5): hand over a *simple* pattern and let
Algorithm 1 expand it into the structurally robust RRE set::

    ranking = (
        session.query("VLDB")
        .using("relsim", pattern="p-in-.p-in")
        .expand_patterns(max_patterns=16)
        .top(10)
    )

Score a whole workload in one pass — one sparse row slice per pattern
instead of one extraction per query::

    rankings = session.rank_many(
        ["VLDB", "SIGMOD"], algorithm="relsim",
        pattern="p-in-.r-a.r-a-.p-in", top_k=10,
    )

Serve the same query shape many times: prepare once (parse, expand,
compile, warm), run per node on engine-cache hits — and keep serving
through live updates with :class:`SimilarityService`'s atomic snapshot
swap::

    prepared = session.prepare(
        algorithm="relsim", pattern="p-in-.r-a.r-a-.p-in", top_k=10)
    prepared.run("VLDB")

    from repro import SimilarityService
    service = SimilarityService(db)
    prepared = service.prepare(
        algorithm="relsim", pattern="p-in-.r-a.r-a-.p-in", top_k=10)
    service.apply(edges_added=[("paper:2", "p-in", "VLDB")])
    prepared.run("VLDB")   # already re-bound to the new snapshot

Direct construction still works (the facade wraps, it doesn't break)::

    from repro import RelSim
    relsim = RelSim(db, "p-in-.r-a.r-a-.p-in")
    relsim.rank("VLDB", top_k=10)

Transform a database and carry the pattern across::

    from repro.transform import dblp2sigm, map_pattern
    mapping = dblp2sigm()
    variant = mapping.apply(db)
    translated = map_pattern(mapping, relsim.patterns[0])
"""

from repro.api import (
    PreparedQuery,
    QueryBuilder,
    SimilarityService,
    SimilaritySession,
    available_algorithms,
    register_algorithm,
)

from repro.analysis import Diagnostic, PatternTypeChecker
from repro.constraints import Atom, Egd, Tgd, parse_tgd, satisfies
from repro.core import RelSim
from repro.exceptions import (
    AsymmetricPatternError,
    ConfigurationError,
    ConstraintError,
    CyclicPremiseError,
    EvaluationError,
    NodeTypeConflictError,
    NotInvertibleError,
    PatternSyntaxError,
    PatternTypeError,
    RegistryError,
    ReproError,
    SchemaError,
    StarDivergenceError,
    TransformationError,
    UnknownEdgeError,
    UnknownLabelError,
    UnknownNodeError,
)
from repro.graph import GraphDatabase, MatrixView, NodeIndexer, Schema
from repro.lang import (
    CommutingMatrixEngine,
    enumerate_instances,
    parse_pattern,
    simple_pattern,
)
from repro.patterns import generate_patterns
from repro.similarity import (
    RWR,
    HeteSim,
    PathSim,
    PatternRWR,
    PatternSimRank,
    Ranking,
    SimRank,
)

__version__ = "1.0.0"

__all__ = [
    "Atom",
    "AsymmetricPatternError",
    "CommutingMatrixEngine",
    "ConfigurationError",
    "ConstraintError",
    "CyclicPremiseError",
    "Diagnostic",
    "Egd",
    "EvaluationError",
    "GraphDatabase",
    "HeteSim",
    "MatrixView",
    "NodeIndexer",
    "NodeTypeConflictError",
    "NotInvertibleError",
    "PathSim",
    "PatternRWR",
    "PatternSimRank",
    "PatternSyntaxError",
    "PatternTypeChecker",
    "PatternTypeError",
    "PreparedQuery",
    "QueryBuilder",
    "RWR",
    "Ranking",
    "RegistryError",
    "RelSim",
    "ReproError",
    "Schema",
    "SchemaError",
    "SimRank",
    "SimilarityService",
    "SimilaritySession",
    "StarDivergenceError",
    "Tgd",
    "TransformationError",
    "UnknownEdgeError",
    "UnknownLabelError",
    "UnknownNodeError",
    "available_algorithms",
    "enumerate_instances",
    "generate_patterns",
    "parse_pattern",
    "parse_tgd",
    "register_algorithm",
    "satisfies",
    "simple_pattern",
]
