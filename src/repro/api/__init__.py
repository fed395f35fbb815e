"""The session facade, registry, and serving layer (the front door).

``SimilaritySession`` owns one shared ``CommutingMatrixEngine`` so every
algorithm built through it reuses materialized matrices; the registry
makes algorithms constructible by name; ``rank_many`` scores whole
workloads in one sparse row slice per pattern.  For request serving,
``session.prepare(...)`` returns a ``PreparedQuery`` (parse / expand /
compile / warm once, run per node on engine-cache hits), and
``SimilarityService`` keeps prepared queries fresh across live database
updates with atomic snapshot swap.
"""

from repro.api.prepared import PreparedQuery
from repro.api.registry import (
    algorithm_class,
    algorithm_parameters,
    available_algorithms,
    register_algorithm,
    unregister_algorithm,
)
from repro.api.service import SimilarityService
from repro.api.session import QueryBuilder, SimilaritySession

__all__ = [
    "PreparedQuery",
    "QueryBuilder",
    "SimilarityService",
    "SimilaritySession",
    "algorithm_class",
    "algorithm_parameters",
    "available_algorithms",
    "register_algorithm",
    "unregister_algorithm",
]
