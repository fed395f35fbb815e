"""64-bit index safety regression tests.

SciPy builds CSR matrices with int32 indices while nnz fits, and
upcasts to int64 past 2^31 entries.  The engine's direct buffer readers
(``dense_rows``, ``pathsim_rows``, the ``trusted_csr`` constructor) and
the snapshot warm-start path must therefore be dtype-agnostic: the same
graph served through int64-index matrices has to produce bitwise
identical rankings.  (The linter's ``int32-index`` rule bans the
opposite bug — hand-building int32 indices that overflow silently.)
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import SimilaritySession
from repro.datasets import generate_dblp
from repro.graph.matrices import dense_rows, trusted_csr
from repro.lang.matrix_semantics import PlanEntry, pathsim_rows

TOP_K = 10

SPECS = [
    ("relsim", {"pattern": "r-a-.p-in.p-in-.r-a"}),
    ("pathsim", {"pattern": "p-in.p-in-"}),
]


@pytest.fixture(scope="module")
def database():
    return generate_dblp(
        num_areas=3, num_procs=6, num_papers=36, num_authors=20, seed=23
    ).database


def _upcast(matrix):
    """The same CSR with int64 index buffers (values untouched)."""
    clone = trusted_csr(
        matrix.data.copy(),
        matrix.indices.astype(np.int64),
        matrix.indptr.astype(np.int64),
        matrix.shape[0],
    )
    assert clone.indices.dtype == np.int64
    return clone


def _example_matrix(seed=3, n=40, nnz=120):
    rng = np.random.RandomState(seed)
    rows = rng.randint(0, n, size=nnz)
    cols = rng.randint(0, n, size=nnz)
    data = rng.rand(nnz)
    matrix = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    matrix.sum_duplicates()
    return matrix


def test_dense_rows_is_index_dtype_agnostic():
    matrix = _example_matrix()
    upcast = _upcast(matrix)
    indices = [0, 7, 31, 39]
    assert np.array_equal(
        dense_rows(matrix, indices), dense_rows(upcast, indices)
    )


def test_pathsim_rows_is_index_dtype_agnostic():
    matrix = _example_matrix()
    matrix = matrix + matrix.T  # pathsim wants a symmetric matrix
    matrix = matrix.tocsr()
    upcast = _upcast(matrix)
    indices = np.array([1, 5, 17])
    assert np.array_equal(
        pathsim_rows(matrix, indices), pathsim_rows(upcast, indices)
    )


def _rankings(session, queries):
    prepared = [
        session.prepare(algorithm=name, top_k=TOP_K, **options)
        for name, options in SPECS
    ]
    return [
        [(query, list(handle.run(query).items())) for query in queries]
        for handle in prepared
    ]


def test_int64_index_warm_start_serves_identical_rankings(database):
    queries = sorted(database.nodes_of_type("proc"))[:4]

    warm = SimilaritySession(database)
    expected = _rankings(warm, queries)
    records = warm.engine.export_cache()
    assert records, "warm session should have cached matrices"

    upcast_records = [
        (
            text,
            PlanEntry.of(_upcast(entry.matrix), entry.norms, entry.diagonal),
        )
        for text, entry in records
    ]
    cold = SimilaritySession(database)
    loaded = cold.engine.preload(upcast_records)
    assert loaded["matrices"] == len(upcast_records)
    assert loaded["skipped"] == 0

    actual = _rankings(cold, queries)
    # Bitwise equality: same candidates, same order, same float scores.
    assert actual == expected


def test_engine_matrix_survives_int64_preload(database):
    from repro.lang.parser import parse_pattern

    pattern = parse_pattern("p-in.p-in-")
    warm = SimilaritySession(database)
    reference = warm.engine.matrix(pattern)

    cold = SimilaritySession(database)
    cold.engine.preload(
        [
            (text, PlanEntry.of(_upcast(entry.matrix)))
            for text, entry in warm.engine.export_cache()
        ]
    )
    served = cold.engine.matrix(pattern)
    assert served.shape == reference.shape
    assert (served != reference).nnz == 0
