"""HeteSim (Shi et al., TKDE 2014): relevance for asymmetric meta-paths.

HeteSim models two random walkers starting from the two endpoints and
walking toward each other along the meta-path; the score is the cosine of
their mid-point arrival distributions::

    HeteSim(s, t | p) = U_L(s, :) . U_R(t, :)
                        / (|U_L(s, :)| |U_R(t, :)|)

where ``U_L`` multiplies the row-normalized transition matrices of the
first half of the path and ``U_R`` those of the reversed second half.
Odd-length paths are handled with the original paper's *edge
decomposition*: the middle relation ``E`` is split as ``E = E_out E_in``
through one artificial node per edge instance, which makes every path
even.

Because scores are cosine-normalized they also work when source and
target types differ — this is how the paper evaluates disease-to-drug
queries on BioMed where PathSim's formula is undefined.
"""

import numpy as np
import scipy.sparse as sp

from repro.exceptions import EvaluationError
from repro.graph.matrices import dense_rows, row_normalize
from repro.lang.ast import simple_steps
from repro.lang.parser import as_patterns
from repro.similarity.base import SimilarityAlgorithm, resolve_view


def _step_matrix(view, name, reversed_):
    matrix = view.adjacency(name)
    return matrix.T.tocsr() if reversed_ else matrix


def _edge_decomposition(matrix):
    """Split ``matrix`` into ``(out, in)`` through one node per edge.

    ``out`` is ``n x e`` and ``in`` is ``e x m`` with
    ``out @ in == matrix``; multiplicities are preserved by repeating
    edge columns, so an entry of ``c`` (a summed parallel edge)
    decomposes through ``c`` artificial nodes, exactly as HeteSim's
    original edge decomposition prescribes.
    """
    coo = matrix.tocoo()
    if not np.allclose(coo.data, np.rint(coo.data)):
        raise EvaluationError(
            "edge decomposition needs integer edge multiplicities; got "
            "fractional weights (min {:.4g})".format(coo.data.min())
        )
    multiplicities = np.asarray(
        np.rint(coo.data), dtype=np.int64
    ).clip(min=0)
    rows = np.repeat(coo.row, multiplicities)
    cols = np.repeat(coo.col, multiplicities)
    count = int(multiplicities.sum())
    data = np.ones(count)
    out = sp.csr_matrix(
        (data, (rows, np.arange(count))), shape=(matrix.shape[0], count)
    )
    into = sp.csr_matrix(
        (data, (np.arange(count), cols)), shape=(count, matrix.shape[1])
    )
    return out, into


class HeteSim(SimilarityAlgorithm):
    """HeteSim relevance search along a simple (possibly asymmetric) path.

    Parameters
    ----------
    pattern:
        A *simple* pattern — HeteSim is defined on meta-paths.  For RREs,
        use RelSim.
    answer_type:
        The node type to rank (e.g. ``"drug"`` for disease queries).
    """

    name = "HeteSim"

    pattern_local = True
    #: The halves are sparse products of row-normalized step matrices;
    #: node padding adds empty rows/columns without touching any stored
    #: entry, so existing scores are bitwise stable.
    delta_growth_sensitive = False

    def __init__(
        self, database, pattern, answer_type=None, view=None, engine=None
    ):
        super().__init__(database, answer_type=answer_type)
        pattern = as_patterns([pattern])[0]
        try:
            steps = simple_steps(pattern)
        except ValueError as error:
            raise EvaluationError(
                "HeteSim needs a simple meta-path: {}".format(error)
            ) from None
        if not steps:
            raise EvaluationError("HeteSim needs a non-empty meta-path")
        self.pattern = pattern
        self._view = resolve_view(database, view=view, engine=engine)
        self._left, self._right = self._build_halves(steps)
        self._target_norms = None

    def _build_halves(self, steps):
        matrices = [
            _step_matrix(self._view, name, reversed_)
            for name, reversed_ in steps
        ]
        if len(matrices) % 2 == 1:
            middle = len(matrices) // 2
            out, into = _edge_decomposition(matrices[middle])
            matrices = matrices[:middle] + [out, into] + matrices[middle + 1 :]
        half = len(matrices) // 2
        left = row_normalize(matrices[0])
        for matrix in matrices[1:half]:
            left = (left @ row_normalize(matrix)).tocsr()
        # Right half walks backwards from the target toward the middle.
        right = row_normalize(matrices[-1].T.tocsr())
        for matrix in reversed(matrices[half:-1]):
            right = (right @ row_normalize(matrix.T.tocsr())).tocsr()
        return left, right

    def _norms_of_right(self):
        if self._target_norms is None:
            squared = self._right.multiply(self._right).sum(axis=1)
            self._target_norms = np.sqrt(np.asarray(squared).ravel())
        return self._target_norms

    def prepare_scoring(self):
        """Warm the target-norm vector (the halves are built at init)."""
        self._norms_of_right()
        return self

    def score_rows(self, queries):
        """Batch score rows via one left-row slice and one sparse product.

        ``score(q, v) = (L[q] . R[v]) / (|L[q]| |R[v]|)`` for all
        queries and nodes at once: ``L[rows, :] @ R^T`` replaces the
        per-candidate dot products, and the target norms are computed
        once per instance.  Scores with a zero source or target norm are
        0 (no walk reaches the midpoint from that endpoint).
        """
        queries = list(queries)
        indices = self._view.query_indices(queries)
        left_rows = self._left[indices, :].tocsr()
        squared = left_rows.multiply(left_rows).sum(axis=1)
        source_norms = np.sqrt(np.asarray(squared).ravel())
        product = (left_rows @ self._right.T).tocsr()
        products = dense_rows(product, range(product.shape[0]))
        target_norms = self._norms_of_right()
        denominator = source_norms[:, None] * target_norms[None, :]
        scores = np.zeros_like(products)
        defined = denominator > 0
        scores[defined] = products[defined] / denominator[defined]
        return indices, scores
