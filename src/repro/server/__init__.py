"""The network serving subsystem: HTTP front-end, batching, snapshots.

Everything below :mod:`repro.api` is an in-process library; this
package is what turns it into a deployable service:

* :mod:`repro.server.app` — an asyncio stdlib HTTP/JSON server
  (``repro serve``) over :class:`~repro.api.service.SimilarityService`
  with request coalescing, backpressure (a saturated server answers
  503 + ``Retry-After``, it never hangs), and ``/healthz`` /
  ``/statz`` introspection;
* :mod:`repro.server.batching` — the micro-batching queue that folds
  concurrent top-k requests for one prepared query into a single
  ``run_many`` call;
* :mod:`repro.server.snapshot` — save/load of a full serving snapshot
  (format 3: the graph as schema, node table and per-label CSR, plus
  the materialized commuting matrices and derived vectors; no
  database) so a restarted server warm-starts from disk with
  ``np.load`` plus a cache preload instead of recomputing;
* :mod:`repro.server.protocol` — the JSON wire format and the mapping
  from library exceptions to HTTP statuses.
"""

from repro.server.app import BackgroundServer, ReproServer
from repro.server.batching import CoalescingBatcher
from repro.server.snapshot import (
    SNAPSHOT_FORMAT,
    load_service,
    load_session,
    save_snapshot,
)

__all__ = [
    "BackgroundServer",
    "CoalescingBatcher",
    "ReproServer",
    "SNAPSHOT_FORMAT",
    "load_service",
    "load_session",
    "save_snapshot",
]
