"""Shared benchmark fixtures and result emission.

Every benchmark prints the paper-table analogue it regenerates and also
writes it to ``benchmarks/results/<name>.txt`` so the rows survive
pytest's output capturing.  Each table ends with a ``host:`` line (usable
cores and the Python, numpy and scipy versions), because a speed ratio
means little without the machine it was measured on.  Run with::

    pytest benchmarks/ --benchmark-only -s

Dataset sizes are scaled to laptop budgets (the paper used a 64 GB
MATLAB server); the *shape* of each table — who wins, by roughly what
factor — is the reproduction target, not absolute numbers (see the
README's "Benchmarks" section).
"""

import os
import platform

import numpy
import pytest
import scipy

from repro.datasets import (
    generate_biomed_small,
    generate_dblp,
    generate_dblp_small,
    generate_wsu,
)
from repro.graph.matrices import usable_cores

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture(scope="session")
def emit():
    """Print a table and persist it under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    host = "host: {} usable cores, Python {}, numpy {}, scipy {}".format(
        usable_cores(),
        platform.python_version(),
        numpy.__version__,
        scipy.__version__,
    )

    def _emit(name, text):
        text = text + "\n" + host
        print()
        print(text)
        with open(os.path.join(RESULTS_DIR, name + ".txt"), "w") as handle:
            handle.write(text + "\n")

    return _emit


@pytest.fixture(scope="session")
def dblp_bundle():
    """DBLP analogue sized so SimRank's dense solve stays tractable."""
    return generate_dblp_small(seed=0)


@pytest.fixture(scope="session")
def dblp_large_bundle():
    """Larger DBLP for the efficiency table (no SimRank there).

    ``REPRO_BENCH_SCALE=smoke`` (the CI benchmark smoke job) shrinks it
    so the efficiency gates run in CI minutes; thresholds are ratios,
    so they hold at either size.
    """
    if os.environ.get("REPRO_BENCH_SCALE") == "smoke":
        return generate_dblp(
            num_areas=8, num_procs=60, num_papers=800, num_authors=400, seed=0
        )
    return generate_dblp(
        num_areas=15, num_procs=120, num_papers=2000, num_authors=900, seed=0
    )


@pytest.fixture(scope="session")
def wsu_bundle():
    return generate_wsu(seed=0)


@pytest.fixture(scope="session")
def biomed_bundle():
    return generate_biomed_small(seed=0)
