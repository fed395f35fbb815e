"""Package metadata and install script.

The environment may have setuptools but no ``wheel`` package, in which
case PEP-517 editable installs fail with ``invalid command
'bdist_wheel'``; this script lets ``pip install -e .
--no-build-isolation --no-use-pep517`` (and plain ``python setup.py
develop``) work offline.  All metadata lives here.
"""

import os
import re

from setuptools import find_packages, setup

HERE = os.path.dirname(os.path.abspath(__file__))


def _version():
    # Read, not imported: importing repro needs numpy and scipy.
    with open(os.path.join(HERE, "src", "repro", "__init__.py")) as handle:
        return re.search(
            r'^__version__ = "([^"]+)"', handle.read(), re.MULTILINE
        ).group(1)


setup(
    name="repro",
    version=_version(),
    description="Structural Generalizability: The Case of Similarity Search",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
