"""Smoke tests: every example script and the README's code must run.

Each example contains its own assertions (e.g. RelSim rankings identical
across variants), so a zero exit code means the demonstrated claims held.
"""

import os
import re
import subprocess
import sys

import pytest

from repro.api import available_algorithms, unregister_algorithm

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def run_example(name):
    return subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name)],
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize(
    "script, marker",
    [
        ("quickstart.py", "RelSim is structurally robust"),
        ("course_catalog.py", "identical lists on both catalog shapes"),
        ("drug_repurposing.py", "Top-5 drugs"),
        ("custom_schema_mapping.py", "robust across the custom transformation"),
    ],
)
def test_example_runs_and_reaches_conclusion(script, marker):
    result = run_example(script)
    assert result.returncode == 0, result.stderr[-2000:]
    assert marker in result.stdout


def test_readme_python_blocks_run_in_order():
    # One namespace, as a reader pasting the blocks into one session.
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) >= 10
    namespace = {"__name__": "readme"}
    registered = set(available_algorithms())
    try:
        for number, block in enumerate(blocks, start=1):
            code = compile(block, "README.md block {}".format(number), "exec")
            try:
                exec(code, namespace)
            except Exception as error:
                raise AssertionError(
                    "README.md python block {} failed".format(number)
                ) from error
    finally:  # a block registers an algorithm of its own
        for name in set(available_algorithms()) - registered:
            unregister_algorithm(name)
