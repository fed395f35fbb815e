"""``repro serve`` with the benchmark's trace wrappers installed.

Usage (``PYTHONPATH`` must reach the program's ``src``)::

    python benchmarks/e2e/traced_serve.py SPANS.json [serve arguments...]

Runs ``repro.cli.main(["serve", ...])`` in this process after
:func:`tracing.install`.  ``repro serve`` shuts down cleanly on
SIGTERM; once it returns, every recorded span is written to
``SPANS.json``.
"""

import sys

import tracing


def main(argv):
    spans_path, serve_args = argv[0], argv[1:]
    # Import the CLI (and through it the server modules) first, so the
    # names it imported with ``from ... import`` are patched as well.
    import repro.cli

    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        return repro.cli.main(["serve"] + serve_args)
    finally:
        patches.restore()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
