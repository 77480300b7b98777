"""Start ``repro-study`` with the benchmark's span wrappers installed.

Usage::

    python3 perfbench/launch.py SPANS_DIR serve [serve flags...]

Installs the wrappers of :mod:`spans` (writing one span file per process
into ``SPANS_DIR``), then hands the remaining arguments to
``repro.cli.main``.  Fleet workers are forked from this process, so they
inherit the wrappers.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from spans import install  # noqa: E402

if __name__ == "__main__":
    recorder = install(sys.argv[1])
    from repro.cli import main

    code = main(sys.argv[2:])
    recorder.flush()
    raise SystemExit(code)
