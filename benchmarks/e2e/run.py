"""Entry point for the benchmark driver: ``python3 benchmarks/e2e/run.py``.

The same command line as ``PYTHONPATH=src python -m benchmarks.e2e``; this
script only puts the checkout's root and ``src/`` on ``sys.path`` first, so
the command needs no environment.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
