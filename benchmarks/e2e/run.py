"""Entry point for ``python3 benchmarks/e2e/run.py`` (see ``BENCHMARK.json``).

Puts the repo root and ``src`` on the path, so the command needs no
``PYTHONPATH``; ``python -m benchmarks.e2e`` from the repo root is the
same thing.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e.harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
