"""``python -m benchmarks.e2e``: the harness (see :mod:`.harness`)."""

import sys

from benchmarks.e2e.harness import main

sys.exit(main())
