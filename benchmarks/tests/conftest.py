"""Put the benchmark modules and the covertsim sources on the import path.

Run from the repository root with ``python3 -m pytest benchmarks/tests``;
the repository's own ``pytest`` run collects only ``tests/``.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))
