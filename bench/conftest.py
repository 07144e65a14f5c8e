"""Let the benchmark's tests import ``dynsub`` from this source tree."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
