"""Puts the benchmark's modules and the program's sources on ``sys.path``.

Run the benchmark's own tests from the repository root with
``python3 -m pytest perfbench/tests -q``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
