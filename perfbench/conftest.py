"""Make the benchmark's modules and the program importable in its tests.

Run with ``python -m pytest perfbench -q`` from the root of a checkout.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
