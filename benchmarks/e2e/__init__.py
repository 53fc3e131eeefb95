"""End-to-end wall-clock benchmark of the continuous-deployment platform.

See ``README.md`` in this directory and ``BENCHMARK.json`` at the
repository root. Importing the package makes ``repro`` importable from
the checkout's ``src/``, so the benchmark's command needs no
``PYTHONPATH``.
"""

import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[2] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
