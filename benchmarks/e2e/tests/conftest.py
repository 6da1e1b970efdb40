"""Harness tests: ``python -m pytest benchmarks/e2e/tests``.

Not part of the tier-1 suite (``testpaths = ["tests"]``); they check the
ruler, not the program.
"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent.parent / "src"))
