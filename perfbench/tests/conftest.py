"""Make the benchmark modules and the program importable from the tests.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import measure  # noqa: E402

measure.pin_blas_threads()
