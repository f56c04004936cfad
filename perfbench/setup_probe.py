"""Set-up probe: in a fresh interpreter, import ggdr and load the datasets.

Usage: setup_probe.py DIR... ; prints the elapsed seconds.
"""

import sys
import time

start = time.perf_counter()
import ggdr  # noqa: E402,F401
from ggdr.dataio import load_dataset  # noqa: E402

for directory in sys.argv[1:]:
    load_dataset(directory)
print(repr(time.perf_counter() - start))
