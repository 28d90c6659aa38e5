"""Put the simulator sources and the benchmark's modules on the path."""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parents[1]
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
