"""Make ``e2ebench`` (this directory) and ``repro`` (``src/``) importable
for ``pytest benchmarks/e2e`` without any installation step."""

import pathlib
import sys

_HERE = pathlib.Path(__file__).resolve().parent
for _path in (_HERE.parents[1] / "src", _HERE):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))
