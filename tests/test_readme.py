"""README stays true to the tree: its "Library" example runs as written, so an API
change cannot leave it stale, and every benchmark record it cites exists."""

import json
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md (Library)", "exec"), namespace)
    lo, hi = namespace["lo"], namespace["hi"]
    assert lo.shape == hi.shape == namespace["grid"].shape
    assert np.all(np.isfinite(lo)) and np.all(lo <= hi)


def test_every_named_bench_record_exists_and_parses():
    # the "Sweep cost" section cites its runs by file: each must be at the root, as JSON
    names = set(re.findall(r"BENCH_\w+\.json", README.read_text()))
    assert names
    for name in sorted(names):
        path = README.parent / name
        assert path.is_file(), name
        json.loads(path.read_text())
