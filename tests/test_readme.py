"""README's "Library" example runs as written, so an API change cannot leave it stale."""

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
