"""README stays true to the tree: its "Library" example and its "Command line"
commands on its "Config file" run as written, so an API change cannot leave them
stale, and every benchmark record it cites exists."""

import json
import re
import shlex
from pathlib import Path

import numpy as np

from gammasub.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md (Library)", "exec"), namespace)
    lo, hi = namespace["lo"], namespace["hi"]
    assert lo.shape == hi.shape == namespace["grid"].shape
    assert np.all(np.isfinite(lo)) and np.all(lo <= hi)


def block_after(heading):
    """The first fenced block of README's section under heading."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```\w*\n(.*?)```", section, flags=re.S).group(1)


def test_command_line_example_runs(tmp_path, monkeypatch):
    # the commands in order, in one directory, with the config block as
    # model.cfg and a four-week losses.csv for ingest
    monkeypatch.chdir(tmp_path)
    (tmp_path / "model.cfg").write_text(block_after("Config file"))
    (tmp_path / "losses.csv").write_text(
        "date,loss\n" + "".join(f"2020-01-{day:02d},{1.5 + day % 3}\n" for day in range(6, 31, 3)))
    lines = block_after("Command line").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.strip() and not line.startswith("#")]
    assert [argv[:2] for argv in commands] == [["gammasub", "simulate"], ["gammasub", "ingest"],
                                               ["gammasub", "fit"], ["gammasub", "diagnose"]]
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    # fit read simulate's 100 increments, which ingest's output left alone
    assert len((tmp_path / "obs.csv").read_text().splitlines()) == 1 + 101
    assert (tmp_path / "figs" / "band.csv").is_file()


def test_every_named_bench_record_exists_and_parses():
    # the "Sweep cost" section cites its runs by file: each must be at the root, as JSON
    names = set(re.findall(r"BENCH_\w+\.json", README.read_text()))
    assert names
    for name in sorted(names):
        path = README.parent / name
        assert path.is_file(), name
        json.loads(path.read_text())
