"""The README's Python quick start runs as written, from the repo root."""

import re

from helpers import REPO


def test_python_quick_start_runs(monkeypatch):
    section = (REPO / "README.md").read_text().split("## Quick start (API)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(REPO)
    before = sorted(REPO.iterdir())
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert sorted(REPO.iterdir()) == before
    assert namespace["traj"].times[-1] == 50.0 and namespace["fixed"].steps == 1000
    assert namespace["report"].verdict == "stable" and namespace["gap"] < 1.0
