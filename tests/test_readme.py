"""The README's examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_session_runs(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"A small end-to-end session:\n\n```python\n(.*?)```", text, re.S)
    assert block is not None, "README lost its end-to-end session"
    ns = {}
    exec(compile(block.group(1), str(README), "exec"), ns)
    handle = ns["handle"]
    assert handle.block_size == 16 * handle.n_base ** 2
    assert capsys.readouterr().out.splitlines() == [
        str(handle.block_size), str(ns["g"].edge_at(handle, 1234))]
