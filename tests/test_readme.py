"""The README's library quick start runs as written, and every name in
``bestarm.__all__`` resolves."""

import re
from pathlib import Path

import bestarm

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.split()[0] == "tdlstm"


def test_every_exported_name_resolves():
    # bestarm's lazy __getattr__ hides a stale entry until someone uses it.
    assert [name for name in bestarm.__all__ if not hasattr(bestarm, name)] == []
