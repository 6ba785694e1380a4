"""The README's library quick start runs as written, every name in
``bestarm.__all__`` resolves, the package root leaves the CLI layer to
``bestarm.cli``, and the Configuration table lists every leaf."""

import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import bestarm
from bestarm.cli import CampaignConfig, EvaluatorConfig, ModeConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.split()[0] == "tdlstm"


def test_every_exported_name_resolves():
    assert [name for name in bestarm.__all__ if not hasattr(bestarm, name)] == []


def test_package_root_is_the_library_alone():
    # The campaign config and its runners have one home, bestarm.cli.
    assert not hasattr(bestarm, "__getattr__")
    cli_names = {"CampaignConfig", "ReplicationReport", "run_campaign", "run_replications"}
    assert cli_names.isdisjoint(bestarm.__all__)
    probe = "import sys, bestarm; print('bestarm.cli' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_configuration_table_lists_every_leaf_in_declaration_order():
    section = README.read_text(encoding="utf-8").split("\n## Configuration\n")[1].split("\n## ")[0]
    listed = re.findall(r"^\| `([\w.]+)` \|", section, re.M)
    sections = (ModeConfig, EvaluatorConfig)
    leaves = [f"{f.name}.{g.name}" if f.type in sections else f.name
              for f in fields(CampaignConfig) for g in (fields(f.type) if f.type in sections else [f])]
    assert listed == leaves
