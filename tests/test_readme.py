"""The README's library quick start runs as written, every name in
``bestarm.__all__`` resolves, the package root leaves the CLI layer to
``bestarm.cli``, the spelled constructors and the entry-point table match
the signatures, the Configuration table lists every leaf, the Trace section
lists every event kind, and the errors paragraph names every exception."""

import ast
import inspect
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import bestarm
from bestarm.cli import CampaignConfig, _is_section

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


def _spelled(params: str) -> list[tuple]:
    """``"a, b=1"`` or ``"`a`, `b=1`"`` as [(name, default)], with
    ``inspect.Parameter.empty`` for a parameter spelled without a default."""
    out = []
    for param in params.split(","):
        name, _, default = param.strip().strip("`").partition("=")
        out.append((name, ast.literal_eval(default) if default else inspect.Parameter.empty))
    return out


def test_spelled_constructors_match_their_signatures():
    text = README.read_text(encoding="utf-8")
    for cls in (bestarm.SyntheticEvaluator, bestarm.ReplayEvaluator, bestarm.SubprocessEvaluator):
        (params,) = set(re.findall(rf"`{cls.__name__}\(([^)]*)\)`", text))
        parameters = inspect.signature(cls).parameters
        spelled = _spelled(params)
        assert [name for name, _ in spelled] == list(parameters)
        for name, default in spelled:
            assert default is inspect.Parameter.empty or default == parameters[name].default


def test_entry_point_table_lists_each_keyword_with_its_default():
    rows = re.findall(r"^\| `(\w+)` \| `[\w-]+` \| (.*) \|$", README.read_text(encoding="utf-8"),
                      re.M)
    assert [entry for entry, _ in rows] == ["sequential_halving", "nonadaptive_fixed_budget",
                                            "ttts", "nonadaptive_fixed_confidence", "bts"]
    for entry, keywords in rows:
        parameters = inspect.signature(getattr(bestarm, entry)).parameters.values()
        assert _spelled(keywords) == [(p.name, p.default) for p in parameters
                                      if p.kind is p.KEYWORD_ONLY
                                      and p.name not in ("mc_samples", "transform", "on_event")]


def test_configuration_table_lists_every_leaf_in_declaration_order():
    section = README.read_text(encoding="utf-8").split("\n## Configuration\n")[1].split("\n## ")[0]
    listed = re.findall(r"^\| `([\w.]+)` \|", section, re.M)
    leaves = [f"{f.name}.{g.name}" if _is_section(f.type) else f.name
              for f in fields(CampaignConfig)
              for g in (fields(f.type) if _is_section(f.type) else [f])]
    assert listed == leaves


def test_trace_section_lists_every_event_kind():
    section = README.read_text(encoding="utf-8").split("\n## Trace\n")[1].split("\n## ")[0]
    (listed,) = re.findall(r"Each event \(([^)]*)\)", section)
    kinds = re.findall(r"`(\w+)`", listed)
    assert len(kinds) == 5
    assert set(kinds) == {k.value for k in bestarm.EventKind}


def test_errors_paragraph_names_every_exported_exception():
    paragraphs = README.read_text(encoding="utf-8").split("\n\n")
    (errors,) = [p for p in paragraphs if p.startswith("A campaign raises")]
    exceptions = [name for name in bestarm.__all__
                  if isinstance(getattr(bestarm, name), type)
                  and issubclass(getattr(bestarm, name), BaseException)]
    assert len(exceptions) == 4
    assert [name for name in exceptions if f"`{name}`" not in errors] == []
