"""CI runs every gate of ``tools/gates.py`` exactly once, each as its own
step.  Both files are read as text: no gate runs and no ``repro`` import."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ci_runs_every_gate_exactly_once():
    module = ast.parse((ROOT / "tools" / "gates.py").read_text())
    public = [node.name for node in module.body if isinstance(node, ast.FunctionDef) and node.name[0] != "_"]
    table = next(
        node.value for node in module.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "GATES"
    )
    listed = [name.id for name in table.generators[0].iter.elts]
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    steps = re.findall(r"^ *- run: python tools/gates\.py (\w+)$", ci, re.M)
    assert ci.count("tools/gates.py") == len(steps)  # no other use of the module
    assert len(steps) == 12
    assert sorted(steps) == sorted(listed) == sorted(public)
