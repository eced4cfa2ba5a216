"""The library quick tour of README.md runs and its comments hold."""

import ast
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def _run_tour():
    """Execute the README's python block statement by statement; return the
    value of each bare expression keyed by its trailing comment."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    lines = block.splitlines()
    ns, values = {}, {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            comment = lines[node.end_lineno - 1].split("#", 1)[1].strip()
            values[comment] = eval(code, ns)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), ns)
    return ns, values


def test_quick_tour_comments_hold():
    ns, values = _run_tour()
    assert sorted(values) == sorted(
        ["'yes'", "False", "returns G (measure scaling)", "~1e-15"])
    assert values["'yes'"] == "yes"
    assert values["False"] is False
    G, H = ns["G"], values["returns G (measure scaling)"]
    xs = np.linspace(-0.5, 3.0, 36)
    X, Y = xs[:, None], xs[None, :]
    assert np.max(np.abs(H.eval(X, Y) - G.eval(X, Y))) <= 1e-12
    assert values["~1e-15"] <= 1e-12
