"""The README's library example runs as written, and the package exports what
it imports."""

import ast
from pathlib import Path

import triphot

ROOT = Path(__file__).parent.parent


def test_readme_quick_start_prints_its_comments(capsys):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    code = block.split("```", 1)[0]
    expected = [
        float(line.split("#", 1)[1]) for line in code.splitlines() if line.startswith("print(")
    ]
    exec(compile(code, "README.md", "exec"), {})
    printed = [float(line) for line in capsys.readouterr().out.splitlines()]
    assert len(printed) == len(expected) == 2
    for got, want in zip(printed, expected):
        assert abs(got - want) < 1e-12, (got, want)


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse((ROOT / "src" / "triphot" / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert len(triphot.__all__) == len(set(triphot.__all__))
    assert set(triphot.__all__) == imported | {"__version__"}
