"""The README's library example runs as written, and the package exports each
public name from the module that defines it."""

import importlib
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
    # each public name is listed once, under the module that defines it, and
    # resolves from the package to that module's own object
    names = [name for module_names in triphot._EXPORTS.values() for name in module_names]
    assert len(names) == len(set(names))
    assert triphot.__all__ == ["__version__", *names]
    for module_name, module_names in triphot._EXPORTS.items():
        module = importlib.import_module(f"triphot.{module_name}")
        assert getattr(triphot, module_name) is module
        for name in module_names:
            assert getattr(triphot, name) is getattr(module, name), name
            assert getattr(module, name).__module__ == module.__name__, name
    assert set(triphot.__all__) <= set(dir(triphot))
