"""The package's public names and the README example that documents them."""

import ast
import re
from pathlib import Path

import spdelab

README = Path(__file__).resolve().parent.parent / "README.md"


def library_usage_imports():
    """Names the README "Library usage" example imports from spdelab."""
    section = README.read_text().split("## Library usage", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    return [
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "spdelab"
        for alias in node.names
    ]


def test_readme_imports_are_public():
    names = library_usage_imports()
    assert [n for n in names if n not in spdelab.__all__] == []
    assert "simulate_paths" in names


def test_all_resolves_without_duplicates():
    assert len(spdelab.__all__) == len(set(spdelab.__all__))
    assert [n for n in spdelab.__all__ if not hasattr(spdelab, n)] == []
