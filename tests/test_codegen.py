"""The generators lay out their sources as they write them, and the nesting
limit they are checked against is the running interpreter's."""

import ast
from pathlib import Path

import pytest

from deltaenum.codegen import MAX_NESTED_BLOCKS

SRC = Path(__file__).resolve().parent.parent / "src" / "deltaenum"


def text_reads(path: Path):
    """Where the module at ``path`` imports ``re``, calls ``splitlines``,
    ``startswith`` or ``lstrip``, or tests a string constant with ``in``: the
    ways a generator could read back a source it wrote."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import) and any(alias.name == "re" for alias in node.names):
            found.append(f"{path.name}:{node.lineno}: import re")
        elif isinstance(node, ast.ImportFrom) and node.module == "re":
            found.append(f"{path.name}:{node.lineno}: from re import")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in ("splitlines", "startswith", "lstrip"):
                found.append(f"{path.name}:{node.lineno}: {node.func.attr}")
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left in zip(node.ops, operands):
                if isinstance(op, (ast.In, ast.NotIn)) and isinstance(left, ast.Constant) and isinstance(left.value, str):
                    found.append(f"{path.name}:{node.lineno}: {left.value!r} in")
    return found


@pytest.mark.parametrize("module", ["codegen.py", "static_engine.py", "dynamic_engine.py"])
def test_no_generator_reads_back_the_source_it_wrote(module):
    assert text_reads(SRC / module) == []


def nested_loops(n: int) -> str:
    """The source of a function of ``n`` nested ``for`` loops."""
    lines = ["def f():"] + ["    " * (i + 1) + f"for i{i} in ():" for i in range(n)]
    return "\n".join(lines + ["    " * (n + 1) + "pass"]) + "\n"


def test_max_nested_blocks_is_the_running_interpreters_limit():
    compile(nested_loops(MAX_NESTED_BLOCKS), "<f>", "exec")
    with pytest.raises(SyntaxError):
        compile(nested_loops(MAX_NESTED_BLOCKS + 1), "<f>", "exec")
