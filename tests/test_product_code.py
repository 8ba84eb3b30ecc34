"""The package holds what the product runs: every function, class and
non-dunder method defined in ``src/deltaenum`` is referenced from product
code, that is the package, ``scripts/`` and the benchmark's modules
(``perfbench/*.py`` other than its tests).

A reference is a name, an attribute or a string constant (the benchmark's
tracer names the functions it wraps) equal to the definition's name.  A
definition's own body does not count, and neither does the body of another
definition that is not referenced itself: the referenced definitions are
found from the module-level code of product files, the whole of the scripts
and the benchmark, and the bodies of the definitions already found.  A
class's body, its dunder methods included, counts once the class is
referenced; each of its other methods counts once its own name is.
"""

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "deltaenum"


def _names(nodes: Iterable[ast.AST]) -> Set[str]:
    out: Set[str] = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                out.add(node.value)
    return out


def _is_def(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def _definitions(tree: ast.Module, module: str) -> Tuple[List[ast.stmt], List[Tuple[str, str, List[ast.AST]]]]:
    """The module's statements outside its definitions, and per definition
    its qualified name, its name and the nodes of its own body."""
    loose: List[ast.stmt] = []
    defs: List[Tuple[str, str, List[ast.AST]]] = []
    for stmt in tree.body:
        if not _is_def(stmt):
            loose.append(stmt)
        elif isinstance(stmt, ast.ClassDef):
            own: List[ast.AST] = [*stmt.bases, *stmt.keywords, *stmt.decorator_list]
            for item in stmt.body:
                method = isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                if method and not (item.name.startswith("__") and item.name.endswith("__")):
                    defs.append((f"{module}.{stmt.name}.{item.name}", item.name, [item]))
                else:
                    own.append(item)
            defs.append((f"{module}.{stmt.name}", stmt.name, own))
        else:
            defs.append((f"{module}.{stmt.name}", stmt.name, [stmt]))
    return loose, defs


def unreferenced_definitions() -> List[str]:
    roots: List[ast.AST] = []
    defs: List[Tuple[str, str, List[ast.AST]]] = []
    for path in sorted(SRC.glob("*.py")):
        loose, found = _definitions(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        roots += loose
        defs += found
    product = [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    roots += [ast.parse(p.read_text(encoding="utf-8")) for p in product if not p.name.startswith("test_")]
    live = _names(roots)
    pending: Dict[str, Tuple[str, List[ast.AST]]] = {qual: (name, body) for qual, name, body in defs}
    grew = True
    while grew:
        grew = False
        for qual, (name, body) in list(pending.items()):
            if name in live:
                del pending[qual]
                live |= _names(body)
                grew = True
    return sorted(pending)


def test_every_definition_of_the_package_is_referenced_from_product_code():
    assert unreferenced_definitions() == []
