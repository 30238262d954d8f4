import ast
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _references(tree: ast.AST) -> Counter:
    """How often each name is referred to by a Name or an Attribute node of tree."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def _defined(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function's or a class's, or
    the names an assignment binds, dunder names aside."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)
            and not (n.id.startswith("__") and n.id.endswith("__"))]


def test_every_library_name_is_reached():
    # a top-level function, class or constant of src/tpmcert stays there only
    # if other library code or the benchmark uses it; a re-export in
    # tpmcert.__all__ reaches nothing, and code that only tests call belongs
    # under tests/
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted((REPO / "src" / "tpmcert").glob("*.py"))}
    in_src = sum(map(_references, trees.values()), Counter())
    outside = set()
    for path in sorted((REPO / "perfbench").glob("*.py")):
        outside |= set(_references(ast.parse(path.read_text())))
    unreached = [f"{module}.{name}" for module, tree in trees.items() for node in tree.body
                 for name in _defined(node)
                 if name not in outside and in_src[name] == _references(node)[name]]
    assert unreached == []


def test_the_public_surface_is_listed_once():
    # every name in __all__ resolves on the package, and every public name
    # that __init__ imports is in __all__, so that `from tpmcert import *`
    # gives exactly what __init__ re-exports
    import tpmcert

    missing = [name for name in tpmcert.__all__ if not hasattr(tpmcert, name)]
    tree = ast.parse((REPO / "src" / "tpmcert" / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unlisted = sorted(name for name in imported
                      if not name.startswith("_") and name not in tpmcert.__all__)
    assert missing == [] and unlisted == []
