import ast
import dataclasses
import json
import re
from collections import Counter
from pathlib import Path

import yaml

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


def _defaulted(fn: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """The defaulted parameters of fn as (position, name); position is None
    for a keyword-only one."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    return ([(i, arg.arg) for i, arg in enumerate(positional) if i >= first]
            + [(None, arg.arg) for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
               if default is not None])


def test_every_defaulted_parameter_is_set_by_library_code():
    # a parameter with a default is an option: it stays only if some call in
    # src/ or perfbench/ sets it, by keyword or by position (a call with *
    # or ** sets them all); a value that only tests change is a constant
    paths = sorted((REPO / "src" / "tpmcert").glob("*.py"))
    trees = {path: ast.parse(path.read_text())
             for path in paths + sorted((REPO / "perfbench").glob("*.py"))}
    set_by = {}  # function name -> the positions and names its calls set
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            given = set_by.setdefault(name, set())
            if (any(isinstance(arg, ast.Starred) for arg in call.args)
                    or any(kw.arg is None for kw in call.keywords)):
                given.add("*")
            given |= set(range(len(call.args))) | {kw.arg for kw in call.keywords if kw.arg}
    unset = [f"{node.name}({param})" for path in paths for node in trees[path].body
             if isinstance(node, ast.FunctionDef) for i, param in _defaulted(node)
             if not set_by.get(node.name, set()) & {"*", i, param}]
    assert unset == []


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


def test_readme_config_gives_every_key(tmp_path):
    # the README's one YAML block is a config file with every key the loader
    # takes, at the top level and in the noise block, and it loads
    from tpmcert import dataio, proclib

    readme = (REPO / "README.md").read_text()
    assert readme.count("```yaml") == 1
    path = tmp_path / "every_key.yaml"
    path.write_text(readme.split("```yaml\n", 1)[1].split("```", 1)[0])
    dataio.load_config(path)
    doc = yaml.safe_load(path.read_text())
    assert set(doc) == {*dataio._CONFIG_SCALARS, *dataio._NAMED_KEYS, "settings", "noise"}
    noise_keys = {f.name for f in dataclasses.fields(proclib.NoiseParams)} | {"wait_ms"}
    assert set(doc["noise"]) == noise_keys


def test_report_keys_are_declared_once():
    # CertReport's fields are report.json's keys: the README lists them, and
    # every pinned report carries them, in that order
    from tpmcert.certify import CertReport

    fields = [f.name for f in dataclasses.fields(CertReport)]
    block = (REPO / "README.md").read_text().split("`report.json` (", 1)[1].split("```")[1]
    assert re.findall(r'"([a-z_]+)":', block) == fields
    goldens = sorted((REPO / "tests" / "golden").glob("*/report.json"))
    assert len(goldens) == 5
    for path in goldens:
        assert list(json.loads(path.read_text())) == fields, path


def test_every_bench_file_says_where_its_numbers_come_from():
    # a speed claim counts only with a before/after pair from a named
    # harness and machine: every committed BENCH_*.json parses and records
    # both revisions, the method, the machine and the python and numpy runs
    benches = sorted(REPO.glob("BENCH_*.json"))
    assert benches
    for path in benches:
        doc = json.loads(path.read_text())
        revisions = doc.get("revisions", {})
        assert re.fullmatch(r"[0-9a-f]{40}", str(revisions.get("parent"))), path
        assert revisions.get("change"), path
        assert all(doc.get(key) for key in ("method", "machine", "python", "numpy")), path
