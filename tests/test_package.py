import ast
from pathlib import Path

import seisgof

from test_bench_targets import TARGETS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "seisgof"


def test_every_name_in_all_resolves():
    # `from seisgof import *` fails on a name the package no longer has.
    assert [name for name in seisgof.__all__
            if not hasattr(seisgof, name)] == []
    assert len(set(seisgof.__all__)) == len(seisgof.__all__)


def _definitions():
    """(module, name) of every module-level function and class."""
    return [(path.stem, stmt.name) for path in sorted(SRC.glob("*.py"))
            for stmt in ast.parse(path.read_text()).body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))]


def _references():
    """{name: {(module, top-level statement name)}} of every name or
    attribute read in ``src/``; docstrings are strings, not references."""
    refs = {}
    for path in SRC.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            owner = (path.stem, getattr(stmt, "name", None))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    refs.setdefault(node.id, set()).add(owner)
                elif isinstance(node, ast.Attribute):
                    refs.setdefault(node.attr, set()).add(owner)
    return refs


def _benchmark_names():
    """(module, name) that the benchmark traces or imports."""
    names = {(module.rpartition(".")[2], name) for module, name in TARGETS}
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.startswith("seisgof.")):
                module = node.module.rpartition(".")[2]
                names.update((module, alias.name) for alias in node.names)
    return names


def test_every_function_and_class_has_a_user():
    # Code that only tests call is a second copy to keep in step. A
    # definition counts as used when src/ code other than its own body
    # reads it, when the package exports it, or when the benchmark looks
    # it up.
    refs = _references()
    kept = _benchmark_names()
    unused = [f"{module}.{name}" for module, name in _definitions()
              if not refs.get(name, set()) - {(module, name)}
              and name not in seisgof.__all__
              and (module, name) not in kept]
    assert unused == []


def test_every_indented_json_is_written_by_write_json():
    # One encoder: outside traceio.write_json no json.dumps call passes
    # indent, so every JSON file the program writes has one layout.
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if (path.stem, getattr(stmt, "name", None)) == ("traceio",
                                                             "write_json"):
                continue
            calls += [f"{path.name}:{node.lineno}"
                      for node in ast.walk(stmt)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "dumps"
                      and any(k.arg == "indent" for k in node.keywords)]
    assert calls == []


def test_the_score_body_is_built_only_by_score_body():
    # One owner: outside ensemble.score_body no dict display and no call
    # has an "EG" or "PG" key, so gof.json and gof_summary.json hold one
    # layout of the scores.
    builds = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if (path.stem, getattr(stmt, "name", None)) == ("ensemble",
                                                             "score_body"):
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Dict):
                    keys = [k.value for k in node.keys
                            if isinstance(k, ast.Constant)]
                elif isinstance(node, ast.Call):
                    keys = [k.arg for k in node.keywords]
                else:
                    continue
                if {"EG", "PG"} & set(keys):
                    builds.append(f"{path.name}:{node.lineno}")
    assert builds == []


def _imports():
    """(where, dotted name) of every import in ``src/``, at module level or
    inside a function; ``from a.b import c`` gives ``a.b.c``."""
    imports = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            imports += [(f"{path.name}:{node.lineno}", name) for name in names]
    return imports


def test_no_module_imports_scipy():
    # scipy is a test oracle, not a dependency: no import of it, at module
    # level or inside a function.
    assert [(where, name) for where, name in _imports()
            if name.split(".")[0] == "scipy"] == []


def test_no_module_uses_a_private_numpy_module():
    # A private module such as numpy.linalg._umath_linalg has no stable
    # layout: importing one, or reaching one as an attribute of np, ties
    # the output bits to one numpy release.
    def private(dotted):
        parts = dotted.split(".")
        return parts[0] in ("np", "numpy") and any(
            part.startswith("_") and not part.startswith("__")
            for part in parts[1:])

    uses = [(where, name) for where, name in _imports() if private(name)]
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                chain = [node.attr]
                value = node.value
                while isinstance(value, ast.Attribute):
                    chain.append(value.attr)
                    value = value.value
                if isinstance(value, ast.Name):
                    dotted = ".".join([value.id, *reversed(chain)])
                    if private(dotted):
                        uses.append((f"{path.name}:{node.lineno}", dotted))
    assert uses == []
