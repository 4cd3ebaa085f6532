"""The library holds only what a workflow runs.

A workflow is the command line (`cli.main`), the public API (`dynmr.__all__`)
or the benchmark (every name `bench/*.py` mentions, in code or in a string
such as a traced target).  Reachability is by name: a reached top-level
definition reaches every top-level definition whose name it mentions.  A
helper that only tests call belongs under tests/, not in the library.
"""

import ast
import pathlib
from collections import defaultdict

import dynmr

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dynmr"
BENCH = ROOT / "bench"


def mentioned(node, strings=False):
    """Names a syntax tree mentions; dotted string constants too if strings."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            names.update(p for p in n.value.split(".") if p.isidentifier())
    return names


def definitions():
    """{"module.name": node} for every top-level def, class and constant."""
    defs = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if not (name.startswith("__") and name.endswith("__")):
                    defs[f"{path.stem}.{name}"] = node
    return defs


def unreached():
    defs = definitions()
    by_name = defaultdict(list)
    for key in defs:
        by_name[key.split(".", 1)[1]].append(key)
    todo = ["main", *dynmr.__all__]
    for path in sorted(BENCH.glob("*.py")):
        todo += mentioned(ast.parse(path.read_text()), strings=True)
    seen = set()
    while todo:
        for key in by_name.get(todo.pop(), ()):
            if key not in seen:
                seen.add(key)
                todo += mentioned(defs[key])
    return sorted(set(defs) - seen)


def test_every_library_name_is_reachable_from_a_workflow():
    assert len(definitions()) > 50  # the walk found the package
    missing = unreached()
    assert not missing, f"no workflow reaches {', '.join(missing)}"
