"""The names bench/ uses from pointer_gpt exist, so a rename in src that
would break the benchmark fails here first."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = sorted((ROOT / "bench").glob("*.py"))
PACKAGE = "pointer_gpt"


def _module(name):
    """The pointer_gpt module `name` names, or None."""
    if name != PACKAGE and not name.startswith(PACKAGE + "."):
        return None
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def references(path):
    """[(module, attribute)] of every `alias.attr` on a pointer_gpt module
    the file imports, and every name it imports from one."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases, refs = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if _module(a.name) is not None:
                    bound = a.asname or a.name.split(".")[0]
                    aliases[bound] = _module(a.name if a.asname else bound)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            parent = _module(node.module or "")
            for a in node.names if parent is not None else ():
                sub = _module("%s.%s" % (node.module, a.name))
                if sub is not None:
                    aliases[a.asname or a.name] = sub
                else:
                    refs.append((parent, a.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            refs.append((aliases[node.value.id], node.attr))
    return refs


@pytest.mark.parametrize("path", BENCH, ids=[p.name for p in BENCH])
def test_every_pointer_gpt_name_bench_uses_exists(path):
    missing = ["%s.%s" % (m.__name__, attr) for m, attr in references(path)
               if not hasattr(m, attr)]
    assert missing == []


def test_bench_references_the_training_path():
    refs = {"%s.%s" % (m.__name__, attr) for path in BENCH
            for m, attr in references(path)}
    for name in ("trainer.backward", "ops.make_output"):
        assert "%s.%s" % (PACKAGE, name) in refs


def test_every_traced_call_exists():
    # spans.OPS is left out: it still lists ops the model no longer has
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    calls = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["CALLS"])
    missing = ["%s.%s" % call for call in calls
               if not hasattr(_module("%s.%s" % (PACKAGE, call[0])), call[1])]
    assert ("optim", "adam_step") in calls and missing == []
