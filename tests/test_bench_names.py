"""The names bench/ uses from pointer_gpt exist and its calls into them
still bind, so a rename or signature change in src that would break the
benchmark fails here first."""

import ast
import importlib
import inspect
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


def _imports(tree):
    """({alias: module}, [(local name, module, attribute)]) of the file's
    imports of pointer_gpt modules and of names from them."""
    aliases, names = {}, []
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
                    names.append((a.asname or a.name, parent, a.name))
    return aliases, names


def references(path):
    """[(module, attribute)] of every `alias.attr` on a pointer_gpt module
    the file imports, and every name it imports from one."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases, names = _imports(tree)
    refs = [(module, attr) for _, module, attr in names]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            refs.append((aliases[node.value.id], node.attr))
    return refs


def calls(path):
    """[(callee, ast.Call)] of every call whose callee is a pointer_gpt
    object reached through the file's imports, e.g. `model.ModelConfig(...)`
    or `tokenizer.Vocabulary.load(...)`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases, names = _imports(tree)
    bound = dict(aliases, **{local: getattr(module, attr, None)
                             for local, module, attr in names})

    def resolve(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            parent = resolve(node.value)
            return None if parent is None else getattr(parent, node.attr,
                                                       None)
        return None

    return [(callee, node) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and callable(callee := resolve(node.func))]


def unbound_calls(path):
    """'callee at line N: reason' for each call into pointer_gpt that does
    not bind to the callee's signature by its positional count and keyword
    names; a call passing *args or **kwargs is checked for its named
    keywords only."""
    problems = []
    for callee, call in calls(path):
        keywords = {k.arg: None for k in call.keywords if k.arg is not None}
        try:
            if (any(isinstance(a, ast.Starred) for a in call.args)
                    or len(keywords) < len(call.keywords)):
                inspect.signature(callee).bind_partial(**keywords)
            else:
                inspect.signature(callee).bind(*call.args, **keywords)
        except TypeError as e:
            problems.append("%s at line %d: %s"
                            % (callee.__qualname__, call.lineno, e))
    return problems


@pytest.mark.parametrize("path", BENCH, ids=[p.name for p in BENCH])
def test_every_call_bench_makes_into_pointer_gpt_binds(path):
    assert unbound_calls(path) == []


def test_bench_calls_the_checkpoint_functions():
    called = {callee.__qualname__ for path in BENCH
              for callee, _ in calls(path)}
    assert {"save_checkpoint", "load_checkpoint", "ModelConfig"} <= called


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
