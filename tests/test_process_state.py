"""No code in src sets process-wide state.

The package runs inside other programs' processes, so a call that changes
the umask, the working directory, the environment or numpy's global error
or random state changes them for every other thread too, if only for a
moment. Context managers that restore their state, such as np.errstate,
stay allowed. Calls are matched by their dotted name, with `numpy` read as
`np` and a name bound by `from M import f` read as `M.f`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "pointer_gpt").glob("*.py"))
SETTERS = {"os.umask", "os.chdir", "os.putenv", "np.seterr", "np.random.seed"}


def dotted(node):
    """'a.b.c' for a Name or a chain of Attributes on one, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return base and "%s.%s" % (base, node.attr)
    return None


def setter_calls(tree):
    """[(line, dotted name)] of the calls in tree that name a SETTER."""
    imported = {alias.asname or alias.name: "%s.%s" % (node.module, alias.name)
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module
                for alias in node.names}
    found = []
    for call in ast.walk(tree):
        name = isinstance(call, ast.Call) and dotted(call.func)
        if not name:
            continue
        head, _, rest = name.partition(".")
        name = imported.get(head, head) + ("." + rest if rest else "")
        if name.startswith("numpy."):
            name = "np." + name[len("numpy."):]
        if name in SETTERS:
            found.append((call.lineno, name))
    return found


def test_no_src_call_sets_process_wide_state():
    findings = ["%s:%d calls %s" % (path.name, line, name)
                for path in SRC
                for line, name in setter_calls(
                    ast.parse(path.read_text(encoding="utf-8")))]
    assert not findings, "\n".join(findings)


def test_each_spelling_of_a_setter_is_found():
    source = "\n".join([
        "import os, numpy, numpy as np",
        "from os import umask",
        "from numpy.random import seed as reseed",
        "os.umask(0)", "umask(0)", "numpy.seterr(all='ignore')",
        "np.random.seed(0)", "reseed(1)", "os.chdir('/')",
        "with np.errstate(all='ignore'): pass",
        "os.getcwd()", "np.random.default_rng(0)"])
    assert setter_calls(ast.parse(source)) == [
        (4, "os.umask"), (5, "os.umask"), (6, "np.seterr"),
        (7, "np.random.seed"), (8, "np.random.seed"), (9, "os.chdir")]
