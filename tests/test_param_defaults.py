"""Every default of a module-level function in src is both used and
overridden.

A default no call overrides is a constant in disguise; a default every call
overrides is a second definition of the value the callers pass. Calls are
matched by function name in src, bench, demos and tests, or in src alone for
a private function, which has no outside callers; a call that passes *args
or **kwargs counts as setting every parameter.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "pointer_gpt").glob("*.py"))
CALLERS = sorted(p for d in ("src", "bench", "demos", "tests")
                 for p in (ROOT / d).rglob("*.py"))


def defaulted(fn):
    """{parameter name: position or None if keyword-only} of fn's defaults."""
    a = fn.args
    positional = a.posonlyargs + a.args
    out = {p.arg: positional.index(p)
           for p in positional[len(positional) - len(a.defaults):]}
    out.update({p.arg: None for p, d in zip(a.kwonlyargs, a.kw_defaults)
                if d is not None})
    return out


def call_name(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def test_every_default_is_both_kept_and_overridden():
    functions = {}
    for path in SRC:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and defaulted(node):
                functions[node.name] = defaulted(node)
    kept, overridden = set(), set()
    for path in CALLERS:
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = isinstance(call, ast.Call) and call_name(call)
            if name not in functions or (name.startswith("_")
                                         and path not in SRC):
                continue
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            keywords = {k.arg for k in call.keywords}
            for param, pos in functions[name].items():
                if (starred or None in keywords or param in keywords
                        or (pos is not None and pos < len(call.args))):
                    overridden.add((name, param))
                else:
                    kept.add((name, param))
    findings = ["%s(%s) %s" % (name, param, why)
                for name, params in sorted(functions.items())
                for param in params
                for why, seen in (("is never set", overridden),
                                  ("is set by every call", kept))
                if (name, param) not in seen]
    assert not findings, "\n".join(findings)
