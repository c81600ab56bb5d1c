"""What the benchmark harness under ``kcbench/`` needs from ``src/``.

The harness patches the functions named in ``tracing.SPANS`` and calls
the engine from ``run.py``; a renamed function or a dropped parameter
would only show in a traced benchmark run. These tests read both files
(their source, not by importing them) and check every such name and call
against the program as it is.
"""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

KCBENCH = Path(__file__).resolve().parent.parent / "kcbench"


def _module_literal(path: Path, name: str):
    """The literal value assigned to ``name`` at the top of ``path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not assigned in {path}")


SPANS = _module_literal(KCBENCH / "tracing.py", "SPANS")
COUNT_OUT = _module_literal(KCBENCH / "tracing.py", "_COUNT_OUT")


def test_spans_nonempty():
    assert SPANS


@pytest.mark.parametrize("mod,attr,key", SPANS, ids=[f"{m}.{a}" for m, a, _ in SPANS])
def test_traced_span_resolves(mod, attr, key):
    """Every traced function exists; the ones whose emitted cliques are
    counted take an ``out`` parameter."""
    fn = getattr(importlib.import_module(mod), attr)
    assert callable(fn)
    if key in COUNT_OUT:
        assert "out" in inspect.signature(fn).parameters


def _resolve(module: str, name: str):
    """``from module import name``: an attribute or a submodule."""
    mod = importlib.import_module(module)
    return getattr(mod, name) if hasattr(mod, name) else importlib.import_module(f"{module}.{name}")


def _run_calls():
    """(id, callee, positional count, keyword names) for every call in
    ``run.py`` of a name it imports from ``repro``, and for each
    ``GraphSpec``'s generator with each of its parameter dicts. An id is
    the callee's name and its place among the calls of that callee."""
    tree = ast.parse((KCBENCH / "run.py").read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            for a in node.names:
                imported[a.asname or a.name] = _resolve(node.module, a.name)
    generators = importlib.import_module("repro.graph.generators")
    found = []
    for node in sorted((n for n in ast.walk(tree) if isinstance(n, ast.Call)),
                       key=lambda n: (n.lineno, n.col_offset)):
        f, kws = node.func, [kw.arg for kw in node.keywords]
        if isinstance(f, ast.Name) and f.id in imported:
            found.append((f.id, imported[f.id], node.args, kws))
        elif isinstance(f, ast.Attribute) and getattr(f.value, "id", None) in imported:
            found.append((f"{f.value.id}.{f.attr}", getattr(imported[f.value.id], f.attr),
                          node.args, kws))
        elif isinstance(f, ast.Name) and f.id == "GraphSpec":
            name = ast.literal_eval(node.args[0])
            for arg in node.args[1:]:
                if isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "dict":
                    found.append((name, getattr(generators, name), [],
                                  [kw.arg for kw in arg.keywords] + ["seed"]))
    seen = {}
    calls = []
    for name, callee, args, kws in found:
        assert None not in kws, f"{name}: ** arguments cannot be checked"
        assert not any(isinstance(a, ast.Starred) for a in args), f"{name}: * arguments"
        seen[name] = seen.get(name, -1) + 1
        calls.append((f"{name}-{seen[name]}", callee, len(args), kws))
    return calls


RUN_CALLS = _run_calls()


def test_run_calls_the_engine():
    names = {cid.rsplit("-", 1)[0] for cid, *_ in RUN_CALLS}
    assert {"run_local", "count_kcliques", "list_kcliques", "chung_lu"} <= names


@pytest.mark.parametrize("callee,n_pos,kws", [c[1:] for c in RUN_CALLS],
                         ids=[c[0] for c in RUN_CALLS])
def test_run_call_binds(callee, n_pos, kws):
    """The call's positional count and keyword names fit the current
    signature (``list_kcliques(..., distributed_preprocess=True)`` among
    them)."""
    inspect.signature(callee).bind(*[None] * n_pos, **dict.fromkeys(kws))
