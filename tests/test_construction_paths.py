"""One way to build a cluster: every run in ``src/repro`` is a scenario.

An AST scan of ``src/repro``: ``SimCluster(...)`` is called only inside
``ClusterScenario.materialize``, and no module constructs a lockstep or
event-driven engine itself — engines come from ``ENGINES`` / ``build_engine``.
A sweep, a memory profile or a CLI command that built its own cluster would
bypass the scenario path's misuse validation, so it fails here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


class _CallSites(ast.NodeVisitor):
    """Qualified scope (``Class.method``) of every call to one name."""

    def __init__(self, name: str):
        self.name = name
        self.scope = []
        self.found = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Call(self, node):
        func = node.func
        called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if called == self.name:
            self.found.append(".".join(self.scope) or "<module>")
        self.generic_visit(node)


def call_sites(name: str):
    """``(module, scope)`` of every ``name(...)`` call under ``src/repro``."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        visitor = _CallSites(name)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        sites += [(path.relative_to(SRC).as_posix(), scope) for scope in visitor.found]
    return sites


def test_only_materialize_builds_a_sim_cluster():
    assert call_sites("SimCluster") == [("scenarios/registry.py", "ClusterScenario.materialize")]


def test_no_module_constructs_a_training_engine_directly():
    assert call_sites("ClusterEngine") == []
    assert call_sites("AsyncClusterEngine") == []


def test_the_scan_sees_calls_in_nested_scopes():
    visitor = _CallSites("SimCluster")
    visitor.visit(ast.parse("class A:\n    def f(self):\n        return m.SimCluster(1)\n"))
    assert visitor.found == ["A.f"]
