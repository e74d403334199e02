"""One way to build a cluster, one table of pipelines: AST scans of ``src/repro``.

``SimCluster(...)`` is called only inside ``ClusterScenario.materialize``, and
no module constructs a lockstep or event-driven engine itself — engines come
from ``ENGINES`` / ``build_engine``.  A sweep, a memory profile or a CLI
command that built its own cluster would bypass the scenario path's misuse
validation, so it fails here.

Outside ``repro/training/pipelines.py`` no module compares a pipeline name to
a string literal or keeps a set of pipeline names: which pipeline reads a
PrefetchConfig or a CacheConfig is a column of the ``PIPELINES`` rows, and a
module that restated it as ``name == "baseline"`` would drift from them.
"""

import ast
from pathlib import Path

from repro.training.pipelines import PIPELINES

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
# Canonical names and aliases.
PIPELINE_NAMES = {
    "baseline", "distdgl", "prefetch", "massivegnn",
    "static-cache", "static", "tiered-cache", "tiered",
}


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


def _names_in(node):
    """The pipeline names among *node*'s string constants (one level of collection)."""
    elements = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return [e.value for e in elements
            if isinstance(e, ast.Constant) and e.value in PIPELINE_NAMES]


def _mentions_a_pipeline(node):
    """Does *node* read a pipeline name (``pipeline``, ``mode``, ``PIPELINES...``)?"""
    words = [n.id for n in ast.walk(node) if isinstance(n, ast.Name)]
    words += [n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)]
    return any("pipeline" in w.lower() or "mode" in w.lower() for w in words)


def pipeline_name_literals(tree):
    """Line numbers of pipeline-name comparisons and stored pipeline-name sets."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(_names_in(o) for o in operands) and any(
                _mentions_a_pipeline(o) for o in operands if not _names_in(o)
            ):
                lines.append(node.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            value = node.value
            if isinstance(value, ast.Call) and getattr(value.func, "id", None) in (
                "set", "frozenset", "tuple", "list"
            ) and value.args:
                value = value.args[0]
            if len(set(_names_in(value))) >= 2:
                lines.append(node.lineno)
    return sorted(set(lines))


def test_no_module_restates_which_pipeline_is_which():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module == "training/pipelines.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{module}:{line}" for line in pipeline_name_literals(tree)]
    assert found == []


def test_the_pipeline_scan_knows_every_name_and_alias():
    assert set(PIPELINES.names()) <= PIPELINE_NAMES
    assert all(name in PIPELINES for name in PIPELINE_NAMES)


def test_the_pipeline_scan_flags_what_it_should():
    flagged = """
if PIPELINES.resolve(name) != "baseline": pass
if mode not in ("baseline", "prefetch"): pass
if args.mode == "prefetch": pass
CACHELESS_PIPELINES = frozenset({"baseline", "static-cache"})
x: tuple = ("prefetch", "tiered")
"""
    ignored = """
if "prefetch" in grouped: pass
if args.mode not in (None, "both"): pass
workload.run(pipeline="baseline")
fields.setdefault("pipeline", "tiered-cache")
p = argparse.ArgumentParser().add_argument("--mode", choices=["baseline", "prefetch", "both"])
"""
    assert pipeline_name_literals(ast.parse(flagged)) == [2, 3, 4, 5, 6]
    assert pipeline_name_literals(ast.parse(ignored)) == []
