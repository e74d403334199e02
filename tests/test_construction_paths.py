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

Every public top-level function and class under ``src/repro`` has a use in
``src/``, ``benchmarks/``, ``examples/`` or ``tools/``: code only tests call
belongs in ``tests/``.  A package ``__init__``'s re-exports are not uses (code
in its body is), a decorated (registered) definition is used, and a name whose
only callers are themselves unused is unused too.
"""

import ast
from pathlib import Path

from repro.training.pipelines import PIPELINES

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"
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


# --------------------------------------------------------------------------- #
# Test-only code: public src/ names nothing outside tests/ uses
# --------------------------------------------------------------------------- #
USE_DIRS = ("src", "benchmarks", "examples", "tools")

# Public names kept although nothing outside tests/ uses them: name -> why.
# At most five; a new entry needs a reason a reader accepts.
TEST_ONLY_ALLOWED = {}


def _identifiers(node):
    """Every name *node* reads (``x`` and ``obj.x`` both read ``x``)."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
    return found


def _is_reexport(stmt):
    """A package ``__init__``'s ``from … import`` line or ``__all__`` list."""
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return True
    targets = stmt.targets if isinstance(stmt, ast.Assign) else []
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def unused_public_names(root):
    """``module:name`` of every public top-level src definition nothing uses.

    Uses are read under ``USE_DIRS`` of *root*.  Code at a module's top level
    is a root; a definition's body reads names only once the definition itself
    is used, so a name whose only callers are unused is reported too.
    """
    src = root / "src"
    defined = {}          # (module, name) -> names its body reads
    live = set()          # names read from a root
    for top in USE_DIRS:
        for path in sorted((root / top).rglob("*.py")):
            module = path.relative_to(root).as_posix()
            in_src = top == "src"
            for stmt in ast.parse(path.read_text(), filename=str(path)).body:
                if path.name == "__init__.py" and in_src and _is_reexport(stmt):
                    continue
                is_def = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                if in_src and is_def:
                    defined[(module, stmt.name)] = _identifiers(stmt) - {stmt.name}
                    if stmt.decorator_list:
                        live.add(stmt.name)
                else:
                    live |= _identifiers(stmt)
    grew = True
    while grew:
        grew = False
        for (_, name), reads in defined.items():
            if name in live and not reads <= live:
                live |= reads
                grew = True
    return sorted(f"{module}:{name}" for (module, name) in defined
                  if not name.startswith("_") and name not in live)


def test_every_public_src_name_has_a_use_outside_tests():
    assert len(TEST_ONLY_ALLOWED) <= 5
    unused = [n for n in unused_public_names(REPO_ROOT)
              if n.split(":")[1] not in TEST_ONLY_ALLOWED]
    assert unused == [], "only tests use these; move them to tests/ or delete them"


def test_the_test_only_scan_flags_what_it_should(tmp_path):
    files = {
        # Re-exports are not uses; code in an __init__ body is.
        "src/pkg/__init__.py": (
            "from pkg.a import Model, ModelLayer, reexported_only\n"
            "__all__ = ['Model', 'ModelLayer', 'reexported_only', 'build']\n"
            "def build():\n    return Model()\n"
        ),
        "src/pkg/a.py": (
            '"""Module docstring naming dead_caller is not a use."""\n'
            "REG = {}\n"
            "class ModelLayer:\n    pass\n"
            "class Model:\n    layer = ModelLayer\n"
            "def reexported_only():\n    pass\n"
            # A decorated (registered) definition is used.
            "@REG.setdefault\n"
            "def registered():\n    pass\n"
            # Deadness is transitive: helper's only caller is dead itself.
            "def helper():\n    return helper()\n"
            "def dead_caller():\n    return helper()\n"
            "def _private():\n    pass\n"
        ),
        "examples/run.py": "from pkg import build\nbuild()\n",
        "tests/test_a.py": "from pkg.a import dead_caller, reexported_only\ndead_caller()\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert unused_public_names(tmp_path) == [
        "src/pkg/a.py:dead_caller", "src/pkg/a.py:helper", "src/pkg/a.py:reexported_only",
    ]
