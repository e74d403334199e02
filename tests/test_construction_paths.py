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
in its body is), a definition registered with ``@<registry>.register(...)`` is
used (any other decorator, ``@dataclass`` included, is not), and a name whose
only callers are themselves unused is unused too.  Public methods get the same
scan, by name: a method is used when its name is read (as a name, an attribute
or a string) there outside its own definition.  The methods only tests use are
an explicit list that may only shrink.

A bare name that reads a function-local variable — a parameter, an assignment
or loop target, a nested ``def``, a comprehension variable, or one of these
taken from an enclosing function — is not a use of a definition of the same
name; ``symtable`` decides which names are local.  A name a function binds by
``import`` is a use, so lazy imports keep what they import live.  One blind
spot remains: the scans match members by name, so an attribute read
``obj.name`` is a use of every member called ``name`` (``loop.push`` keeps any
``push`` method live).  A static scan cannot tell which class ``obj`` is.
"""

import ast
import symtable
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


_COMPREHENSIONS = {
    ast.ListComp: "listcomp", ast.SetComp: "setcomp",
    ast.DictComp: "dictcomp", ast.GeneratorExp: "genexpr",
}


def _scope_parts(node):
    """``(symtable name, parts evaluated outside, parts inside)`` of a node
    that opens a scope, else ``None``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = node.args
        outside = [*args.defaults, *(d for d in args.kw_defaults if d is not None)]
        if isinstance(node, ast.Lambda):
            return "lambda", outside, [node.body]
        every_arg = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        outside += [*node.decorator_list, node.returns]
        outside += [a.annotation for a in every_arg if a is not None]
        return node.name, outside, node.body
    if isinstance(node, ast.ClassDef):
        return node.name, [*node.decorator_list, *node.bases, *node.keywords], node.body
    if type(node) in _COMPREHENSIONS:
        first, *rest = node.generators
        inside = [first.target, *first.ifs, *rest]
        inside += [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
        return _COMPREHENSIONS[type(node)], [first.iter], inside
    return None


def _is_function_local(name, tables):
    """Does *name*, read in the innermost of *tables*, name a variable some
    function binds itself (not by ``import``)?"""
    table = tables[-1]
    try:
        symbol = table.lookup(name)
    except KeyError:
        return False
    if symbol.is_free():
        # Bound by an enclosing function: find it (class bodies are skipped).
        for outer in reversed(tables[:-1]):
            if outer.get_type() == "function" and name in outer.get_identifiers():
                symbol, table = outer.lookup(name), outer
                if symbol.is_local():
                    break
        else:
            return False
    return table.get_type() == "function" and symbol.is_local() and not symbol.is_imported()


def local_variable_reads(tree, source):
    """``id()`` of every ``ast.Name`` in *tree* that names a function-local
    variable: a parameter, an assignment or loop target, a nested ``def``, a
    comprehension variable.

    Those read the function's own binding, not a module-level definition of
    the same name.  A name a function binds by ``import`` is not local here,
    so a lazy import still reads the definition it imports.
    """
    found = set()
    unmatched = {}        # table id -> {(name, line): [child tables, in order]}

    def child(table, name, line):
        if table.get_id() not in unmatched:
            slots = unmatched[table.get_id()] = {}
            for sub in table.get_children():
                slots.setdefault((sub.get_name(), sub.get_lineno()), []).append(sub)
        return (unmatched[table.get_id()].get((name, line)) or [None]).pop(0)

    def visit(node, tables, bound):
        if isinstance(node, ast.Name) and (
            node.id in bound or _is_function_local(node.id, tables)
        ):
            found.add(id(node))
        parts = _scope_parts(node)
        if parts is None:
            for sub in ast.iter_child_nodes(node):
                visit(sub, tables, bound)
            return
        name, outside, inside = parts
        for sub in outside:
            if sub is not None:
                visit(sub, tables, bound)
        table = child(tables[-1], name, node.lineno)
        if type(node) in _COMPREHENSIONS:
            # Python 3.12 inlines list, set and dict comprehensions into the
            # enclosing scope's table, so their targets are bound here.
            bound = bound | {n.id for gen in node.generators for n in ast.walk(gen.target)
                             if isinstance(n, ast.Name)}
        else:
            assert table is not None, f"no symbol table for {name!r} at line {node.lineno}"
        inner = tables if table is None else tables + (table,)
        for sub in inside:
            if sub is not None:
                visit(sub, inner, bound)

    visit(tree, (symtable.symtable(source, "<scan>", "exec"),), frozenset())
    return found


def parse_with_locals(path):
    """``(tree, ids of its function-local name reads)`` for one file."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    return tree, local_variable_reads(tree, source)


def _identifiers(node, local):
    """Every name *node* reads (``x`` and ``obj.x`` both read ``x``), less the
    function-local name reads whose ``id()`` is in *local*."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and id(n) not in local:
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
    return found


def _is_registration(decorator):
    """``@<registry>.register(...)``: the definition is reached by name lookup."""
    return (isinstance(decorator, ast.Call)
            and isinstance(decorator.func, ast.Attribute)
            and decorator.func.attr == "register")


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
            tree, local = parse_with_locals(path)
            for stmt in tree.body:
                if path.name == "__init__.py" and in_src and _is_reexport(stmt):
                    continue
                is_def = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                if in_src and is_def:
                    defined[(module, stmt.name)] = _identifiers(stmt, local) - {stmt.name}
                    if any(_is_registration(d) for d in stmt.decorator_list):
                        live.add(stmt.name)
                else:
                    live |= _identifiers(stmt, local)
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
            # A registered definition is used (looked up by name).
            "@REG.register('name')\n"
            "def registered():\n    pass\n"
            # Deadness is transitive: helper's only caller is dead itself.
            "def helper():\n    return helper()\n"
            "def dead_caller():\n    return helper()\n"
            "def _private():\n    pass\n"
        ),
        "examples/run.py": "from pkg import build\nbuild()\n",
        "tests/test_a.py": "from pkg.a import dead_caller, reexported_only\ndead_caller()\n",
    }
    _write(tmp_path, files)
    assert unused_public_names(tmp_path) == [
        "src/pkg/a.py:dead_caller", "src/pkg/a.py:helper", "src/pkg/a.py:reexported_only",
    ]


def _write(root, files):
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)


def test_a_dataclass_decorator_is_not_a_use(tmp_path):
    _write(tmp_path, {
        "src/pkg/a.py": (
            "from dataclasses import dataclass\n"
            "@dataclass\nclass Record:\n    step: int = 0\n"
            "@dataclass(frozen=True)\nclass Frozen:\n    step: int = 0\n"
        ),
        "tests/test_a.py": "from pkg.a import Record, Frozen\nRecord(), Frozen()\n",
    })
    assert unused_public_names(tmp_path) == ["src/pkg/a.py:Frozen", "src/pkg/a.py:Record"]


# Every way a function binds ``shadowed`` itself; none of them reads the
# module-level definition.  The default ``hook=hook`` is evaluated outside
# ``main`` and does read it.
LOCAL_SHADOWS = (
    "def main(rows, hook=hook):\n"
    "    shadowed = len(rows)\n"
    "    for shadowed in rows:\n        pass\n"
    "    total = sum(shadowed for shadowed in rows) + len([shadowed for shadowed in rows])\n"
    "    def inner():\n        return shadowed\n"
    "    return hook, total, inner, lambda shadowed: shadowed\n"
    "def other(shadowed):\n    return shadowed\n"
    "main([]), other(1), [shadowed for shadowed in range(3)]\n"
)


def test_a_same_named_local_variable_is_not_a_use_of_a_function(tmp_path):
    _write(tmp_path, {
        "src/pkg/a.py": "def shadowed():\n    pass\ndef hook():\n    pass\n",
        "examples/run.py": LOCAL_SHADOWS,
        "tests/test_a.py": "from pkg.a import shadowed\nshadowed()\n",
    })
    assert unused_public_names(tmp_path) == ["src/pkg/a.py:shadowed"]


def test_a_same_named_local_variable_is_not_a_use_of_a_method(tmp_path):
    _write(tmp_path, {
        "src/pkg/a.py": (
            "class Store:\n"
            "    def shadowed(self):\n        pass\n"
            "    def hook(self):\n        pass\n"
        ),
        "benchmarks/b.py": LOCAL_SHADOWS,
        "tests/test_a.py": "from pkg.a import Store\nStore().shadowed()\n",
    })
    assert methods_only_tests_use(tmp_path) == ["src/pkg/a.py:Store.shadowed"]


def test_a_function_local_import_is_a_use(tmp_path):
    _write(tmp_path, {
        "src/pkg/a.py": "def lazy():\n    pass\ndef closure():\n    pass\n",
        "tools/t.py": (
            "def main():\n"
            "    from pkg.a import lazy, closure\n"
            "    def inner():\n        return closure()\n"
            "    return lazy(), inner\n"
        ),
        "tests/test_a.py": "from pkg.a import lazy\nlazy()\n",
    })
    assert unused_public_names(tmp_path) == []


# --------------------------------------------------------------------------- #
# Test-only methods: public src/ methods whose name nothing outside tests/ reads
# --------------------------------------------------------------------------- #
# Public methods only tests use.  The list may only shrink and is empty: a new
# test-only method fails, and so does an entry that gained a use or was
# deleted (drop it from the list).
TEST_ONLY_METHODS = frozenset()

FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _record_reads(node, scopes, reads, local):
    """Map every name, attribute and string constant under *node* to the
    function definitions enclosing each place it is read; a name read whose
    ``id()`` is in *local* reads a function-local variable and is skipped."""
    if isinstance(node, FUNCTION_DEFS):
        scopes = scopes + (node,)
    if isinstance(node, ast.Name):
        if id(node) not in local:
            reads.setdefault(node.id, []).append(scopes)
    elif isinstance(node, ast.Attribute):
        reads.setdefault(node.attr, []).append(scopes)
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        reads.setdefault(node.value, []).append(scopes)
    for child in ast.iter_child_nodes(node):
        _record_reads(child, scopes, reads, local)


def methods_only_tests_use(root):
    """``module:Class.method`` of every public src method nothing reads.

    Reads are taken under ``USE_DIRS`` of *root*; one inside the method's own
    definition (a recursive call) is not a use.
    """
    methods = []          # (label, definition)
    reads = {}            # name -> enclosing definitions of each read
    for top in USE_DIRS:
        for path in sorted((root / top).rglob("*.py")):
            tree, local = parse_with_locals(path)
            if top == "src":
                module = path.relative_to(root).as_posix()
                methods += [
                    (f"{module}:{cls.name}.{fn.name}", fn)
                    for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                    for fn in cls.body
                    if isinstance(fn, FUNCTION_DEFS) and not fn.name.startswith("_")
                ]
            _record_reads(tree, (), reads, local)
    return sorted(label for label, fn in methods
                  if all(fn in scopes for scopes in reads.get(fn.name, [])))


def test_no_new_test_only_method():
    new = sorted(set(methods_only_tests_use(REPO_ROOT)) - TEST_ONLY_METHODS)
    assert new == [], "only tests use these methods; move them to tests/ or delete them"


def test_the_test_only_method_list_only_shrinks():
    stale = sorted(TEST_ONLY_METHODS - set(methods_only_tests_use(REPO_ROOT)))
    assert stale == [], "these methods gained a use or are gone; drop them from the list"


def test_the_test_only_method_scan_flags_what_it_should(tmp_path):
    files = {
        "src/pkg/a.py": (
            '"""Prose naming read_only_by_tests is not a use."""\n'
            "class Store:\n"
            "    def read_as_attribute(self):\n        pass\n"
            "    def read_as_name(self):\n        pass\n"
            "    def read_as_string(self):\n        pass\n"
            # A read inside the method's own definition is not a use.
            "    def recursive(self):\n        return self.recursive()\n"
            "    def read_only_by_tests(self):\n        pass\n"
            "    @property\n    def unused_property(self):\n        return 1\n"
            # Private and dunder methods are not scanned.
            "    def _private(self):\n        pass\n"
            "    def __len__(self):\n        return 0\n"
            "    class Nested:\n        def nested_unused(self):\n            pass\n"
        ),
        "benchmarks/b.py": (
            "from pkg.a import Store\n"
            "Store().read_as_attribute()\n"
            "hook = read_as_name\n"
        ),
        "tools/t.py": "def f(s):\n    return getattr(s, 'read_as_string')()\n",
        "tests/test_a.py": "from pkg.a import Store\nStore().read_only_by_tests()\n",
    }
    _write(tmp_path, files)
    assert methods_only_tests_use(tmp_path) == [
        "src/pkg/a.py:Nested.nested_unused",
        "src/pkg/a.py:Store.read_only_by_tests",
        "src/pkg/a.py:Store.recursive",
        "src/pkg/a.py:Store.unused_property",
    ]


# --------------------------------------------------------------------------- #
# The paper's prefetcher stands alone: repro.core imports nothing of repro.cache
# --------------------------------------------------------------------------- #
def imported_modules(tree):
    """Dotted names of every module an ``import`` anywhere in *tree* binds."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def imports_of(package: Path, prefix: str):
    """``(module, import)`` of every import under *package* naming *prefix* or below."""
    return sorted(
        (path.relative_to(package.parent).as_posix(), name)
        for path in sorted(package.rglob("*.py"))
        for name in imported_modules(ast.parse(path.read_text(), filename=str(path)))
        if name == prefix or name.startswith(prefix + ".")
    )


def test_core_imports_nothing_from_the_cache_package():
    # The machine-shared tier lives behind TieredCacheSource only; a second
    # copy of its miss path inside the prefetcher would import it here.
    assert imports_of(SRC / "core", "repro.cache") == []


def test_the_import_scan_flags_what_it_should():
    tree = ast.parse(
        "import repro.cache.tier\n"
        "from repro.cache.tier import CacheTier\n"
        "from repro import cache\n"
        "def lazy():\n    from repro.cache import CacheConfig\n"
        "import repro.cachetools\n"
    )
    flagged = {name for name in imported_modules(tree)
               if name == "repro.cache" or name.startswith("repro.cache.")}
    assert flagged == {
        "repro.cache.tier", "repro.cache.tier.CacheTier", "repro.cache",
        "repro.cache.CacheConfig",
    }
