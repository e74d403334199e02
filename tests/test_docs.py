"""Tier-1 docs health: links, anchors, scenario catalog and registry table in sync.

Runs the same checks as the CI ``docs`` job (``tools/check_docs.py``)
in-process, so a broken docs link, a scenario-registry change without a
regenerated ``docs/SCENARIOS.md`` or a ``Registry(...)`` added or removed
without its ``docs/EXTENDING.md`` row fails the ordinary test suite too, not
just the dedicated CI job.
"""

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402


class TestDocsHealth:
    def test_no_broken_links_or_anchors(self):
        problems = check_docs.check_links()
        assert problems == []

    def test_scenario_catalog_in_sync(self):
        problems = check_docs.check_catalog()
        assert problems == []

    def test_registry_table_lists_exactly_the_registries_in_src(self):
        assert check_docs.check_registries() == []

    def test_required_docs_exist(self):
        for name in ("ARCHITECTURE.md", "EXTENDING.md", "PAPER_MAP.md", "SCENARIOS.md"):
            assert (REPO_ROOT / "docs" / name).exists(), name

    def test_paper_map_covers_every_fig_and_table_bench(self):
        """PAPER_MAP.md (the human index) agrees with ``TABLES`` (the machine one).

        Every bench_fig*/bench_table* script and every script the paper-table
        fixture runs appears in PAPER_MAP.md, and every ``benchmarks/*.py``
        path PAPER_MAP.md names exists.
        """
        from test_golden_paper_tables import TABLES

        paper_map = (REPO_ROOT / "docs" / "PAPER_MAP.md").read_text()
        benches = {b.name for pattern in ("bench_fig*.py", "bench_table*.py")
                   for b in (REPO_ROOT / "benchmarks").glob(pattern)}
        benches |= {script for script, _, _ in TABLES.values()}
        missing = sorted(b for b in benches if f"benchmarks/{b}" not in paper_map)
        assert missing == [], f"PAPER_MAP.md is missing {missing}"
        named = set(re.findall(r"benchmarks/[\w/]+\.py", paper_map))
        absent = sorted(p for p in named if not (REPO_ROOT / p).is_file())
        assert absent == [], f"PAPER_MAP.md names missing scripts {absent}"

    def test_catalog_lists_every_scenario(self):
        src = REPO_ROOT / "src"
        sys.path.insert(0, str(src))
        try:
            from repro.scenarios import available_scenarios
        finally:
            sys.path.pop(0)
        catalog = (REPO_ROOT / "docs" / "SCENARIOS.md").read_text()
        missing = [n for n in available_scenarios() if f"`{n}`" not in catalog]
        assert missing == []


class TestCheckerCatchesProblems:
    """The checker itself must detect what it claims to (meta-tests)."""

    def test_slugging_matches_github_rules(self):
        assert check_docs.github_slug("Layer diagram") == "layer-diagram"
        assert check_docs.github_slug("Fig. 6 — results!") == "fig-6--results"
        assert check_docs.github_slug("`code` heading") == "code-heading"

    def test_broken_link_detected(self, tmp_path, monkeypatch):
        docs = tmp_path / "docs"
        docs.mkdir()
        (tmp_path / "README.md").write_text("[gone](docs/NOPE.md)\n")
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        problems = check_docs.check_links()
        assert len(problems) == 1 and "NOPE.md" in problems[0]

    def test_missing_anchor_detected(self, tmp_path, monkeypatch):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "A.md").write_text("# Real heading\n[x](#not-a-heading)\n")
        (tmp_path / "README.md").write_text("ok\n")
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        problems = check_docs.check_links()
        assert len(problems) == 1 and "not-a-heading" in problems[0]

    def test_links_inside_code_fences_ignored(self, tmp_path, monkeypatch):
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text(
            "```bash\ncat [not-a-link](missing.md)\n```\n"
        )
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        assert check_docs.check_links() == []

    def test_registry_table_drift_detected(self, tmp_path, monkeypatch):
        pkg = tmp_path / "src" / "pkg"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "a.py").write_text(
            "class Registry:\n    def __init__(self, kind): pass\n"
            "KEPT = Registry('kept')\nUNDOCUMENTED = Registry('new')\n"
            "MOVED = Registry('moved')\nPLAIN = {}\n"
        )
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "EXTENDING.md").write_text(
            "## The registries\n\n| Registry | Module |\n|---|---|\n"
            "| `KEPT` | `pkg.a` |\n| `MOVED` | `pkg.b` |\n| `GONE` / `PLAIN` | `pkg.a` |\n"
            "\n## Next section\n\n| `IGNORED` | `pkg.a` |\n"
        )
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        problems = check_docs.check_registries()
        assert len(problems) == 4
        for name in ("UNDOCUMENTED", "MOVED", "GONE", "PLAIN"):
            assert sum(f"`{name}`" in p for p in problems) == 1, name
