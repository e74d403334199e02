"""Docs health checker: links/anchors, scenario-catalog drift, registry table.

Three checks, runnable independently or together (all by default):

* ``--links`` — every relative link and image in ``docs/*.md`` and
  ``README.md`` must point at a file that exists in the repository, and every
  intra-document anchor (``[...](#section)`` or ``FILE.md#section``) must
  match a heading in the target document (GitHub slug rules: lowercase,
  punctuation stripped, spaces to dashes).  External ``http(s)://`` links are
  not fetched — CI must stay hermetic.
* ``--catalog`` — ``docs/SCENARIOS.md`` must equal the output of
  ``repro scenarios --markdown`` exactly; a mismatch means the scenario
  registry changed without the committed catalog being regenerated.
* ``--registries`` — the table under "The registries" in
  ``docs/EXTENDING.md`` must list exactly the module-level
  ``Registry(...)`` instances an AST scan of ``src/`` finds, each in the
  module the row names and importable from it — so the registry count the
  ROADMAP quotes is checked, not remembered.

Run::

    PYTHONPATH=src python tools/check_docs.py

Exit code 0 when clean; 1 with a per-finding report otherwise.  Wired into
the CI ``docs`` job and, in-process, into ``tests/test_docs.py``.
"""

from __future__ import annotations

import argparse
import ast
import functools
import importlib
import re
import sys
from pathlib import Path
from typing import Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

# [text](target) — excluding images is unnecessary: image targets are files too.
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
_CODE_FENCE_RE = re.compile(r"^(```|~~~)")


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading (lowercase, punctuation out, dashes)."""
    text = re.sub(r"`([^`]*)`", r"\1", heading.strip())
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # linked headings
    text = text.lower()
    text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE)
    return text.replace(" ", "-")


def markdown_files() -> List[Path]:
    files = [REPO_ROOT / "README.md"]
    files += sorted((REPO_ROOT / "docs").glob("*.md"))
    return [f for f in files if f.exists()]


@functools.lru_cache(maxsize=None)
def headings_of(path: Path) -> "tuple[str, ...]":
    """Heading slugs of *path* (cached: documents are anchor-checked per link)."""
    slugs: List[str] = []
    in_fence = False
    for line in path.read_text().splitlines():
        if _CODE_FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = _HEADING_RE.match(line)
        if match:
            slugs.append(github_slug(match.group(2)))
    return tuple(slugs)


def links_of(path: Path) -> List[str]:
    links: List[str] = []
    in_fence = False
    for line in path.read_text().splitlines():
        if _CODE_FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        links.extend(_LINK_RE.findall(line))
    return links


def check_links() -> List[str]:
    """Broken relative links/anchors across README.md and docs/*.md."""
    problems: List[str] = []
    for doc in markdown_files():
        for target in links_of(doc):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            rel = doc.relative_to(REPO_ROOT)
            path_part, _, anchor = target.partition("#")
            if path_part:
                resolved = (doc.parent / path_part).resolve()
                if not resolved.exists():
                    problems.append(f"{rel}: broken link -> {target}")
                    continue
                anchor_doc = resolved
            else:
                anchor_doc = doc  # pure intra-document anchor
            if anchor and anchor_doc.suffix == ".md":
                if github_slug(anchor) not in headings_of(anchor_doc):
                    problems.append(
                        f"{rel}: missing anchor #{anchor} in {anchor_doc.name}"
                    )
    return problems


def check_catalog() -> List[str]:
    """docs/SCENARIOS.md must match `repro scenarios --markdown` exactly."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.scenarios import catalog_markdown
    finally:
        sys.path.pop(0)
    committed_path = REPO_ROOT / "docs" / "SCENARIOS.md"
    if not committed_path.exists():
        return ["docs/SCENARIOS.md is missing; generate it with "
                "`PYTHONPATH=src python -m repro scenarios --markdown > docs/SCENARIOS.md`"]
    committed = committed_path.read_text()
    fresh = catalog_markdown() + "\n"
    if committed != fresh:
        return ["docs/SCENARIOS.md drifted from the scenario registry; regenerate "
                "with `PYTHONPATH=src python -m repro scenarios --markdown > "
                "docs/SCENARIOS.md` and commit it with the scenario change"]
    return []


def registries_in_source() -> Dict[str, str]:
    """``{symbol: dotted module}`` of every module-level ``NAME = Registry(...)`` in src/."""
    found: Dict[str, str] = {}
    src = REPO_ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            value = getattr(node, "value", None)
            if not isinstance(node, (ast.Assign, ast.AnnAssign)) or not isinstance(value, ast.Call):
                continue
            func = value.func
            if getattr(func, "id", getattr(func, "attr", None)) != "Registry":
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    found[target.id] = module
    return found


def registries_in_docs() -> Dict[str, str]:
    """``{symbol: module}`` from the first table under "## The registries"."""
    listed: Dict[str, str] = {}
    in_section = False
    for line in (REPO_ROOT / "docs" / "EXTENDING.md").read_text().splitlines():
        if line.startswith("## "):
            if in_section:
                break
            in_section = line.strip() == "## The registries"
        cells = [cell.strip() for cell in line.split("|")[1:-1]]
        if not in_section or len(cells) < 2 or set(cells[0]) <= set("-: "):
            continue
        module = cells[1].strip("`")
        for symbol in re.findall(r"`([A-Z][A-Z0-9_]*)`", cells[0]):
            listed[symbol] = module
    return listed


def check_registries() -> List[str]:
    """docs/EXTENDING.md's registry table must equal the Registry instances in src/."""
    actual, listed = registries_in_source(), registries_in_docs()
    problems = [
        f"docs/EXTENDING.md: registry `{name}` ({actual[name]}) is not in the table"
        for name in sorted(set(actual) - set(listed))
    ]
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        for name, module in sorted(listed.items()):
            if name not in actual:
                problems.append(
                    f"docs/EXTENDING.md: `{name}` is in the registry table but no "
                    f"module-level `{name} = Registry(...)` exists in src/"
                )
            elif actual[name] != module:
                problems.append(
                    f"docs/EXTENDING.md: `{name}` lives in {actual[name]}, "
                    f"the table says {module}"
                )
            elif not hasattr(importlib.import_module(module), name):
                problems.append(f"docs/EXTENDING.md: cannot import `{name}` from {module}")
    finally:
        sys.path.pop(0)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--links", action="store_true", help="run the link check")
    parser.add_argument("--catalog", action="store_true",
                        help="run the scenario-catalog drift check")
    parser.add_argument("--registries", action="store_true",
                        help="run the registry-table check (docs/EXTENDING.md vs src/)")
    args = parser.parse_args(argv)
    run_all = not (args.links or args.catalog or args.registries)
    run_links = args.links or run_all
    run_catalog = args.catalog or run_all
    run_registries = args.registries or run_all

    problems: List[Tuple[str, str]] = []
    if run_links:
        problems += [("links", p) for p in check_links()]
    if run_catalog:
        problems += [("catalog", p) for p in check_catalog()]
    if run_registries:
        problems += [("registries", p) for p in check_registries()]

    if problems:
        for kind, message in problems:
            print(f"[{kind}] {message}", file=sys.stderr)
        print(f"FAIL: {len(problems)} docs problem(s)", file=sys.stderr)
        return 1
    checked = len(markdown_files()) if run_links else 0
    print(f"docs ok ({checked} markdown files link-checked"
          f"{', catalog in sync' if run_catalog else ''}"
          f"{f', {len(registries_in_source())} registries documented' if run_registries else ''})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
