"""Meta-tests keeping the documentation and the code in sync.

These fail when someone registers a method, adds an example, or adds a
benchmark without documenting it (or vice versa) — cheap guards against the
docs drifting from the code, which matters for a reproduction repository.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

from repro import method_names

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def readme() -> str:
    return (REPO / "README.md").read_text()


@pytest.fixture(scope="module")
def design() -> str:
    return (REPO / "DESIGN.md").read_text()


@pytest.fixture(scope="module")
def experiments() -> str:
    return (REPO / "EXPERIMENTS.md").read_text()


class TestMethodsDocumented:
    def test_all_methods_in_cli_complexity_table(self):
        from repro.cli import _COMPLEXITY

        assert set(_COMPLEXITY) == set(method_names())

    def test_api_docstring_lists_all_methods(self):
        import repro.core.api as api

        for method in method_names():
            assert method in api.__doc__, f"{method} missing from api module doc"


class TestExamplesListed:
    def test_every_example_in_readme(self, readme):
        examples = sorted(
            p.name for p in (REPO / "examples").glob("*.py") if p.name != "__init__.py"
        )
        assert examples, "no examples found"
        for name in examples:
            assert f"examples/{name}" in readme, f"{name} not listed in README"

    def test_examples_have_docstrings_and_main(self):
        for path in (REPO / "examples").glob("*.py"):
            text = path.read_text()
            assert text.startswith('"""'), f"{path.name} lacks a docstring"
            assert 'if __name__ == "__main__":' in text, path.name


class TestBenchmarksListed:
    def test_every_bench_module_in_readme(self, readme):
        benches = sorted(p.name for p in (REPO / "benchmarks").glob("bench_*.py"))
        assert benches, "no bench modules found"
        for name in benches:
            assert name in readme, f"{name} not listed in README"

    def test_every_paper_artifact_has_a_bench(self):
        benches = {p.name for p in (REPO / "benchmarks").glob("bench_*.py")}
        for artifact in (
            "table7_default",
            "fig13_resolution",
            "fig14_datasize",
            "fig15_bandwidth",
            "fig16_explore",
            "fig17_space",
            "fig18_kernels_resolution",
            "fig19_kernels_datasize",
            "table1_complexity",
        ):
            assert f"bench_{artifact}.py" in benches, artifact

    def test_experiments_covers_every_bench(self, experiments):
        for path in (REPO / "benchmarks").glob("bench_*.py"):
            assert path.name in experiments, f"{path.name} not in EXPERIMENTS.md"


class TestDesignInventory:
    def test_design_mentions_every_source_module(self, design):
        """Every implementation module appears in DESIGN.md's inventory (by
        name or through its package directory)."""
        for path in (REPO / "src" / "repro").rglob("*.py"):
            if path.name in ("__init__.py", "__main__.py"):
                continue
            rel = path.relative_to(REPO / "src")
            mentioned = (
                path.name in design
                or str(rel.parent).replace("\\", "/") + "/" in design
            )
            assert mentioned, f"{rel} missing from DESIGN.md inventory"

    def test_docs_exist(self):
        for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                    "docs/algorithm.md", "docs/api_guide.md",
                    "docs/architecture.md", "docs/reproducing.md",
                    "docs/benchmarks.md", "docs/observability.md",
                    "docs/serving.md", "docs/streaming.md",
                    "docs/quality.md", "docs/distributed.md",
                    "docs/native.md", "docs/scheduling.md"):
            assert (REPO / doc).is_file(), doc


def _doc_files() -> list[Path]:
    return [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]


def _logical_lines(text: str) -> list[str]:
    """Lines with backslash continuations joined."""
    lines: list[str] = []
    pending = ""
    for raw in text.splitlines():
        if raw.rstrip().endswith("\\"):
            pending += raw.rstrip()[:-1] + " "
            continue
        lines.append(pending + raw)
        pending = ""
    if pending:
        lines.append(pending)
    return lines


class TestDocsSymbolsImport:
    """Every dotted ``repro.*`` reference in the docs resolves: the named
    module imports and the final attribute (if any) exists.  Catches docs
    that mention renamed or removed API."""

    DOTTED = re.compile(r"\brepro(?:\.\w+)+")

    @pytest.mark.parametrize("doc", _doc_files(), ids=lambda p: p.name)
    def test_dotted_references_resolve(self, doc):
        text = doc.read_text()
        for match in sorted(set(self.DOTTED.findall(text))):
            dotted = match.removesuffix(".py")
            parts = dotted.split(".")
            # longest importable module prefix, remainder must be attributes
            obj = None
            for i in range(len(parts), 0, -1):
                try:
                    obj = importlib.import_module(".".join(parts[:i]))
                except ImportError:
                    continue
                break
            assert obj is not None, f"{doc.name}: cannot import {dotted}"
            for attr in parts[i:]:
                assert hasattr(obj, attr), (
                    f"{doc.name}: {dotted} — no attribute {attr!r}"
                )
                obj = getattr(obj, attr)

    @pytest.mark.parametrize("doc", _doc_files(), ids=lambda p: p.name)
    def test_import_statements_run(self, doc):
        """``from repro... import a, b`` lines in doc code blocks execute."""
        for line in _logical_lines(doc.read_text()):
            stripped = line.strip()
            if not stripped.startswith("from repro"):
                continue
            exec(stripped, {})  # raises ImportError on drift


class TestDocsCrossLinked:
    """The doc pages form a connected graph: every page under ``docs/`` is
    reachable from README.md by following markdown links."""

    LINK = re.compile(r"\]\(([^)#\s]+\.md)\)")

    def test_every_doc_reachable_from_readme(self):
        all_docs = {p.name for p in (REPO / "docs").glob("*.md")}
        seen: set[str] = set()
        frontier = [REPO / "README.md"]
        while frontier:
            page = frontier.pop()
            for target in self.LINK.findall(page.read_text()):
                name = Path(target).name
                if name in all_docs and name not in seen:
                    seen.add(name)
                    frontier.append(REPO / "docs" / name)
        orphans = sorted(all_docs - seen)
        assert not orphans, f"docs unreachable from README: {orphans}"


class TestDocumentedHttpContract:
    """Every HTTP header and query parameter the docs promise is present in
    the front end (`repro/serve/http.py`)."""

    HEADER = re.compile(r"\bX-KDV-[A-Za-z-]+\b")
    QUERY = re.compile(r"[?&]([a-z_]+)=")

    @pytest.fixture(scope="class")
    def http_source(self) -> str:
        return (REPO / "src" / "repro" / "serve" / "http.py").read_text()

    def test_documented_headers_exist(self, http_source):
        documented: set[str] = set()
        for doc in _doc_files():
            documented.update(self.HEADER.findall(doc.read_text()))
        assert {"X-KDV-Quality", "X-KDV-Error-Bound"} <= documented
        missing = sorted(h for h in documented if h not in http_source)
        assert not missing, f"documented headers not set by http.py: {missing}"
        assert "Retry-After" in http_source  # the 503 contract

    def test_documented_query_params_exist(self, http_source):
        documented: set[str] = set()
        for doc in _doc_files():
            documented.update(self.QUERY.findall(doc.read_text()))
        assert {"window", "quality", "max_error", "colormap"} <= documented
        missing = sorted(
            q for q in documented if f'"{q}"' not in http_source
        )
        assert not missing, f"documented query params not read by http.py: {missing}"


class TestDocumentedKnobTables:
    """Every knob-table row in the docs names a real constructor argument,
    CLI flag, or environment variable from the sources."""

    TABLE_HEADER = re.compile(r"^\|\s*(?:Knob|CLI flag)\b", re.IGNORECASE)
    TOKEN = re.compile(r"`([^`]+)`")
    FLAG = re.compile(r"^--[a-z][a-z0-9-]*$")
    ENV = re.compile(r"^[A-Z][A-Z0-9_]+$")
    IDENT = re.compile(r"^[a-z_][a-z0-9_]*$")

    def _knob_rows(self):
        """Yield (doc, first-two-cells) for every data row of a knob table
        (the knob name and where it lives; defaults/effects are prose)."""
        for doc in _doc_files():
            in_table = False
            for line in doc.read_text().splitlines():
                if self.TABLE_HEADER.match(line):
                    in_table = True
                    continue
                if not in_table:
                    continue
                if not line.startswith("|"):
                    in_table = False
                    continue
                if set(line) <= set("|-: "):
                    continue  # the header/body separator row
                cells = [c.strip() for c in line.strip("|").split("|")]
                yield doc, cells[:2]

    def test_knob_rows_name_real_arguments(self):
        cli = (REPO / "src" / "repro" / "cli.py").read_text()
        src = "\n".join(
            p.read_text() for p in (REPO / "src" / "repro").rglob("*.py")
        )
        env_sources = src + "\n".join(
            p.read_text() for p in (REPO / "benchmarks").glob("*.py")
        )
        rows = 0
        missing = []
        for doc, cells in self._knob_rows():
            rows += 1
            for cell in cells:
                for token in self.TOKEN.findall(cell):
                    for part in token.split():
                        if self.FLAG.match(part):
                            if (f'"{part}"' not in cli
                                    and f"'{part}'" not in cli):
                                missing.append(f"{doc.name}: {part}")
                        elif self.ENV.match(part):
                            if part not in env_sources:
                                missing.append(f"{doc.name}: {part}")
                        elif self.IDENT.match(part):
                            if not re.search(rf"\b{re.escape(part)}\b", src):
                                missing.append(f"{doc.name}: {part}")
        assert rows >= 20, "knob tables went missing from the docs"
        assert not missing, (
            "knob-table rows naming nothing in the code:\n" + "\n".join(missing)
        )


class TestDocumentedCliFlags:
    """Every ``--flag`` shown in a documented ``repro`` or bench-script
    invocation is defined somewhere in the CLI / bench sources."""

    def _known_flags(self) -> str:
        sources = [REPO / "src" / "repro" / "cli.py"]
        sources += sorted((REPO / "benchmarks").glob("*.py"))
        return "\n".join(p.read_text() for p in sources)

    def test_documented_flags_exist(self):
        known = self._known_flags()
        flag_re = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
        missing = []
        for doc in _doc_files():
            for line in _logical_lines(doc.read_text()):
                # direct CLI or script-mode bench invocations only (pytest
                # runs own their flags, e.g. --benchmark-only)
                if "-m repro" not in line and not re.search(
                    r"python\s+benchmarks/bench_", line
                ):
                    continue
                for flag in flag_re.findall(line):
                    if f'"{flag}"' not in known and f"'{flag}'" not in known:
                        missing.append(f"{doc.name}: {flag} ({line.strip()})")
        assert not missing, "documented flags not found in code:\n" + "\n".join(
            missing
        )
