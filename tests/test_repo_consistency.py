"""Guards against drift between code, docs, and packaging."""

import json
import pathlib
import py_compile
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestDeliverablesPresent:
    @pytest.mark.parametrize("name", [
        "README.md", "DESIGN.md", "EXPERIMENTS.md", "LICENSE",
        "pyproject.toml", "Makefile",
    ])
    def test_top_level_files(self, name):
        assert (ROOT / name).is_file(), f"missing {name}"

    def test_docs_index_links_resolve(self):
        index = (ROOT / "docs" / "README.md").read_text()
        for doc in ("architecture.md", "autodiff.md", "data_simulation.md",
                    "methods.md", "cli.md"):
            assert doc in index
            assert (ROOT / "docs" / doc).is_file()

    def test_examples_exist_and_compile(self):
        examples = sorted((ROOT / "examples").glob("*.py"))
        assert len(examples) >= 5
        for path in examples:
            py_compile.compile(str(path), doraise=True)

    def test_benchmarks_cover_every_table(self):
        benches = {p.name for p in (ROOT / "benchmarks").glob("test_*.py")}
        for required in (
            "test_table1_datasets.py", "test_table2_intra_domain.py",
            "test_table3_cross_domain.py", "test_table4_cross_both.py",
            "test_table5_ablation.py", "test_table6_qualitative.py",
            "test_timing_analysis.py",
        ):
            assert required in benches, f"missing bench {required}"


class TestDocsMatchCode:
    def test_registry_names_documented(self):
        from repro.experiments import EXPERIMENTS

        cli_source = (ROOT / "src" / "repro" / "cli.py").read_text()
        for name in EXPERIMENTS:
            assert name in cli_source, f"CLI missing experiment {name!r}"

    def test_method_registry_in_methods_doc(self):
        from repro.meta.evaluate import METHOD_NAMES

        doc = (ROOT / "docs" / "methods.md").read_text()
        for name in METHOD_NAMES:
            assert name in doc, f"methods.md missing {name}"

    def test_design_lists_every_table_bench(self):
        design = (ROOT / "DESIGN.md").read_text()
        for i in range(1, 7):
            assert f"test_table{i}" in design

    def test_version_consistent(self):
        import repro

        pyproject = (ROOT / "pyproject.toml").read_text()
        assert f'version = "{repro.__version__}"' in pyproject


class TestNoDanglingReferences:
    """Links and ``make`` targets named in the docs still exist."""

    DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "CONTRIBUTING.md")

    #: A markdown link or image target: ``[text](target)``.
    LINK = re.compile(r"!?\[[^\]]*\]\(([^()\s]+)\)")
    #: ``make TARGET`` inside inline code or at the start of a code line
    #: (prose such as "make the cache" is never in code).
    MAKE = re.compile(r"(?:`|^\s*(?:run:\s*)?)make ([A-Za-z][\w-]*)",
                      re.MULTILINE)

    def _docs(self):
        paths = [ROOT / name for name in self.DOCS]
        return paths + sorted((ROOT / "docs").glob("*.md"))

    def test_relative_markdown_links_resolve(self):
        dangling = []
        for path in self._docs():
            for target in self.LINK.findall(path.read_text()):
                if re.match(r"[a-z][a-z0-9+.-]*:|#", target):
                    continue  # external URL or in-page anchor
                resolved = path.parent / target.split("#", 1)[0]
                if not resolved.exists():
                    dangling.append(f"{path.relative_to(ROOT)}: {target}")
        assert not dangling, dangling

    def test_named_make_targets_exist(self):
        makefile = (ROOT / "Makefile").read_text()
        targets = set(re.findall(r"^([\w-]+):", makefile, re.MULTILINE))
        sources = self._docs() + [ROOT / ".github" / "workflows" / "ci.yml"]
        named = {
            (str(path.relative_to(ROOT)), target)
            for path in sources
            for target in self.MAKE.findall(path.read_text())
        }
        assert named, "no make targets found; the pattern has drifted"
        missing = sorted(pair for pair in named if pair[1] not in targets)
        assert not missing, missing

    #: A long option: ``--name`` not preceded by a word character or dash.
    FLAG = re.compile(r"(?<![\w-])--([a-z][a-z0-9-]*)")

    def test_documented_cli_flags_exist(self):
        import argparse

        from repro.cli import build_parser

        flags = set()
        parsers = [build_parser()]
        while parsers:
            parser = parsers.pop()
            for action in parser._actions:
                flags.update(action.option_strings)
                if isinstance(action, argparse._SubParsersAction):
                    parsers.extend(action.choices.values())
        documented = {
            (name, f"--{flag}")
            for name in ("cli.md", "serving.md")
            for flag in self.FLAG.findall((ROOT / "docs" / name).read_text())
        }
        assert documented, "no flags found; the pattern has drifted"
        missing = sorted(pair for pair in documented if pair[1] not in flags)
        assert not missing, missing


class TestCiInstallsWhatTestsImport:
    """A clean CI runner has only what the workflow's pip step installs."""

    def _installed(self):
        workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        (command,) = re.findall(r"run: python -m pip install (.+)", workflow)
        return {
            name.lower().replace("-", "_")
            for name in command.split() if not name.startswith("-")
        }

    def _third_party_imports(self):
        import ast
        import sys

        first_party = {p.stem for p in (ROOT / "src").iterdir()}
        first_party |= {"tests"} | {p.stem for p in (ROOT / "tests").glob("*.py")}
        found = {}
        for root in ("src", "tests"):
            for path in (ROOT / root).rglob("*.py"):
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.Import):
                        names = [alias.name for alias in node.names]
                    elif isinstance(node, ast.ImportFrom) and not node.level:
                        names = [node.module]
                    else:
                        continue
                    for name in names:
                        top = name.split(".")[0]
                        if (top not in sys.stdlib_module_names
                                and top not in first_party):
                            found.setdefault(top, path.relative_to(ROOT))
        return found

    def test_every_third_party_import_is_installed(self):
        imported = self._third_party_imports()
        assert "numpy" in imported
        missing = {
            name: str(path) for name, path in imported.items()
            if name.lower() not in self._installed()
        }
        assert not missing, f"imported but not installed by CI: {missing}"


class TestCommittedEvidence:
    """Speed tables quote only numbers a committed result document holds.

    A table's section names its evidence directory, which holds one
    ``repobench`` result document per run under ``parent/`` and
    ``change/``.
    """

    def _section(self, heading):
        doc = (ROOT / "docs" / "performance.md").read_text()
        return doc.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]

    def _values(self, evidence, side, workload, metric):
        values = []
        for path in sorted((evidence / side).glob(f"{workload}-*.json")):
            document = json.loads(path.read_text())
            if metric in document["metrics"]:
                values.append(document["metrics"][metric]["value"])
        return values

    def test_fused_char_cnn_table_numbers_are_committed(self):
        section = self._section("Fused char-CNN")
        evidence = ROOT / re.search(r"`(docs/evidence/[\w-]+)/`",
                                    section).group(1)
        rows = [
            [cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")
        ]
        checked = 0
        for workload, metric, before, after in rows:
            workload = re.match(r"`(\w+)`", workload).group(1)
            metric = re.match(r"`([\w.]+)`", metric).group(1)
            for side, cell in (("parent", before), ("change", after)):
                values = self._values(evidence, side, workload, metric)
                assert values, (side, workload, metric)
                for number in re.findall(r"\d+(?:\.\d+)?", cell):
                    digits = len(number.partition(".")[2])
                    assert number in {f"{v:.{digits}f}" for v in values}, (
                        f"{workload} {metric} {side}: {number} is in no "
                        f"committed result document"
                    )
                    checked += 1
        assert checked >= 20

    def _committed_numbers_checked(self, heading):
        """Check every number of the section's table; return how many."""
        section = self._section(heading)
        evidence = ROOT / re.search(r"`(docs/evidence/[\w-]+)/`",
                                    section).group(1)
        checked = 0
        for line in section.splitlines():
            if not line.startswith("| `"):
                continue
            workload, metric, *cells = [
                cell.strip() for cell in line.strip().strip("|").split("|")
            ]
            workload = re.match(r"`(\w+)`", workload).group(1)
            metric = re.match(r"`([\w.]+)`", metric).group(1)
            for side, cell in zip(("parent", "change"), cells):
                values = self._values(evidence, side, workload, metric)
                assert values, (side, workload, metric)
                for number in re.findall(r"\d+(?:\.\d+)?", cell):
                    digits = len(number.partition(".")[2])
                    assert number in {f"{v:.{digits}f}" for v in values}, (
                        f"{workload} {metric} {side}: {number} is in no "
                        f"committed result document"
                    )
                    checked += 1
        return checked

    def test_bidirectional_scan_table_numbers_are_committed(self):
        assert self._committed_numbers_checked("Bidirectional scan") >= 40

    def test_length_sorted_micro_batches_table_numbers_are_committed(self):
        checked = self._committed_numbers_checked(
            "Length-sorted micro-batches")
        assert checked >= 130

    def test_fused_inner_loop_table_numbers_are_committed(self):
        assert self._committed_numbers_checked("Fused inner loop") >= 130

    def test_one_pass_per_episode_table_numbers_are_committed(self):
        assert self._committed_numbers_checked("One pass per episode") >= 130

    def test_shared_work_in_meta_training_table_numbers_are_committed(self):
        checked = self._committed_numbers_checked(
            "Shared work in meta-training")
        assert checked >= 130

    def test_off_tape_char_cnn_table_numbers_are_committed(self):
        assert self._committed_numbers_checked("Off-tape char-CNN") >= 150

    def test_inference_hot_path_table_numbers_are_committed(self):
        assert self._committed_numbers_checked("Inference hot path") >= 150


class TestPackagingHygiene:
    def test_all_packages_have_init(self):
        src = ROOT / "src" / "repro"
        for directory in src.rglob("*"):
            if directory.is_dir() and directory.name != "__pycache__":
                assert (directory / "__init__.py").exists(), directory

    def test_no_todo_markers_left(self):
        offenders = []
        for path in (ROOT / "src").rglob("*.py"):
            text = path.read_text()
            if "TODO" in text or "FIXME" in text or "XXX" in text:
                offenders.append(str(path))
        assert not offenders, offenders

    def test_public_modules_have_docstrings(self):
        import ast

        missing = []
        for path in (ROOT / "src").rglob("*.py"):
            tree = ast.parse(path.read_text())
            if ast.get_docstring(tree) is None:
                missing.append(str(path))
        assert not missing, missing
