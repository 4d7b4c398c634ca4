"""Documentation freshness and CLI help-snapshot tests.

Two guards that keep the docs truthful as the code grows:

* the ``--help`` output of the CLI must match the committed snapshot
  (``docs/cli_help.txt``) — regenerate with
  ``REGEN_SNAPSHOTS=1 PYTHONPATH=src python -m pytest tests/test_docs_tooling.py``;
* ``tools/check_docs.py`` must pass: every public module has a docstring,
  README's benchmark map matches the ``benchmarks/`` directory,
  ``docs/scenarios.md`` documents every ``ScenarioSpec`` field, and every
  ``from repro... import`` in a python block of the docs resolves.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.cli import build_parser, main
from repro.runner.scenario import ScenarioSpec

REPO_ROOT = Path(__file__).resolve().parents[1]
SNAPSHOT = REPO_ROOT / "docs" / "cli_help.txt"


def _render_help() -> str:
    """Top-level plus per-subcommand --help text at a pinned 80-column width.

    Including the subcommand helps pins every flag (``--defense``,
    ``--round-mode``, ...) in the snapshot, which is what lets
    ``tools/check_docs.py`` assert that no CLI flag goes undocumented.
    """
    previous = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        import argparse

        parser = build_parser()
        sections = [parser.format_help()]
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    sections.append(f"{'=' * 24} {name} {'=' * 24}\n" + sub.format_help())
        return "\n".join(sections)
    finally:
        if previous is None:
            os.environ.pop("COLUMNS", None)
        else:
            os.environ["COLUMNS"] = previous


class TestCliHelpSnapshot:
    def test_help_matches_snapshot(self):
        text = _render_help()
        if os.environ.get("REGEN_SNAPSHOTS") == "1":
            SNAPSHOT.write_text(text, encoding="utf-8")
        assert SNAPSHOT.exists(), "docs/cli_help.txt snapshot is missing"
        assert text == SNAPSHOT.read_text(encoding="utf-8"), (
            "CLI --help drifted from docs/cli_help.txt; regenerate with "
            "REGEN_SNAPSHOTS=1 PYTHONPATH=src python -m pytest tests/test_docs_tooling.py"
        )

    def test_help_mentions_every_subcommand(self):
        text = _render_help()
        for subcommand in ("run", "compare", "sweep"):
            assert subcommand in text

    def test_sweep_reports_malformed_scenario(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"learning_rte": 0.1}')
        code = main(["sweep", "--scenario", str(bad)])
        assert code == 2
        assert "learning_rte" in capsys.readouterr().err

    def test_sweep_runs_scenario_file(self, tmp_path, capsys):
        spec_file = tmp_path / "mini.json"
        spec_file.write_text(
            '{"system": "blockchain", "num_clients": 6, "num_rounds": 2}'
        )
        export = tmp_path / "sweep.csv"
        code = main(["sweep", "--scenario", str(spec_file), "--export", str(export)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Scenario sweep" in out and "mini" in out
        assert export.read_text().splitlines()[0].startswith("scenario,system")


class TestDocsFreshness:
    def test_check_docs_passes(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "check_docs.py")],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, f"docs-check failed:\n{result.stderr}"

    def test_scenario_reference_covers_all_fields(self):
        doc = (REPO_ROOT / "docs" / "scenarios.md").read_text(encoding="utf-8")
        missing = [f for f in ScenarioSpec.field_names() if f"`{f}`" not in doc]
        assert not missing, f"docs/scenarios.md missing fields: {missing}"

    def test_benchmark_workloads_are_documented(self, tmp_path, monkeypatch):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "check_docs", REPO_ROOT / "tools" / "check_docs.py"
        )
        check_docs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check_docs)
        assert check_docs.check_benchmark_workloads() == []

        # A workload the catalogue does not name is reported.
        (tmp_path / "docs").mkdir()
        (tmp_path / "BENCHMARK.json").write_text(
            '{"workloads": [{"name": "bfl-committee"}, {"name": "bfl-giant"}]}'
        )
        (tmp_path / "docs" / "benchmarks.md").write_text("Workloads: `bfl-committee`.\n")
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        problems = check_docs.check_benchmark_workloads()
        assert len(problems) == 1 and "'bfl-giant'" in problems[0]

    def test_doc_imports_resolve(self, tmp_path, monkeypatch):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "check_docs", REPO_ROOT / "tools" / "check_docs.py"
        )
        check_docs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check_docs)
        assert check_docs.check_doc_imports() == []

        # A removed helper cited in a python block is reported with its
        # file and line; prose and non-python blocks are not checked.
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text(
            "Prose: from repro import nothing_here\n\n"
            "```bash\nfrom repro import not_python\n```\n\n"
            "```python\nfrom repro import api, ScenarioSpec as Spec\n```\n"
        )
        (tmp_path / "docs" / "guide.md").write_text(
            "```python\n"
            "from repro.runner.engine import (\n"
            "    ExperimentEngine,  # still here\n"
            "    run_removed_helper,\n"
            ")\n"
            "from repro.datasets import federated\n"
            "```\n"
        )
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        problems = check_docs.check_doc_imports()
        assert len(problems) == 1, problems
        assert problems[0].startswith("docs/guide.md:2:")
        assert "run_removed_helper" in problems[0]

    def test_readme_benchmark_map_is_fresh(self):
        import re

        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        referenced = set(re.findall(r"benchmarks/(bench_\w+\.py)", readme))
        existing = {p.name for p in (REPO_ROOT / "benchmarks").glob("bench_*.py")}
        assert referenced == existing
