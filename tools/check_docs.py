"""Docs-freshness checker.

Fails (exit code 1) when the documentation has drifted from the code:

1. a public module under ``src/repro`` lacks a module docstring;
2. ``README.md`` references a ``benchmarks/bench_*.py`` file that does not
   exist, or a benchmark file exists that the README's figure/table map does
   not mention;
3. ``docs/scenarios.md`` is missing a ``ScenarioSpec`` field (the scenario
   reference must cover every field, with its default);
4. an example scenario file under ``scenarios/`` fails to load/validate;
5. a configuration axis value (a round mode, an attack name, a defense name)
   is missing from the docs that must catalogue it (``docs/scenarios.md``
   and ``docs/threat_model.md``) — the axis lists are imported from the
   code (``ROUND_MODES``, ``ATTACKS``, ``DEFENSES``), so adding a value
   without documenting it fails this check;
6. a *registered system* name (``repro.systems.system_names()``) is missing
   from ``docs/scenarios.md`` or the public-API reference ``docs/api.md`` —
   registering a system without documenting it fails this check;
7. a CLI flag accepted by ``repro.cli`` (any subcommand) does not appear in
   the ``docs/cli_help.txt`` snapshot;
8. a benchmark file ``benchmarks/bench_*.py`` is missing from the benchmark
   catalogue ``docs/benchmarks.md`` (or the catalogue names a bench that no
   longer exists) — every bench must document which paper figure/table it
   reproduces;
9. a name in ``repro.api.__all__`` is missing from ``docs/api.md`` or lacks
   a docstring — the stable facade must stay fully referenced and
   self-describing;
10. a ``repro`` CLI subcommand is mentioned in neither the README quickstart
    nor ``docs/api.md`` — every verb the parser accepts must have at least
    one discoverable usage reference (``repro <verb>`` or
    ``repro.cli <verb>``);
11. an HTTP endpoint declared in ``repro.serve.protocol.ENDPOINTS`` is
    missing from the service reference ``docs/serve.md`` — the endpoint
    table is imported from the code, so adding a route without documenting
    its method and path fails this check;
12. a network-substrate axis value (a topology from ``repro.net.TOPOLOGIES``,
    or the ``partition`` / ``churn`` axis names) is missing from
    ``docs/scenarios.md`` or ``docs/threat_model.md`` — the gossip layer's
    scenario axes must stay catalogued in both the field reference and the
    threat guide;
13. a workload ``name`` declared in ``BENCHMARK.json`` is missing from
    ``docs/benchmarks.md`` — every workload of the performance benchmark
    must be described there;
14. a ``from repro... import name`` line in a python code block of
    ``README.md`` or ``docs/*.md`` does not resolve — a doc cannot keep
    citing a helper the code no longer has.

Run from the repository root:

.. code-block:: bash

   PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import ast
import importlib
import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_ROOT = REPO_ROOT / "src"


def _ensure_importable() -> None:
    if str(SRC_ROOT) not in sys.path:
        sys.path.insert(0, str(SRC_ROOT))


def check_module_docstrings() -> list[str]:
    """Every public module under src/repro must open with a docstring."""
    problems = []
    for path in sorted(SRC_ROOT.glob("repro/**/*.py")):
        rel = path.relative_to(REPO_ROOT)
        if path.name != "__init__.py" and path.name.startswith("_"):
            continue  # private helper modules are exempt
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if ast.get_docstring(tree) is None:
            problems.append(f"{rel}: public module lacks a module docstring")
    return problems


def check_readme_benchmarks() -> list[str]:
    """README's benchmark table and benchmarks/ must reference each other."""
    problems = []
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    referenced = set(re.findall(r"benchmarks/(bench_\w+\.py)", readme))
    existing = {p.name for p in (REPO_ROOT / "benchmarks").glob("bench_*.py")}
    for name in sorted(referenced - existing):
        problems.append(f"README.md references nonexistent benchmark file benchmarks/{name}")
    for name in sorted(existing - referenced):
        problems.append(f"benchmarks/{name} is not mentioned in README.md's benchmark map")
    return problems


def check_scenario_reference() -> list[str]:
    """docs/scenarios.md must document every ScenarioSpec field."""
    _ensure_importable()
    from repro.runner.scenario import ScenarioSpec

    problems = []
    doc = (REPO_ROOT / "docs" / "scenarios.md").read_text(encoding="utf-8")
    for field_name in ScenarioSpec.field_names():
        if not re.search(rf"`{re.escape(field_name)}`", doc):
            problems.append(f"docs/scenarios.md does not document ScenarioSpec field {field_name!r}")
    return problems


def check_example_scenarios() -> list[str]:
    """Every example scenario file must load and validate."""
    _ensure_importable()
    from repro.runner.scenario import ScenarioError, load_scenario_file

    problems = []
    scenario_dir = REPO_ROOT / "scenarios"
    files = sorted(
        list(scenario_dir.glob("*.json")) + list(scenario_dir.glob("*.toml"))
    )
    if not files:
        problems.append("scenarios/ contains no example scenario files")
    for path in files:
        try:
            specs = load_scenario_file(path)
        except ScenarioError as exc:
            problems.append(f"{path.relative_to(REPO_ROOT)}: {exc}")
            continue
        if not specs:
            problems.append(f"{path.relative_to(REPO_ROOT)}: expands to zero scenarios")
    return problems


def check_axis_coverage() -> list[str]:
    """Every round-mode, attack, and defense name must appear in the axis docs.

    The value lists come from the code, so a new axis value cannot land
    without a mention in both the scenario reference and the threat-model
    guide.
    """
    _ensure_importable()
    from repro.attacks.gradient_attacks import ATTACKS
    from repro.fl.robust import DEFENSES
    from repro.sim.rounds import ROUND_MODES

    axes = {"round_mode": ROUND_MODES, "attack": ATTACKS, "defense": DEFENSES}
    required_docs = ("docs/scenarios.md", "docs/threat_model.md")
    problems = []
    for rel in required_docs:
        path = REPO_ROOT / rel
        if not path.exists():
            problems.append(f"{rel}: axis-reference document is missing")
            continue
        text = path.read_text(encoding="utf-8")
        for axis, values in axes.items():
            for value in values:
                if not re.search(rf"\b{re.escape(value)}\b", text):
                    problems.append(f"{rel} does not document {axis} value {value!r}")
    return problems


def check_system_coverage() -> list[str]:
    """Every registered system name must appear in the scenario and API docs.

    The name list comes from the registry, so a new built-in system cannot
    land without a mention in both ``docs/scenarios.md`` and ``docs/api.md``
    (plugins loaded at run time are intentionally out of scope — only what
    ships registered is checked).
    """
    _ensure_importable()
    from repro.systems import system_names

    required_docs = ("docs/scenarios.md", "docs/api.md")
    problems = []
    for rel in required_docs:
        path = REPO_ROOT / rel
        if not path.exists():
            problems.append(f"{rel}: system-reference document is missing")
            continue
        text = path.read_text(encoding="utf-8")
        for name in system_names():
            if not re.search(rf"\b{re.escape(name)}\b", text):
                problems.append(f"{rel} does not document registered system {name!r}")
    return problems


def check_cli_flag_coverage() -> list[str]:
    """Every CLI flag (all subcommands) must appear in the docs/cli_help.txt snapshot."""
    _ensure_importable()
    import argparse

    from repro.cli import build_parser

    snapshot_path = REPO_ROOT / "docs" / "cli_help.txt"
    if not snapshot_path.exists():
        return ["docs/cli_help.txt: CLI help snapshot is missing"]
    snapshot = snapshot_path.read_text(encoding="utf-8")

    def walk(parser: argparse.ArgumentParser):
        for action in parser._actions:
            for option in action.option_strings:
                if option.startswith("--"):
                    yield option
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from walk(sub)

    problems = []
    for option in sorted(set(walk(build_parser()))):
        if option not in snapshot:
            problems.append(
                f"docs/cli_help.txt does not mention CLI flag {option}; regenerate with "
                "REGEN_SNAPSHOTS=1 PYTHONPATH=src python -m pytest tests/test_docs_tooling.py"
            )
    return problems


def check_benchmark_docs() -> list[str]:
    """docs/benchmarks.md must catalogue every bench file (and only real ones).

    The catalogue is the authoritative map from bench file to the paper
    figure/table it reproduces (plus runtime class and smoke-marker status),
    so a bench cannot land undocumented and a deleted bench cannot linger in
    the docs.
    """
    problems = []
    doc_path = REPO_ROOT / "docs" / "benchmarks.md"
    if not doc_path.exists():
        return ["docs/benchmarks.md: benchmark catalogue is missing"]
    doc = doc_path.read_text(encoding="utf-8")
    referenced = set(re.findall(r"\b(bench_\w+\.py)\b", doc))
    existing = {p.name for p in (REPO_ROOT / "benchmarks").glob("bench_*.py")}
    for name in sorted(existing - referenced):
        problems.append(f"docs/benchmarks.md does not document benchmarks/{name}")
    for name in sorted(referenced - existing):
        problems.append(f"docs/benchmarks.md references nonexistent benchmark file {name}")
    return problems


def check_api_reference() -> list[str]:
    """Every ``repro.api.__all__`` name must be in docs/api.md and documented.

    Two failures per name are possible: the public-API reference does not
    mention it, or the object itself lacks a docstring (the facade is the
    surface downstream users introspect, so ``help()`` must never come up
    empty).
    """
    _ensure_importable()
    from repro import api

    problems = []
    doc_path = REPO_ROOT / "docs" / "api.md"
    if not doc_path.exists():
        return ["docs/api.md: public-API reference is missing"]
    doc = doc_path.read_text(encoding="utf-8")
    for name in api.__all__:
        if not re.search(rf"\b{re.escape(name)}\b", doc):
            problems.append(f"docs/api.md does not document repro.api.{name}")
        obj = getattr(api, name)
        if not (getattr(obj, "__doc__", None) or "").strip():
            problems.append(f"repro.api.{name} has no docstring")
    return problems


def check_cli_subcommand_docs() -> list[str]:
    """Every CLI subcommand must appear in README.md or docs/api.md usage text.

    The flag-level snapshot (check 7) proves the help text is fresh; this
    check proves each *verb* is discoverable — somewhere a user actually
    reads, a ``repro <verb>`` (or ``python -m repro.cli <verb>``) invocation
    must exist.  Adding a subcommand without documenting how to call it
    fails here.
    """
    _ensure_importable()
    import argparse

    from repro.cli import build_parser

    sources = []
    for rel in ("README.md", "docs/api.md"):
        path = REPO_ROOT / rel
        if path.exists():
            sources.append(path.read_text(encoding="utf-8"))
    text = "\n".join(sources)

    commands: list[str] = []
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            commands.extend(action.choices)

    problems = []
    for command in sorted(set(commands)):
        if not re.search(rf"\brepro(?:\.cli)?\s+{re.escape(command)}\b", text):
            problems.append(
                f"CLI subcommand {command!r} is not shown in README.md or docs/api.md "
                f"(add a 'repro {command}' usage example)"
            )
    return problems


def check_serve_endpoint_docs() -> list[str]:
    """Every declared HTTP endpoint must appear in docs/serve.md.

    The wire contract lives in ``repro.serve.protocol.ENDPOINTS``; the
    service reference must show each endpoint's method + path template and
    mention its name, so a new route cannot land undocumented.
    """
    _ensure_importable()
    from repro.serve.protocol import ENDPOINTS

    doc_path = REPO_ROOT / "docs" / "serve.md"
    if not doc_path.exists():
        return ["docs/serve.md: experiment-service reference is missing"]
    doc = doc_path.read_text(encoding="utf-8")
    problems = []
    for endpoint in ENDPOINTS.values():
        if endpoint.path not in doc:
            problems.append(
                f"docs/serve.md does not document endpoint {endpoint.method} "
                f"{endpoint.path} ({endpoint.name})"
            )
        elif not re.search(rf"\b{re.escape(endpoint.name)}\b", doc):
            problems.append(
                f"docs/serve.md documents {endpoint.path} but never names the "
                f"{endpoint.name!r} endpoint"
            )
    return problems


def check_net_axis_coverage() -> list[str]:
    """Every network-substrate axis value must appear in the axis docs.

    The topology list comes from ``repro.net.TOPOLOGIES`` and the
    ``partition`` / ``churn`` axis names are checked literally, so a new
    topology (or a renamed axis) cannot land without a mention in both the
    scenario reference and the threat-model guide.
    """
    _ensure_importable()
    from repro.net import TOPOLOGIES

    required_docs = ("docs/scenarios.md", "docs/threat_model.md")
    problems = []
    for rel in required_docs:
        path = REPO_ROOT / rel
        if not path.exists():
            problems.append(f"{rel}: net-axis reference document is missing")
            continue
        text = path.read_text(encoding="utf-8")
        for value in TOPOLOGIES:
            if not re.search(rf"\b{re.escape(value)}\b", text):
                problems.append(f"{rel} does not document topology value {value!r}")
        for axis in ("partition", "churn"):
            if not re.search(rf"`{axis}`", text):
                problems.append(f"{rel} does not document net axis {axis!r}")
    return problems


def check_benchmark_workloads() -> list[str]:
    """Every workload named in BENCHMARK.json must appear in docs/benchmarks.md.

    The workload list is read from the benchmark declaration itself, so a
    workload cannot be added to the benchmark without saying in the
    benchmark docs what it runs and why.
    """
    declaration = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    doc_path = REPO_ROOT / "docs" / "benchmarks.md"
    doc = doc_path.read_text(encoding="utf-8") if doc_path.exists() else ""
    return [
        f"docs/benchmarks.md does not document BENCHMARK.json workload {w['name']!r}"
        for w in declaration["workloads"]
        if not re.search(rf"`{re.escape(w['name'])}`", doc)
    ]


_PYTHON_BLOCK = re.compile(r"^```(?:python|py)[ \t]*\n(.*?)^```", re.MULTILINE | re.DOTALL)
_REPRO_IMPORT = re.compile(
    r"^[ \t]*(?:>>>[ \t]*)?from[ \t]+(repro(?:\.\w+)*)[ \t]+import[ \t]+(\([^)]*\)|[^\n]+)",
    re.MULTILINE,
)


def _resolves(module_name: str, name: str) -> bool:
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    if hasattr(module, name):
        return True
    try:
        importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return False
    return True


def check_doc_imports() -> list[str]:
    """Every ``from repro... import name`` in a python block of the docs resolves."""
    _ensure_importable()
    problems = []
    for path in [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]:
        if not path.exists():
            continue
        text = path.read_text(encoding="utf-8")
        rel = path.relative_to(REPO_ROOT)
        for block in _PYTHON_BLOCK.finditer(text):
            for match in _REPRO_IMPORT.finditer(block.group(1)):
                line = text.count("\n", 0, block.start(1) + match.start()) + 1
                names = " ".join(
                    part.split("#")[0] for part in match.group(2).splitlines()
                ).strip("() \t")
                for entry in names.split(","):
                    name = entry.split(" as ")[0].strip()
                    if name and not _resolves(match.group(1), name):
                        problems.append(
                            f"{rel}:{line}: `from {match.group(1)} import {name}` "
                            "does not resolve"
                        )
    return problems


def main() -> int:
    problems = (
        check_module_docstrings()
        + check_readme_benchmarks()
        + check_scenario_reference()
        + check_example_scenarios()
        + check_axis_coverage()
        + check_system_coverage()
        + check_cli_flag_coverage()
        + check_benchmark_docs()
        + check_api_reference()
        + check_cli_subcommand_docs()
        + check_serve_endpoint_docs()
        + check_net_axis_coverage()
        + check_benchmark_workloads()
        + check_doc_imports()
    )
    for problem in problems:
        print(f"docs-check: {problem}", file=sys.stderr)
    if problems:
        print(f"docs-check: {len(problems)} problem(s) found", file=sys.stderr)
        return 1
    print("docs-check: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
