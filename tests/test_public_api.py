"""Every public name exists and has a caller, every function the benchmark
tracer wraps exists, every benchmark command line parses, and `src` imports
nothing but the standard library and its declared dependencies.

The tracer only warns about a target it cannot find, so a rename would
silently drop a layer from the benchmark, and a flag or config key the CLI
no longer takes would make every benchmark run exit 2; these checks make
both fail here.
"""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gwshot
from gwshot import cli
from gwshot.checks import CHECK_NAMES

_ROOT = Path(__file__).resolve().parents[1]
_PERFBENCH = _ROOT / "perfbench"
_SRC = Path(gwshot.__file__).parent
# public names that no command or check calls yet, and the ROADMAP item
# that gives each one a caller
_AWAITING_CALLER = {"dkw_band": "ROADMAP P"}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses need it registered
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")


@pytest.mark.parametrize("name", gwshot.__all__)
def test_public_name_resolves(name):
    assert getattr(gwshot, name, None) is not None


@pytest.mark.parametrize(
    "owner,attribute", [(owner, attribute) for _, owner, attribute, _ in spans.TARGETS]
)
def test_tracer_target_resolves(owner, attribute):
    holder = spans._resolve(owner)
    assert holder is not None, owner
    assert callable(getattr(holder, attribute, None)), f"{owner}.{attribute}"


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _loaded_names(tree):
    """Names read as a bare name or an attribute, outside their own top-level
    definition; a default argument counts, an import or an `__all__` entry
    does not."""
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            else:
                continue
            if name != own:
                yield name


def test_every_public_name_has_a_caller_in_src():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(_SRC.glob("*.py"))]
    exported = {name for tree in trees for name in _exported(tree)}
    used = {name for tree in trees for name in _loaded_names(tree)}
    assert sorted(exported - used - set(_AWAITING_CALLER)) == []
    assert sorted(used & set(_AWAITING_CALLER)) == []  # a name that has its caller leaves the list


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_command_line_parses(name, tmp_path):
    w = workloads.WORKLOADS[name]
    args = cli.build_parser().parse_args(w.argv(tmp_path / "config.json", 7, tmp_path / "out"))
    assert (args.command, args.seed, args.replicates) == (w.command, 7, w.replicates)
    if w.command == "simulate":
        cli._parse_simulate_config(w.config)
    elif w.command == "limit-sample":
        cli._parse_limit_config(w.config)
    else:
        assert w.config["check"] in CHECK_NAMES


def test_checks_run_the_engine_only_through_the_rung_reader():
    # one engine pass per cell, read by as many readers as a check needs: a
    # check that builds its own run or replicate loop goes through `_rung`
    engine = {"GwiRun", "run_coupled", "run_replicates"}
    calls = []
    for top in ast.parse((_SRC / "checks.py").read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in engine:
                    calls.append((getattr(top, "name", None), name))
    assert sorted(calls) == [("_rung", "GwiRun"), ("_rung", "run_replicates")]


def test_cli_import_graph():
    # scipy is a test-only dependency, and no command starts a process pool;
    # orjson is loaded by the limit-sample writer alone, so that no other
    # command's set-up pays for it; numpy.random is bound at import, so that
    # numpy's lazy load of it does not fall inside the timed command
    probe = "import json, sys, gwshot.cli; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(Path(gwshot.__file__).parents[1])))
    loaded = set(json.loads(out.stdout))
    assert not {m for m in loaded if m == "scipy" or m.startswith("scipy.")}
    assert "concurrent.futures.process" not in loaded
    assert "orjson" not in loaded
    assert "numpy.random" in loaded


def test_src_imports_are_the_declared_dependencies():
    # every import in src, function-level ones included, is the standard
    # library, gwshot itself or a declared dependency, and every declared
    # dependency is imported: scipy, hypothesis and mpmath stay test-only
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads((_ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower() for spec in project["dependencies"]}
    imported = set()
    for path in sorted(_SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    assert imported - set(sys.stdlib_module_names) - {"gwshot"} == declared == {"numpy", "orjson"}
