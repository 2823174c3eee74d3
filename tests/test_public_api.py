"""Every public name, and every function the benchmark tracer wraps, exists.

The tracer only warns about a target it cannot find, so a rename would
silently drop a layer from the benchmark; these checks make it fail here.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gwshot

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
spans = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)  # dataclasses need it registered
_spec.loader.exec_module(spans)


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


def test_cli_import_graph():
    # scipy is a test-only dependency, and process pools are imported only
    # when --jobs asks for them; numpy.random is bound at import, so that
    # numpy's lazy load of it does not fall inside the timed command
    probe = "import json, sys, gwshot.cli; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(Path(gwshot.__file__).parents[1])))
    loaded = set(json.loads(out.stdout))
    assert not {m for m in loaded if m == "scipy" or m.startswith("scipy.")}
    assert "concurrent.futures.process" not in loaded
    assert "numpy.random" in loaded
