"""Cold start: no entry point imports an optional dependency.

Each check runs in a fresh interpreter, so modules this test session
already loaded (pytest plugins, other tests) cannot mask an import.
Structural only: what gets imported, never how long it takes.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = str(pathlib.Path(repro.__file__).resolve().parent.parent)

#: Dev extras (tests and examples only); never on a ``repro`` import path.
OPTIONAL = ("scipy", "networkx", "hypothesis")

#: The modules the repo benchmark (``simbench/run.py``) imports inside its
#: timed set-up, copied so this test does not depend on the benchmark.
PROGRAM_MODULES = (
    "repro.config",
    "repro.engines",
    "repro.traffic.build",
    "repro.core.allocator",
    "repro.core.fabricsim",
    "repro.core.spacetopo",
    "repro.parallel.space_shard",
    "repro.router.router",
    "repro.sim.kernel",
    "repro.experiments.paperdata",
)

#: Prints a JSON dict of stage name -> sorted loaded module names.
_PROBE = """
import contextlib, importlib, io, json, sys
stages = {}
def snap(stage):
    stages[stage] = sorted(sys.modules)
import repro.cli
snap("cli")
with contextlib.redirect_stdout(io.StringIO()):
    repro.cli.main(["list"])
snap("list")
for name in ["repro.engines", "repro.experiments"] + %r:
    importlib.import_module(name)
snap("all")
print(json.dumps(stages))
"""


@pytest.fixture(scope="module")
def stages():
    """Stage name -> modules loaded in one fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE % (list(PROGRAM_MODULES),)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("stage", ["cli", "list", "all"])
def test_entry_points_import_no_optional_dependency(stages, stage):
    tops = {m.split(".")[0] for m in stages[stage]}
    assert not tops & set(OPTIONAL)


@pytest.mark.parametrize("stage", ["cli", "list"])
def test_cli_loads_no_experiment_module(stages, stage):
    """The registry is plain data: ``import repro.cli`` and ``repro list``
    import no experiment (``repro.experiments.fig7_1``, ``claims_ch2``,
    ...), nor the experiments package at all."""
    assert [m for m in stages[stage] if m.startswith("repro.experiments")] == []


def test_probe_sees_loaded_modules(stages):
    assert "repro.experiments.paperdata" in stages["all"]
    assert "numpy" in stages["all"]
