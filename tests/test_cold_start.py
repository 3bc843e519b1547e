"""Cold start: importing the package loads no scipy, and each command's
``CommandSpec.imports`` names every scipy module its runner loads, so that
``ExperimentConfig.resolved`` pays for them before ``run`` starts. The LP
commands load the HiGHS bindings alone, without the ``scipy.optimize``
package or ``scipy.sparse``, no run loads ``numpy.ma``, and only the runs
that draw random numbers load ``numpy.random``."""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import lorentz_synth
from lorentz_synth._highs import CORE
from lorentz_synth.cli import COMMANDS, _suite_row_configs

SRC = str(Path(lorentz_synth.__file__).resolve().parent.parent)

SCIPY_MODULES = """
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""

IMPORT_EVERY_MODULE = SCIPY_MODULES + """
import importlib, json, pkgutil
import lorentz_synth.cli
found = {"lorentz_synth.cli": scipy_modules()}
for info in pkgutil.iter_modules(lorentz_synth.__path__, "lorentz_synth."):
    importlib.import_module(info.name)
    found[info.name] = scipy_modules()
print(json.dumps(found))
"""

RESOLVE_THEN_RUN = SCIPY_MODULES + """
import json
from lorentz_synth import cli
config = cli.ExperimentConfig.from_mapping(json.loads(sys.argv[1]))
config.resolved()
resolved = scipy_modules()
masked = "numpy.ma" in sys.modules
drawn = "numpy.random" in sys.modules
record = cli.run(config)
print(json.dumps({"resolved": resolved, "ran": scipy_modules(),
                  "ma_loaded_by_run": not masked and "numpy.ma" in sys.modules,
                  "random_loaded": drawn or "numpy.random" in sys.modules,
                  "passed": record.passed}))
"""

# which scipy each command declares and loads: the LP commands the HiGHS
# core, which may register submodules of its own (CORE + "."), and nothing
# else of scipy; every other command loads none
LOADS = {"transport": {CORE}, "tmcp": {CORE}, "tcd": {CORE}, "brenier": {CORE}}

# the commands whose runners draw random numbers
DRAWS = {"distortion", "cd-verify", "transport", "brenier"}

# the --quick config of each command, cut further where its run is long; the
# grid is the one of perfbench's grid-deficit workload
_NARROW_KINKED = {"kind": "kinked-grid", "slope": 0.25, "t_bounds": [-2.0, 2.0],
                  "x_bounds": [0.0, 2.0], "shape": [1025, 33]}
SMALLEST = {
    "distortion": {"parameters": {"quick_pairs": 10, "quick_tuples": 10}},
    "mollify": {"model": _NARROW_KINKED, "parameters": {"eps_list": [0.8, 0.15]}},
    "lp-deficit": {"model": _NARROW_KINKED, "parameters": {"eps_list": [0.8, 0.15]}},
}


def python(script, *args, cwd=None):
    """Run ``script`` in a fresh interpreter on this source tree; its stdout
    as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_importing_the_package_loads_no_scipy():
    found = python(IMPORT_EVERY_MODULE)
    assert "lorentz_synth.comparison" in found and "lorentz_synth.transport" in found
    assert {name: mods for name, mods in found.items() if mods} == {}


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """RESOLVE_THEN_RUN's record of every command's quick run (SMALLEST)."""
    out = tmp_path_factory.mktemp("runs")
    commands = [name for name in COMMANDS if name != "suite"]

    def probe(name):
        extra = SMALLEST.get(name, {})
        config = {"command": name, "output_dir": str(out / name),
                  "parameters": {"quick": True, **extra.get("parameters", {})},
                  **({"model": extra["model"]} if "model" in extra else {})}
        return python(RESOLVE_THEN_RUN, json.dumps(config), cwd=out)

    with ThreadPoolExecutor(2) as pool:
        return dict(zip(commands, pool.map(probe, commands)))


def test_declared_imports_cover_each_runner(quick_runs):
    assert {name: set(COMMANDS[name].imports)
            for name in quick_runs if COMMANDS[name].imports} == LOADS
    problems = {}
    for name, got in quick_runs.items():
        resolved, ran = set(got["resolved"]), set(got["ran"])
        if ran - resolved:
            problems[name] = f"loaded during the run: {sorted(ran - resolved)}"
        elif not LOADS.get(name, set()) <= resolved:
            problems[name] = f"not loaded by resolving: {sorted(LOADS[name] - resolved)}"
        elif name not in LOADS and ran:
            problems[name] = f"loads scipy: {sorted(ran)}"
        elif name in LOADS and {m for m in ran if m.split(".")[:4] != CORE.split(".")}:
            problems[name] = f"loads more than the HiGHS core: {sorted(ran)}"
        elif got["ma_loaded_by_run"]:
            problems[name] = "the run loads numpy.ma"
        elif not got["passed"]:
            problems[name] = "a report failed"
    assert problems == {}


def test_only_the_runs_that_draw_load_numpy_random(quick_runs):
    # numpy.random (with secrets and hmac) takes about 9 ms to import; each
    # runner that draws builds its generator from the seed itself
    assert {name for name, got in quick_runs.items() if got["random_loaded"]} == DRAWS


def test_suite_declares_what_its_rows_need():
    rows = {command for _, command, _ in _suite_row_configs("quick")}
    needed = {module for command in rows for module in COMMANDS[command].imports}
    assert needed and needed <= set(COMMANDS["suite"].imports)
