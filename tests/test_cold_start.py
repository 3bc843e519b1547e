"""Cold start: importing the package loads no scipy, and each command's
``CommandSpec.imports`` names every scipy module its runner loads, so that
``ExperimentConfig.resolved`` pays for them before ``run`` starts."""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import lorentz_synth
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
record = cli.run(config)
print(json.dumps({"resolved": resolved, "ran": scipy_modules(),
                  "passed": record.passed}))
"""

# which scipy each command loads; every other command loads none
LOADS = {
    "transport": {"scipy.optimize", "scipy.sparse"},
    "tmcp": {"scipy.optimize", "scipy.sparse"},
    "tcd": {"scipy.optimize", "scipy.sparse"},
    "brenier": {"scipy.optimize", "scipy.sparse"},
}

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


def test_declared_imports_cover_each_runner(tmp_path):
    commands = [name for name in COMMANDS if name != "suite"]

    def probe(name):
        extra = SMALLEST.get(name, {})
        config = {"command": name, "output_dir": str(tmp_path / name),
                  "parameters": {"quick": True, **extra.get("parameters", {})},
                  **({"model": extra["model"]} if "model" in extra else {})}
        return python(RESOLVE_THEN_RUN, json.dumps(config), cwd=tmp_path)

    with ThreadPoolExecutor(2) as pool:
        results = dict(zip(commands, pool.map(probe, commands)))
    assert {name: set(COMMANDS[name].imports)
            for name in commands if COMMANDS[name].imports} == LOADS
    problems = {}
    for name, got in results.items():
        resolved, ran = set(got["resolved"]), set(got["ran"])
        if ran - resolved:
            problems[name] = f"loaded during the run: {sorted(ran - resolved)}"
        elif not LOADS.get(name, set()) <= resolved:
            problems[name] = f"not loaded by resolving: {sorted(LOADS[name] - resolved)}"
        elif name not in LOADS and ran:
            problems[name] = f"loads scipy: {sorted(ran)}"
        elif not got["passed"]:
            problems[name] = "a report failed"
    assert problems == {}


def test_suite_declares_what_its_rows_need():
    rows = {command for _, command, _ in _suite_row_configs("quick")}
    needed = {module for command in rows for module in COMMANDS[command].imports}
    assert needed and needed <= set(COMMANDS["suite"].imports)
