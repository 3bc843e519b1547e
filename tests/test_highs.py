"""The HiGHS bindings loaded alone (``lorentz_synth._highs``): the same bits
as ``scipy.optimize.linprog`` whichever of the two is imported first, and a
clear error when the bindings are missing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lorentz_synth
from lorentz_synth import _highs

SRC = str(Path(lorentz_synth.__file__).resolve().parent.parent)
TESTS = str(Path(__file__).resolve().parent)

# one transport LP, 12 x 9 with about a third of the pairs excluded, solved
# through transport._optimal_plan (capturing the duals its certificate reads)
# and through linprog on the same equality matrix, built dense
# (oracles.lq_plan_dense); the first argument says whether the HiGHS core or
# scipy.optimize is loaded first
SOLVE_BOTH = """
import json
import sys
import numpy as np
from lorentz_synth import _highs, transport
from oracles import lq_plan_dense

rng = np.random.default_rng(7)
L = rng.uniform(0.1, 2.0, (12, 9))
L[rng.random((12, 9)) < 0.3] = -np.inf
mu_w, nu_w = rng.random(12) + 0.1, rng.random(9) + 0.1
mu = transport.DiscreteMeasure(tuple((float(i), 0.0) for i in range(12)),
                               mu_w / mu_w.sum())
nu = transport.DiscreteMeasure(tuple((float(j), 1.0) for j in range(9)),
                               nu_w / nu_w.sum())
seen = []
certify = transport._certify
transport._certify = lambda cost, plan, duals, allowed: (
    seen.append(duals), certify(cost, plan, duals, allowed))

def direct():
    seen.clear()
    _, plan = transport._optimal_plan(mu, nu, L, 0.5)
    return plan.matrix.tobytes(), seen[0].tobytes()

if sys.argv[1] == "core-first":
    _highs.core()
else:
    import scipy.optimize
plan, duals = direct()
_, want_plan, want_duals = lq_plan_dense(mu.weights, nu.weights, L, 0.5)
# a second direct solve, with both loaded
again_plan, again_duals = direct()
print(json.dumps({
    "same_module": sys.modules[_highs.CORE] is _highs.core(),
    "optimize_loaded": "scipy.optimize" in sys.modules,
    "plan": plan == want_plan.tobytes() == again_plan,
    "duals": duals == want_duals.tobytes() == again_duals,
}))
"""


def python(script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, TESTS, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("order", ["core-first", "optimize-first"])
def test_either_import_order_solves_with_linprogs_bits(order):
    assert python(SOLVE_BOTH, order) == {"same_module": True, "optimize_loaded": True,
                                         "plan": True, "duals": True}


def test_a_missing_core_names_the_scipy_it_needs(tmp_path):
    (tmp_path / "optimize" / "_highspy").mkdir(parents=True)
    before = sys.modules.get(_highs.CORE)
    with pytest.raises(ImportError, match=rf"scipy>={_highs.SCIPY_FLOOR}") as info:
        _highs._load_core_from(str(tmp_path))
    assert info.value.name == _highs.CORE
    assert sys.modules.get(_highs.CORE) is before
