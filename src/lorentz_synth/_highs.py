"""HiGHS (Huangfu-Hall) through the pybind11 bindings that scipy ships.

``scipy.optimize.linprog(method="highs")`` reaches HiGHS through the extension
``scipy.optimize._highspy._core``. Importing that extension the usual way runs
``scipy/optimize/__init__`` first, which loads ``scipy.linalg``,
``scipy.special``, ``scipy.sparse`` and about 320 more modules (about 0.4 s of
every cold LP run). :func:`core` loads the extension alone, from its file,
under its real dotted name (about 7 ms), and :func:`solve` fills the LP with the
options ``linprog(method="highs")`` passes, so each solve returns ``linprog``'s
bits: its ``x`` and its equality duals ``eqlin.marginals``.

Nothing is loaded when this module is imported.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

CORE = "scipy.optimize._highspy._core"
# the first scipy release whose HiGHS bindings are the pybind11 module CORE
SCIPY_FLOOR = "1.15"


def _missing(where: str) -> ImportError:
    return ImportError(f"the HiGHS bindings {CORE} were not found {where}; "
                       f"the LP commands need scipy>={SCIPY_FLOOR}", name=CORE)


def _load_core_from(scipy_dir) -> object:
    """Load CORE from the file under the scipy package directory
    ``scipy_dir`` and register it in ``sys.modules``. Its parent packages are
    neither imported nor registered; importing ``scipy.optimize`` later finds
    the module registered and reuses it (loading the extension a second time,
    under another name, fails: pybind11 registers each of its types once)."""
    stem = os.path.join(scipy_dir, "optimize", "_highspy", "_core")
    path = next((stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES
                 if os.path.isfile(stem + suffix)), None)
    if path is None:
        raise _missing(f"under {scipy_dir}")
    spec = importlib.util.spec_from_file_location(
        CORE, path, loader=importlib.machinery.ExtensionFileLoader(CORE, path))
    module = importlib.util.module_from_spec(spec)
    sys.modules[CORE] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[CORE]
        raise
    return module


def core():
    """The HiGHS extension module: the one registered in ``sys.modules``, by
    an earlier call or by an import of ``scipy.optimize``, or else loaded
    from scipy's package directory (and so registered)."""
    module = sys.modules.get(CORE)
    if module is None:
        spec = importlib.util.find_spec("scipy")
        if spec is None or not spec.submodule_search_locations:
            raise _missing("(scipy is not installed)")
        module = _load_core_from(spec.submodule_search_locations[0])
    return module


def solve(cost: np.ndarray, indptr: np.ndarray, indices: np.ndarray,
          data: np.ndarray, b_eq: np.ndarray):
    """Minimize ``cost @ x`` subject to ``A x = b_eq`` and ``x >= 0``, where
    A is the CSC matrix (``indptr``, ``indices``, ``data``) with one column
    per entry of ``cost``, as ``linprog(method="highs")`` solves it.

    Returns ``(x, duals)`` when HiGHS reports an optimal model, where
    ``duals`` are the row duals (``linprog``'s ``eqlin.marginals``); None
    otherwise (infeasible, unbounded, or any solver error)."""
    h = core()
    n_col, n_row = len(cost), len(b_eq)
    lp = h.HighsLp()
    lp.num_col_ = n_col
    lp.num_row_ = n_row
    lp.a_matrix_.num_col_ = n_col
    lp.a_matrix_.num_row_ = n_row
    lp.a_matrix_.format_ = h.MatrixFormat.kColwise
    lp.col_cost_ = cost
    lp.col_lower_ = np.zeros(n_col)
    lp.col_upper_ = np.full(n_col, h.kHighsInf)
    lp.row_lower_ = b_eq
    lp.row_upper_ = b_eq
    lp.a_matrix_.start_ = indptr
    lp.a_matrix_.index_ = indices
    lp.a_matrix_.value_ = data

    # the options linprog(method="highs") sets; every other one keeps
    # HiGHS's default, as there
    options = h.HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = h.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    options.simplex_strategy = h.simplex_constants.SimplexStrategy.kSimplexStrategyDual

    highs = h._Highs()
    error = h.HighsStatus.kError
    if (highs.passOptions(options) == error or highs.passModel(lp) == error
            or highs.run() == error
            or highs.getModelStatus() != h.HighsModelStatus.kOptimal):
        return None
    solution = highs.getSolution()
    return np.array(solution.col_value), np.array(solution.row_dual)
