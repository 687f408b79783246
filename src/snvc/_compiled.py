"""scipy's compiled LAPACK, BLAS and L-BFGS-B modules, without their packages.

The package calls a handful of LAPACK and BLAS routines and L-BFGS-B's
``setulb``.  They live in three compiled modules, ``scipy/linalg/_flapack``,
``scipy/linalg/_fblas`` and ``scipy/optimize/_lbfgsb``; the routines scipy's
``linalg.lapack`` and ``linalg.blas`` hand out are these modules' own.
Importing scipy's ``linalg`` or ``optimize`` package to reach them would also
run its ``__init__``, which loads solvers the package never calls and,
through ``scipy._lib``, numpy's ``f2py``, ``testing``, ``ma`` and ``random``.
So each module is loaded from its file here.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import scipy


def _load(package: str, name: str):
    """The compiled module ``scipy.<package>.<name>``, loaded from its file
    in scipy's ``package`` directory without running that package.  The
    ``sys.modules`` entry the loader makes is undone, so a later ``import
    scipy.<package>`` loads and binds its own module as usual."""
    dotted = f"scipy.{package}.{name}"
    spec = importlib.machinery.PathFinder.find_spec(dotted, [os.path.join(os.path.dirname(scipy.__file__), package)])
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no compiled {dotted}; snvc calls it as in scipy 1.17.1")
    kept = sys.modules.get(dotted)
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        if kept is None:
            sys.modules.pop(dotted, None)
        else:
            sys.modules[dotted] = kept
    return module


lapack = _load("linalg", "_flapack")
blas = _load("linalg", "_fblas")
lbfgsb = _load("optimize", "_lbfgsb")
