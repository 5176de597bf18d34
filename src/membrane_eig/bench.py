"""Timing comparison of the closed-form sheet eigensystem against the
finite-difference + Jacobi oracle route on a shared random ensemble."""

import time
from dataclasses import dataclass

import numpy as np

from .checks import _MU, _sheet_psi, random_f_admissible
from .models import sheet_eigensystem
from .oracles import fd_hessian6, jacobi_eigen_sym
from .svd import svd32

__all__ = ["run_bench"]

_SEED = 0


@dataclass(frozen=True)
class BenchReport:
    """Mean per-call wall times (ns) for both routes plus their ratio."""

    trials: int
    analytic_ns: float
    oracle_ns: float
    speedup: float

    def table(self):
        lines = [
            f"{'route':<28}{'mean ns/call':>16}",
            f"{'closed-form eigensystem':<28}{self.analytic_ns:>16.0f}",
            f"{'fd hessian + jacobi':<28}{self.oracle_ns:>16.0f}",
            f"speedup: {self.speedup:.1f}x over {self.trials} trials",
        ]
        return "\n".join(lines)

    def csv(self):
        return (
            "route,mean_ns_per_call\n"
            f"analytic,{self.analytic_ns!r}\n"
            f"fd_jacobi,{self.oracle_ns!r}\n"
            f"speedup,{self.speedup!r}\n"
        )


def run_bench(trials=200):
    """Time both spectrum routes, interleaved F by F, on one admissible
    ensemble (seed 0) for the checks' sheet: ``_MU`` and its energy
    ``_sheet_psi``."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(_SEED)
    fs = [random_f_admissible(rng)[0] for _ in range(trials)]

    # Each F times both routes, alternating which goes first, so a burst of
    # load falls on both; an untimed call first warms the route's caches.
    routes = (
        lambda f: sheet_eigensystem(_MU, svd32(f)),
        lambda f: jacobi_eigen_sym(fd_hessian6(_sheet_psi, f)),
    )
    ns = [0, 0]
    for k, f in enumerate(fs):
        for r in (k % 2, 1 - k % 2):
            routes[r](f)
            t0 = time.perf_counter_ns()
            routes[r](f)
            ns[r] += time.perf_counter_ns() - t0
    return BenchReport(
        trials=trials,
        analytic_ns=ns[0] / trials,
        oracle_ns=ns[1] / trials,
        speedup=ns[1] / ns[0],
    )
