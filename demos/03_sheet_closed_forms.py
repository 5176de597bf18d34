"""
Closed-form spectrum of the incompressible sheet
================================================

The incompressible neo-Hookean sheet has energy density

    psi = mu/2 * (I2 + 1/I3^2 - 3)

whose Hessian eigensystem is fully explicit: four eigenvalues are
rational in (s1, s2) and the in-plane diagonal pair comes from a 2x2
block solved by the quadratic formula.  sheet_eigensystem implements
those formulas; below they are checked against two independent routes.
"""

import numpy as np

from membrane_eig import (
    NeoHookeanSheet,
    energy_eigensystem,
    fd_hessian6,
    invariants,
    jacobi_eigen_sym,
    run_bench,
    sheet_eigensystem,
    svd32,
)

mu = 1.0
f = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])  # stretches (2, 1)
svd = svd32(f)

eig = sheet_eigensystem(mu, svd)
print("closed-form eigenvalues at sigma=(2,1):")
for k, lam in enumerate(eig.values):
    print(f"  lambda[{k}] = {lam!r}")

# Route two: the generic assembler only needs psi's derivatives in the
# invariants; it never sees the sheet-specific formulas.
model = NeoHookeanSheet(mu)
generic = energy_eigensystem(model, svd)
print("\nmax |closed - generic| =", np.max(np.abs(eig.values - generic.values)))

# Route three: finite differences of psi plus a Jacobi eigensolve.
def psi(x):
    return model.derivs(invariants(svd32(x))).psi

oracle = jacobi_eigen_sym(fd_hessian6(psi, f))
print("max |closed - FD oracle| =",
      np.max(np.abs(np.sort(eig.values) - oracle.values)))

# The closed forms exist because they are cheap.  run_bench times both
# routes, one F at a time, on 200 admissible states (seed 0, I3 > 0.05).
bench = run_bench(trials=200)
print(f"\nanalytic route: {bench.analytic_ns / 1e3:.1f} us/call")
print(f"FD + Jacobi   : {bench.oracle_ns / 1e3:.1f} us/call")
print(f"speedup       : {bench.speedup:.0f}x")
