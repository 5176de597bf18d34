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

import time

import numpy as np

from membrane_eig import (
    NeoHookeanSheet,
    energy_eigensystem,
    fd_hessian6,
    invariants,
    jacobi_eigen_sym,
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

# The closed forms exist because they are cheap.  Time both routes on a
# batch of random states.
rng = np.random.default_rng(0)
batch = []
while len(batch) < 200:
    cand = rng.uniform(-2.0, 2.0, (3, 2))
    if invariants(svd32(cand)).i3 > 0.05:
        batch.append(cand)

t0 = time.perf_counter()
for x in batch:
    sheet_eigensystem(mu, svd32(x))
analytic = time.perf_counter() - t0

t0 = time.perf_counter()
for x in batch:
    jacobi_eigen_sym(fd_hessian6(psi, x))
numeric = time.perf_counter() - t0

print(f"\nanalytic route: {1e6 * analytic / len(batch):.1f} us/call")
print(f"FD + Jacobi   : {1e6 * numeric / len(batch):.1f} us/call")
print(f"speedup       : {numeric / analytic:.0f}x")
