"""Independent reference for the neo-Hookean sheet, in plain numpy.

Nothing here calls the program: rest frames come from the benchmark's own
grid, the area stretch is I3 = |f1 x f2| (no SVD), the gradient is derived
by hand from that form, and the Hessian spectrum comes from central
differences of this module's own psi, diagonalised by numpy's eigvalsh.

    psi(F) = mu/2 (I2 + 1/I3^2 - 3),   I2 = |F|^2,   I3 = |f1 x f2|
    E(x)   = sum_e area_e psi(F_e) - sum_v g . x_v
"""

import numpy as np


def rest_frames(rest, triangles):
    """Inverse rest edge matrices (E, 2, 2) and rest areas (E,) of a mesh
    that lies in the z = 0 plane."""
    p = np.asarray(rest, dtype=float)[:, :2]
    t = np.asarray(triangles, dtype=int)
    dm = np.stack([p[t[:, 1]] - p[t[:, 0]], p[t[:, 2]] - p[t[:, 0]]], axis=-1)
    area = 0.5 * np.abs(np.linalg.det(dm))
    return np.linalg.inv(dm), area


def deformation_gradients(positions, triangles, dm_inv):
    """F_e = [x1 - x0 | x2 - x0] Dm_e^-1, shape (E, 3, 2)."""
    x = np.asarray(positions, dtype=float)
    t = np.asarray(triangles, dtype=int)
    ds = np.stack([x[t[:, 1]] - x[t[:, 0]], x[t[:, 2]] - x[t[:, 0]]], axis=-1)
    return ds @ dm_inv


def psi(f, mu):
    """Sheet energy density of a stack of 3x2 gradients (..., 3, 2)."""
    f = np.asarray(f, dtype=float)
    i2 = np.sum(f * f, axis=(-2, -1))
    i3 = np.linalg.norm(np.cross(f[..., 0], f[..., 1]), axis=-1)
    return 0.5 * mu * (i2 + 1.0 / (i3 * i3) - 3.0)


def psi_gradient(f, mu):
    """d psi / dF of a stack (E, 3, 2): mu F - mu I3^-3 dI3/dF, where
    dI3/df1 = f2 x n and dI3/df2 = n x f1 for the unit normal n."""
    f = np.asarray(f, dtype=float)
    c = np.cross(f[..., 0], f[..., 1])
    i3 = np.linalg.norm(c, axis=-1)
    n = c / i3[..., None]
    di3 = np.stack([np.cross(f[..., 1], n), np.cross(n, f[..., 0])], axis=-1)
    return mu * f - (mu / i3 ** 3)[..., None, None] * di3


def energy_terms(positions, triangles, dm_inv, area, mu, gravity):
    """The two parts of E(x): (sum_e area_e psi_e, sum_v g . x_v)."""
    f = deformation_gradients(positions, triangles, dm_inv)
    elastic = float(np.sum(area * psi(f, mu)))
    load = float(np.sum(np.asarray(positions, dtype=float) @ np.asarray(gravity)))
    return elastic, load


def energy(positions, triangles, dm_inv, area, mu, gravity):
    elastic, load = energy_terms(positions, triangles, dm_inv, area, mu, gravity)
    return elastic - load


def gradient(positions, triangles, dm_inv, area, mu, gravity):
    """dE/dx, shape (N, 3), with no pins applied."""
    x = np.asarray(positions, dtype=float)
    t = np.asarray(triangles, dtype=int)
    f = deformation_gradients(x, t, dm_inv)
    # dE_e/dDs = area P Dm^-T; its columns are the forces on x1 and x2.
    h = area[:, None, None] * (psi_gradient(f, mu) @ np.swapaxes(dm_inv, 1, 2))
    g = np.zeros_like(x)
    np.add.at(g, t[:, 1], h[:, :, 0])
    np.add.at(g, t[:, 2], h[:, :, 1])
    np.add.at(g, t[:, 0], -h[:, :, 0] - h[:, :, 1])
    return g - np.asarray(gravity, dtype=float)


def fd_hessian6(f, mu, h=1e-4):
    """Central-difference 6x6 Hessian of psi over row-major vec(F)."""
    f = np.asarray(f, dtype=float).reshape(6)
    eye = np.eye(6) * h
    signs = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    stack = np.array(
        [[[f + a * eye[i] + b * eye[j] for a, b in signs] for j in range(6)]
         for i in range(6)]
    )
    p = psi(stack.reshape(6, 6, 4, 3, 2), mu)
    hess = (p[..., 0] - p[..., 1] - p[..., 2] + p[..., 3]) / (4.0 * h * h)
    return 0.5 * (hess + hess.T)


def fd_spectrum(f, mu):
    """Ascending eigenvalues of the finite-difference Hessian of psi at F."""
    return np.linalg.eigvalsh(fd_hessian6(f, mu))


def random_fs(rng, count, low=0.6, high=1.6):
    """Seeded 3x2 gradients R3 pad(s1, s2) R2^T with stretches in
    [low, high], far enough from I3 = 0 for a finite-difference spectrum."""
    out = []
    for _ in range(count):
        q3, r3 = np.linalg.qr(rng.standard_normal((3, 3)))
        q2, r2 = np.linalg.qr(rng.standard_normal((2, 2)))
        q3 = q3 * np.sign(np.diag(r3))
        q2 = q2 * np.sign(np.diag(r2))
        s = np.sort(rng.uniform(low, high, size=2))[::-1]
        out.append(q3[:, :2] @ np.diag(s) @ q2.T)
    return out
