"""Shared model fixtures for the test suite."""
import numpy as np
import pytest

import alloc_lab as al


REF_CORR = np.array([
    [1.0, 1.0 / 3.0, 2.0 / 3.0],
    [1.0 / 3.0, 1.0, 1.0 / 3.0],
    [2.0 / 3.0, 1.0 / 3.0, 1.0],
])

LOMAX_CORRS = {
    "m1": np.array([[1.0, 0.8, 0.5], [0.8, 1.0, 0.8], [0.5, 0.8, 1.0]]),
    "m2": np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]]),
    "m3": np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 1.0]]),
    "m4": np.array([[1.0, -0.5, 0.5], [-0.5, 1.0, -0.5], [0.5, -0.5, 1.0]]),
}


@pytest.fixture(scope="session")
def t5_joint():
    """Trivariate t5 with the reference dispersion matrix."""
    return al.EllipticalJoint(np.zeros(3), al.DispersionMatrix(REF_CORR), al.StudentTGen(5.0))


def lomax_t_model(corr):
    """Three Lomax margins coupled by a t5 copula."""
    margins = [al.Lomax(2.5, 5.0), al.Lomax(2.75, 5.0), al.Lomax(3.0, 5.0)]
    return al.MarginCopula(margins, al.StudentTCopula(5.0, corr))


@pytest.fixture(scope="session")
def m1_model():
    return lomax_t_model(LOMAX_CORRS["m1"])


@pytest.fixture(scope="session")
def m4_model():
    return lomax_t_model(LOMAX_CORRS["m4"])


def _fd_grad(f, x, rel=1e-6):
    """Central finite-difference gradient of f at x."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for j in range(x.size):
        h = rel * (1.0 + abs(x[j]))
        xp = x.copy(); xp[j] += h
        xm = x.copy(); xm[j] -= h
        g[j] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def normal_joint(sigma, mu=None):
    sigma = np.asarray(sigma, dtype=float)
    mu = np.zeros(sigma.shape[0]) if mu is None else np.asarray(mu, dtype=float)
    return al.EllipticalJoint(mu, al.DispersionMatrix(sigma), al.NormalGen())


def crossed_box_model():
    """Star-shaped but non-convex shape set: two crossed boxes around 0."""
    from alloc_lab.diagnostics import HomotheticModel

    boxes = [((-2.0, -1.0), (2.0, 1.0)), ((-1.0, -2.0), (1.0, 2.0))]
    return HomotheticModel(boxes, a=1.0 / (2.0 * np.sqrt(3.0)))
