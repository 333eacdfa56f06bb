"""Euler and multimodality-adjusted capital allocations, and the core polytope."""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SampleSizeError, ShapeError
from .models import empirical_var
from .samplers import Polytope


@dataclass
class Allocation:
    a: np.ndarray
    K: float
    method: str
    se: np.ndarray = None

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        if abs(self.a.sum() - self.K) > 1e-9 * max(1.0, abs(self.K)):
            raise ParameterError("allocation does not sum to K within 1e-9 * max(1, |K|)")


def euler_allocation(samples, K, ess=None):
    """Componentwise conditional mean, re-projected to sum exactly K."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    n, d = samples.shape
    if n < 30:
        raise SampleSizeError("need at least 30 conditional samples")
    abar = samples.mean(axis=0)
    a = abar - (abar.sum() - K) / d
    neff = np.full(d, n, dtype=float) if ess is None else np.asarray(ess, dtype=float)
    se = samples.std(axis=0, ddof=1) / np.sqrt(neff)
    return Allocation(a, float(K), "Euler", se=se)


@dataclass
class ScenarioSet:
    scenarios: np.ndarray          # (M, d)
    weights: np.ndarray            # (M,)
    K: float = None
    sum_tol: float = 1e-9

    def __post_init__(self):
        self.scenarios = np.atleast_2d(np.asarray(self.scenarios, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        m, d = self.scenarios.shape
        if self.weights.size != m:
            raise ShapeError("one weight per scenario required")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ParameterError("weights must sum to 1 within 1e-12")
        if np.any(self.weights < 0.0):
            raise ParameterError("weights must be nonnegative")
        sums = self.scenarios.sum(axis=1)
        if self.K is None:
            self.K = float(sums[0])
        if np.any(np.abs(sums - self.K) > self.sum_tol):
            raise ParameterError("every scenario must sum to K within the tolerance")
        for i, j in itertools.combinations(range(m), 2):
            if np.linalg.norm(self.scenarios[i] - self.scenarios[j]) <= 1e-9:
                raise ParameterError("scenarios must be pairwise distinct")


def multimodality_adjust(scenarios, loadings, baseline=None):
    """Baseline plus the nonnegative scenario-variability loading.

    Returns (baseline allocation, adjustment vector, total vector).  The
    total need not sum to K: the adjustment is a capital add-on.
    """
    sc = scenarios.scenarios
    w = scenarios.weights
    m, d = sc.shape
    lam = np.asarray(loadings, dtype=float)
    if lam.ndim == 0:
        lam = np.full((d, m), float(lam))
    if lam.shape != (d, m):
        raise ShapeError(f"loading matrix must be {d}x{m}")
    if np.any(lam < 0.0):
        raise ParameterError("loadings must be nonnegative")
    if baseline is not None:
        if abs(baseline.a.sum() - scenarios.K) > max(1e-9, scenarios.sum_tol):
            raise ParameterError("baseline must be a full allocation at K")
        base = baseline.a
        base_alloc = baseline
    else:
        base = w @ sc
        base_alloc = Allocation(base, float(base.sum()), "Baseline")
    excess = np.maximum(sc - base, 0.0)           # (M, d)
    adjustment = np.einsum("m,jm,mj->j", w, lam, excess)
    return base_alloc, adjustment, base + adjustment


def core_polytope(model, p, n_cal, seed):
    """Coalition-bound polytope from one calibration sample; K = r(1_d)."""
    if not 0.0 < p < 1.0:
        raise ParameterError("need 0 < p < 1")
    if n_cal < 10.0 / (1.0 - p):
        raise SampleSizeError("calibration sample too small for this level")
    d = model.d
    x = model.sample(n_cal, seed)
    constraints = []
    K = None
    for bits in itertools.product((0, 1), repeat=d):
        lam = np.array(bits, dtype=float)
        if not lam.any():
            continue
        r = empirical_var(x @ lam, p)
        if lam.all():
            K = r                      # the full-coalition bound is the capital
        else:
            constraints.append((lam, r))
    poly = Polytope(constraints, K, d)
    return poly, K

