"""Make the reference conditional mean for the slab-negdep Euler check.

    python3 perfbench/make_reference.py

Draws the workload's law (Lomax margins under a Student-t copula) with plain
numpy and scipy, keeps the draws whose sum lies within a thin slab around K,
and writes their mean to reference/slab-negdep.json.  It also writes the mean
of the draws in the program's own slab (half-width sampler.delta, rows scaled
to sum to K), so that the check can allow for the shift a wider slab causes.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy import stats

HERE = Path(__file__).resolve().parent
CONFIG = HERE / "configs" / "slab-negdep.json"
OUT = HERE / "reference" / "slab-negdep.json"
THIN_DELTA = 0.25
CHUNK = 1_000_000
# The values that made the committed reference: rerunning remakes it exactly.
DRAWS = 120_000_000
SEED = 20240801


def draw(spec, n, rng):
    corr = np.asarray(spec["corr"], dtype=float)
    nu = float(spec["nu"])
    z = rng.standard_normal((n, corr.shape[0])) @ np.linalg.cholesky(corr).T
    t = z / np.sqrt(rng.chisquare(nu, size=n) / nu)[:, None]
    u = stats.t.cdf(t, nu)
    return np.column_stack([
        stats.lomax.ppf(u[:, j], c=float(m["shape"]), scale=float(m["scale"]))
        for j, m in enumerate(spec["margins"])
    ])


class Moments:
    def __init__(self, d):
        self.n, self.s, self.ss = 0, np.zeros(d), np.zeros(d)

    def add(self, x):
        self.n += x.shape[0]
        self.s += x.sum(axis=0)
        self.ss += (x * x).sum(axis=0)

    def summary(self, **extra):
        mean = self.s / self.n
        sd = np.sqrt(self.ss / self.n - mean ** 2)
        return dict(extra, hits=self.n, mean=mean.tolist(), sd=sd.tolist(),
                    se=(sd / math.sqrt(self.n)).tolist())


def main():
    with open(CONFIG, encoding="utf-8") as fh:
        doc = json.load(fh)
    spec, K = doc["model"], float(doc["capital"]["K"])
    wide_delta = float(doc["sampler"]["delta"])
    d = len(spec["margins"])
    rng = np.random.default_rng(SEED)
    thin, wide = Moments(d), Moments(d)
    for _ in range(DRAWS // CHUNK):
        x = draw(spec, CHUNK, rng)
        s = x.sum(axis=1)
        thin.add(x[np.abs(s - K) < THIN_DELTA])
        keep = np.abs(s - K) < wide_delta
        wide.add(x[keep] * (K / s[keep])[:, None])
    ref = {
        "made_by": "python3 perfbench/make_reference.py",
        "seed": SEED,
        "draws": DRAWS,
        "model": spec,
        "K": doc["capital"]["K"],
        "thin": thin.summary(delta=THIN_DELTA),
        "wide": wide.summary(delta=doc["sampler"]["delta"], standardized=True),
    }
    OUT.parent.mkdir(exist_ok=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=2)
        fh.write("\n")
    print(json.dumps({k: ref[k] for k in ("thin", "wide")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
