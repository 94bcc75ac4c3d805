"""The three noise models and the decorrelating transform.

Each model is sampled through its additive random-effect representation
into a plain array of draws, one row each; the decorrelating transform projects out the correlated direction(s),
rescales, and injects fresh noise so the output is exactly standard normal
under the null, whatever the correlation level.
"""

import numpy as np

from corrdetect import (
    Equicorrelated,
    Grouped,
    RankOne,
    covariance_apply,
    decorrelate,
    precision_apply,
    sample,
)

rng = np.random.default_rng(0)

print("Empirical covariance of an equicorrelated draw (p=4, gamma=0.6):")
model = Equicorrelated(4, 0.6)
x = sample(model, None, rng, size=200_000)
print(np.round(np.cov(x.T), 3))

print("\nAfter decorrelation the covariance is the identity:")
xt = decorrelate(model, x, rng)
print(np.round(np.cov(xt.T), 3))

print("\nGrouped model (p=6, R=2): correlation only within blocks:")
gm = Grouped(6, 2, 0.7)
xg = sample(gm, None, rng, size=200_000)
print(np.round(np.corrcoef(xg.T), 2))

print("\nRank-one pattern model: correlation proportional to v_i * v_j:")
v = RankOne.renormalized(5, 0.8, np.array([2.0, 1.0, 1.0, -1.0, 0.5])).v
rm = RankOne(5, 0.8, v)
xr = sample(rm, None, rng, size=200_000)
print("pattern v:", np.round(v, 3))
print(np.round(np.cov(xr.T), 2))

print("\nClosed-form precision: Sigma(Sigma^-1 u) returns u to machine accuracy:")
u = rng.standard_normal(5)
back = covariance_apply(rm, precision_apply(rm, u))
print("max |Sigma Sigma^-1 u - u| =", float(np.max(np.abs(back - u))))

print("\nPerfect correlation collapses the noise onto the shared factor:")
pm = Equicorrelated(4, 1.0)
draws = sample(pm, None, rng, size=3)
print(np.round(draws, 3), "<- rows are constant vectors")
