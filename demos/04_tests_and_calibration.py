"""Building tests: paper-form constants versus Monte Carlo calibration.

Closed-form thresholds fix the order of each threshold through one constant
C, not its level: at C = 3 they are conservative for single-random-effect
plans and far too low for grouped ones.  Calibrating each constituent to its
exact null quantile keeps the statistic and threshold shapes while holding
the error budget.  Both modes share identical statistic plans, and a test
evaluates plain data vectors of the model it was built for.
"""

import math

import numpy as np

from corrdetect import Equicorrelated, sample
from corrdetect.geometry import make_sparse_signal
from corrdetect.procedures import build_test, evaluate, model_for
from corrdetect.rates import rate_equicorrelated
from corrdetect.streams import substream

p, s, gamma = 256, 4, 0.5
print(f"Composite for p={p}, s={s}, gamma={gamma}:")
paper = build_test("equicorrelated", p, s, gamma, mode="paper_constants", C=4.0)
cal = build_test("equicorrelated", p, s, gamma, mode="calibrated", eta=0.1,
                 n_cal=4000, rng=substream(0, 1))
for c_paper, c_cal in zip(paper.constituents, cal.constituents):
    print(f"  {c_paper.name:12s} threshold: paper C=4 -> {c_paper.threshold:9.2f}"
          f" | calibrated q={1 - 0.1 / 2:.3f} -> {c_cal.threshold:9.2f}")

print("\nDense composites add mean-direction constituents:")
dense = build_test("equicorrelated", p, 200, gamma, mode="paper_constants", C=4.0)
print("  s=200 constituents:", [c.name for c in dense.constituents])
vdense = build_test("equicorrelated", p, 250, gamma, mode="paper_constants", C=4.0)
print("  s=250 constituents:", [c.name for c in vdense.constituents])

print("\nPower curve of the calibrated sparse test (1000 draws per point):")
model = model_for(cal)
rate = rate_equicorrelated(p, s, gamma).value
rng = np.random.default_rng(7)
print(f"{'multiplier':>10} {'rejection rate':>15}")
for mult in [0.125, 0.5, 1.0, 2.0, 4.0, 8.0]:
    theta = make_sparse_signal(p, s, math.sqrt(mult * rate / s)).theta
    rej = sum(evaluate(cal, sample(model, theta, rng), rng).reject
              for _ in range(1000)) / 1000
    print(f"{mult:10.3f} {rej:15.3f}")
null_rej = sum(evaluate(cal, sample(model, None, rng), rng).reject
               for _ in range(1000)) / 1000
print(f"{'null':>10} {null_rej:15.3f}   (budget eta/2 = 0.05)")

print("\nThe sparsity-adaptive composite needs no s input:")
adaptive = build_test("equicorrelated", p, "adaptive", gamma, mode="calibrated",
                      eta=0.1, n_cal=4000, rng=substream(0, 2))
print("  constituents:", [c.name for c in adaptive.constituents])
theta = make_sparse_signal(p, 3, math.sqrt(25 * rate_equicorrelated(p, 3, gamma).value / 3)).theta
rej = sum(evaluate(adaptive, sample(model, theta, rng), rng).reject
          for _ in range(400)) / 400
print(f"  rejection at 5x the (unknown-to-the-test) s=3 rate: {rej:.3f}")
