"""Properties of the priors' support laws on random priors and models.

The Monte Carlo route forms each pair term from the two supports alone
(``divergences._pair_terms``).  Here it must equal the dense form
<theta, Sigma^-1 theta~> for random priors (every sign rule, with and
without a universe, single groups and whole groups, p <= 64) under random
models (rank-one patterns that are not sign patterns included).
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from corrdetect.divergences import (
    SIGN_RULES,
    GroupSupported,
    SingleGroupSparse,
    UniformSparse,
    _pair_terms,
)
from corrdetect.models import (
    Equicorrelated,
    Grouped,
    RankOne,
    _precision_weights,
    precision_apply,
)
from corrdetect.streams import substream

_PROPERTY = dict(derandomize=True, database=None, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _divisors(p):
    return [R for R in range(1, p + 1) if p % R == 0]


@st.composite
def priors(draw, p):
    kind = draw(st.sampled_from(["uniform", "single_group", "whole_groups"]))
    magnitude = draw(st.floats(0.05, 2.0))
    if kind == "uniform":
        universe = None
        if draw(st.booleans()):
            universe = np.array(draw(st.lists(st.integers(0, p - 1), min_size=1,
                                              max_size=p, unique=True)))
        population = p if universe is None else universe.size
        s = draw(st.integers(1, min(population, 8)))
        return UniformSparse(p, s, magnitude, signs=draw(st.sampled_from(SIGN_RULES)),
                             universe=universe)
    R = draw(st.sampled_from(_divisors(p)))
    if kind == "single_group":
        return SingleGroupSparse(p, R, draw(st.integers(1, min(p // R, 8))), magnitude)
    return GroupSupported(p, R, draw(st.integers(1, R)), magnitude)


@st.composite
def models(draw, p):
    kind = draw(st.sampled_from(["equicorrelated", "grouped", "sign_pattern", "rank_one"]))
    gamma = draw(st.sampled_from([0.0, 0.3, 0.7, 0.95]))
    if kind == "equicorrelated":
        return Equicorrelated(p, gamma)
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    if kind == "grouped":
        return Grouped(p, draw(st.sampled_from(_divisors(p))), gamma)
    if kind == "sign_pattern":
        return RankOne(p, gamma, rng.choice([-1.0, 1.0], size=p))
    return RankOne.renormalized(p, gamma, rng.standard_normal(p) + 0.1)


@st.composite
def cases(draw):
    p = draw(st.integers(2, 64))
    model = draw(models(p))
    v = getattr(model, "v", None)
    if v is None:  # a sign-matched prior needs a pattern of its own
        v = np.random.default_rng(p).choice([-1.0, 1.0], size=p)
    return draw(priors(p)), model, v, draw(st.integers(0, 2 ** 16))


@settings(max_examples=300, **_PROPERTY)
@given(case=cases())
def test_support_pair_terms_equal_the_dense_form(case):
    prior, model, v, seed = case
    idx, values = prior.supports(substream(seed, 0), v, 2 * 40)
    thetas = np.zeros((idx.shape[0], prior.p))
    np.put_along_axis(thetas, idx, np.broadcast_to(values, idx.shape), axis=-1)
    dense = (thetas[0::2] * precision_apply(model, thetas[1::2])).sum(axis=-1)
    # A pair term that cancels to about 0 is compared at the scale of what
    # cancelled: both halves of <theta, theta~> / (1 - gamma) - c sum_k
    # P_k(theta) P_k(theta~), each with its terms in absolute value.  The two
    # sides sum in different orders, so a term can cancel to 0 in one and to
    # a rounding residue in the other.
    one_minus, coef = _precision_weights(model)
    loaded = np.add.reduce(np.abs(model.block_view(thetas) * model.lift(np.ones(model.R))),
                           axis=-1)
    scale = ((np.abs(thetas[0::2]) * np.abs(thetas[1::2])).sum(axis=-1) / one_minus
             + abs(coef) * (loaded[0::2] * loaded[1::2]).sum(axis=-1))
    terms = _pair_terms(model, idx, values)
    assert terms.shape == (40,)
    assert np.all(np.abs(terms - dense) <= 1e-12 * scale)
