"""Stream derivation: numpy's SeedSequence reproduced exactly, keys that
cannot alias, and generators that share no state."""

import random

import numpy as np
import pytest

from corrdetect.errors import ContractError
from corrdetect.streams import stable_token, substream


def _reference(seed, *key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def _random_case(r: random.Random):
    seed = r.choice([0, 1, r.randrange(2 ** 32), r.randrange(2 ** 32, 2 ** 64),
                     r.randrange(2 ** 64, 2 ** 128), 2 ** 128 - 1])
    key = tuple(r.choice([0, 1, r.randrange(2 ** 16), r.randrange(2 ** 32), 2 ** 32 - 1])
                for _ in range(r.randrange(7)))
    return seed, key


def test_matches_seed_sequence_on_random_seeds_and_keys():
    r = random.Random(20240)
    for _ in range(3000):
        seed, key = _random_case(r)
        ours, theirs = substream(seed, *key), _reference(seed, *key)
        assert ours.bit_generator.state == theirs.bit_generator.state, (seed, key)
        assert np.array_equal(ours.standard_normal(3), theirs.standard_normal(3)), (seed, key)


def test_matches_on_cache_hits_and_misses():
    # many replications of one unit share the cached prefix; other units and
    # seeds interleave, so the prefix cache is hit and missed in turn
    r = random.Random(7)
    prefixes = [(r.randrange(2 ** 128), (r.randrange(2 ** 32), 1, r.randrange(2 ** 32)))
                for _ in range(5)]
    for i in range(2000):
        seed, prefix = prefixes[r.randrange(len(prefixes))]
        key = prefix + (i,)
        ours, theirs = substream(seed, *key), _reference(seed, *key)
        assert ours.bit_generator.state == theirs.bit_generator.state, (seed, key)
        assert ours.integers(2 ** 62) == theirs.integers(2 ** 62)


def test_numpy_integers_are_accepted():
    expected = _reference(5, 3, 4).bit_generator.state
    assert substream(np.int64(5), np.uint32(3), np.int16(4)).bit_generator.state == expected
    assert substream(5, 3, 4).bit_generator.state == expected


def test_live_substreams_share_no_state():
    a, b = substream(9, 1, 2), substream(9, 1, 2)
    assert a is not b and a.bit_generator is not b.bit_generator
    first = a.standard_normal(5)
    assert np.array_equal(b.standard_normal(5), first)  # b did not advance with a
    assert np.array_equal(substream(9, 1, 2).standard_normal(5), first)
    assert not np.array_equal(a.standard_normal(5), first)


def test_generator_pickles_to_the_same_stream():
    import pickle

    g = substream(11, 4, 2)
    clone = pickle.loads(pickle.dumps(g))
    assert np.array_equal(clone.standard_normal(4), g.standard_normal(4))


@pytest.mark.parametrize("seed, key", [
    (-1, ()),              # negative seed
    (2 ** 128, ()),        # would alias a shorter seed with one more key entry
    (5, (-1,)),            # negative key entry
    (5, (2 ** 32,)),       # would alias (5, 0, 1)
    (5, (1, 2 ** 40, 3)),  # an oversized entry before the last one
    (5, (1.5,)),           # not an integer
    (5.0, (1,)),
])
def test_refused_seeds_and_keys(seed, key):
    with pytest.raises(ContractError):
        substream(seed, *key)


def test_refusals_do_not_depend_on_the_cache():
    substream(5, 1)
    with pytest.raises(ContractError):
        substream(5.0, 1)


def test_limits_are_inclusive_of_the_largest_word():
    for seed, key in [(2 ** 128 - 1, ()), (0, (2 ** 32 - 1,)), (3, (2 ** 32 - 1, 0))]:
        assert (substream(seed, *key).bit_generator.state
                == _reference(seed, *key).bit_generator.state)


def test_seed_sequence_aliases_the_refused_keys():
    # the reason for the limits: numpy splits integers into 32-bit words
    assert (_reference(5, 2 ** 32).bit_generator.state
            == _reference(5, 0, 1).bit_generator.state)


def test_stable_token_is_a_32_bit_key():
    token = stable_token("prior:{}")
    assert 0 <= token < 2 ** 32
    assert substream(1, token).bit_generator.state == _reference(1, token).bit_generator.state
