"""Deterministic random stream derivation.

Every Monte Carlo component draws from a ``numpy.random.Generator`` derived
from a master seed and an integer key path.  The stream is exactly
numpy's ``Generator(PCG64(SeedSequence(master_seed, spawn_key=key)))``: a
replication's stream depends only on (master_seed, key path), never on
worker count or execution order.

:func:`substream` reproduces ``SeedSequence`` in place rather than building
one per call: numpy's entropy mixing (a pool of four 32-bit words, the
``hashmix``/``mix`` hashes) runs over the seed and the key, and the four
64-bit words numpy's ``generate_state`` would give seed ``PCG64``.  The
mixed pool after the seed and every key entry but the last is cached, and
so are the seed words of aligned blocks of ``_BLOCK`` consecutive last
entries, computed in one pass of uint64 arithmetic: the many streams that
differ only in their last entry (the replications of one unit) read one
row of a cached table each.

Key limits.  ``SeedSequence`` splits every integer into 32-bit words and
concatenates the words, so a key entry of 2**32 or more would alias a longer
key (``(5, 2**32)`` and ``(5, 0, 1)`` give one stream), and a seed of 2**128
or more would alias a shorter seed with one more key entry.  Seeds must
therefore lie in [0, 2**128) and key entries in [0, 2**32);
anything else raises ``ContractError``.
"""

from __future__ import annotations

import functools
import hashlib
import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ContractError

__all__ = ["substream", "stable_token"]

# numpy's SeedSequence: the pool of _POOL 32-bit words and its hash constants
_POOL = 4
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_SEED_LIMIT = 1 << 32 * _POOL
_KEY_LIMIT = 1 << 32


def _hashmix(value: int, h: int) -> tuple:
    """numpy's ``hashmix``: the hashed word and the next hash constant."""
    following = h * _MULT_A & _MASK
    value = (value ^ h) * following & _MASK
    return value ^ value >> 16, following


def _mix(x: int, y: int) -> int:
    r = (_MIX_L * x - _MIX_R * y) & _MASK
    return r ^ r >> 16


def _hash_pairs(h: int, mult: int, n: int) -> tuple:
    """The (hash constant, next hash constant) pairs of ``n`` hashes from ``h``."""
    pairs = []
    for _ in range(n):
        pairs.append((h, h * mult & _MASK))
        h = pairs[-1][1]
    return tuple(pairs)


# ``generate_state`` restarts its hash constant at _INIT_B on every call, so
# the hashes of its eight output words use fixed constants
_OUTPUT = _hash_pairs(_INIT_B, _MULT_B, 2 * _POOL)


def _checked(value, limit: int, what: str) -> int:
    try:
        value = operator.index(value)
    except TypeError:
        raise ContractError(f"{what} must be an integer, got {value!r}") from None
    if not 0 <= value < limit:
        raise ContractError(f"{what} must lie in [0, 2**{limit.bit_length() - 1}), "
                            f"got {value}")
    return value


@functools.lru_cache(maxsize=1024, typed=True)
def _prefix_pool(master_seed, *prefix) -> tuple:
    """``SeedSequence``'s mixed pool after the seed and the key ``prefix``,
    with the hash constant pairs that mix in one more key word.

    A nonempty spawn key pads the seed to _POOL words with zeros, and without
    one the pool is filled with hashed zeros, which is the same thing: the
    seed always fills the pool, and every key word is mixed in after it.
    """
    seed = _checked(master_seed, _SEED_LIMIT, "master seed")
    words = [_checked(k, _KEY_LIMIT, "stream key entry") for k in prefix]
    pool, h = [], _INIT_A
    for i in range(_POOL):
        y, h = _hashmix(seed >> 32 * i & _MASK, h)
        pool.append(y)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                y, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], y)
    for word in words:
        for dst in range(_POOL):
            y, h = _hashmix(word, h)
            pool[dst] = _mix(pool[dst], y)
    return tuple(pool), _hash_pairs(h, _MULT_A, _POOL)


# consecutive last key entries per cached seed table, and the tables kept:
# 2 MB of (_BLOCK, 4) uint64 tables
_BLOCK = 256
_TABLES = (2 << 20) // (_BLOCK * 4 * 8)


def _state(pool: list) -> np.ndarray:
    """``generate_state(4, uint64)`` for a pool of four uint64 arrays (one
    entry per stream) or scalars: eight hashed words cycling over the pool,
    paired low word first, as the last axis of the result."""
    out = []
    for x, (a, b) in zip(pool + pool, _OUTPUT):
        y = (x ^ a) * b & _MASK
        out.append(y ^ y >> 16)
    return np.stack([out[i] | out[i + 1] << 32 for i in range(0, 2 * _POOL, 2)], axis=-1)


@functools.lru_cache(maxsize=_TABLES, typed=True)
def _seed_table(block: int, master_seed, *prefix) -> np.ndarray:
    """Row i holds the seed words of the stream ``prefix + (block * _BLOCK + i,)``.

    Every argument is part of the (typed) cache key, so a refused seed or
    prefix entry never hits the entry of an accepted one that equals it.
    """
    pool, pairs = _prefix_pool(master_seed, *prefix)
    words = np.arange(block * _BLOCK, (block + 1) * _BLOCK, dtype=np.uint64)
    mixed = []
    for x, (a, b) in zip(pool, pairs):  # _hashmix(word) then _mix into x
        y = (words ^ a) * b & _MASK
        r = (_MIX_L * x - _MIX_R * (y ^ y >> 16)) & _MASK
        mixed.append(r ^ r >> 16)
    table = _state(mixed)
    table.setflags(write=False)
    return table


class _Seeds(ISeedSequence):
    """The four uint64 words ``PCG64`` seeds itself from."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream addressed by ``key`` under ``master_seed``.

    Bit-identical to ``Generator(PCG64(SeedSequence(master_seed,
    spawn_key=key)))``; every call returns a fresh generator.  The seed must
    lie in [0, 2**128) and every key entry in [0, 2**32).
    """
    if key:
        last = _checked(key[-1], _KEY_LIMIT, "stream key entry")
        words = _seed_table(last // _BLOCK, master_seed, *key[:-1])[last % _BLOCK]
    else:
        pool, _ = _prefix_pool(master_seed)
        words = _state([np.uint64(x) for x in pool])
    return np.random.Generator(np.random.PCG64(_Seeds(words)))


def stable_token(text: str) -> int:
    """Stable 32-bit key for a descriptor string (independent of hash seeds)."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")
