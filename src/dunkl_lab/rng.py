"""Deterministic random streams for path-parallel Monte Carlo.

Every consumer of randomness gets its own ``SFC64`` stream, keyed by
``(master seed, purpose, *indices)``.  The stream's seed is the three-word
state ``np.random.SeedSequence(seed, spawn_key=(purpose, *indices))``
generates for ``SFC64``; ``keys`` derives it with the same values, for one
path or for a whole batch of paths at once, and
``stream(keys(seed, purpose, i))`` opens stream i from its key, so a
batch's streams cost one key derivation.  A path's stream depends only on
the master seed and the path index, never on batching or scheduling, so
any path can be regenerated in isolation and whole runs are reproducible
bit for bit for a fixed configuration, regardless of worker count.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import InvalidArgumentError

# Stream purposes.  Values are part of the reproducibility contract: changing
# them changes every simulated path.
DIFFUSION = 0   # per-path Gaussian increments, consumed one grid step at a time
RETRY = 1       # fresh increments for rejected / subdivided steps
CLOCK = 2       # no longer drawn; reserved so that no other purpose takes 2
FLIP = 3        # the lift's Poisson arrivals, one stream per path
CHECK = 4       # verification-side sampling (oracles, test points)

_MASK = 0xFFFFFFFF
_WORD = np.dtype(np.uint64)


# SeedSequence's uint32 hash mixing.  The operands are Python ints or uint64
# arrays holding uint32 values; masking keeps every result in uint32.
def _hashmix(value, const, mult=0x931E8875):
    """The hashed value and the next hash constant."""
    new = const * mult & _MASK
    value = (value ^ const) * new & _MASK
    return value ^ value >> 16, new


def _mix(x, y):
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK
    return r ^ r >> 16


def _mix_in(pool, const, words):
    """Mix ``words`` into ``pool`` in place; returns the next hash constant."""
    for word in words:
        for dst in range(4):
            hashed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], hashed)
    return const


@functools.lru_cache(maxsize=256)
def _pool(seed, purpose):
    """SeedSequence's pool of 4 words and next hash constant once the
    seed's uint32 words, zero-padded to the pool size, and the purpose are
    mixed in.  Cached: a run keys all its streams with a few of these."""
    words = [seed >> s & _MASK for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    pool, const = [], 0x43B0D7E5
    for word in words[:4]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src, dst in itertools.permutations(range(4), 2):
        hashed, const = _hashmix(pool[src], const)
        pool[dst] = _mix(pool[dst], hashed)
    const = _mix_in(pool, const, words[4:] + [purpose])
    return tuple(pool), const


def _integers(k):
    """A key part as an int, or as an integer array; a bool or a float is
    refused, where a cast would truncate it."""
    if isinstance(k, (int, np.integer)) and not isinstance(k, bool):
        return int(k)
    k = np.asarray(k)
    if k.dtype.kind not in "iu":
        raise InvalidArgumentError(f"key parts must be integers, got {k.dtype}")
    return k


def keys(seed: int, purpose: int, *key) -> np.ndarray:
    """Keys of the streams ``(seed, purpose, *key)``, shape (..., 3)
    uint64, equal to ``SeedSequence(seed, spawn_key=(purpose, *key))
    .generate_state(3, np.uint64)``.  A key part after the purpose may be
    an integer array (say, one entry per path); key parts lie in [0, 2³²).
    """
    seed, purpose, *parts = map(_integers, (seed, purpose, *key))
    if not (isinstance(seed, int) and isinstance(purpose, int)):
        raise InvalidArgumentError("the seed and the purpose must be integers")
    if seed < 0 or not all(0 <= p <= _MASK if isinstance(p, int)
                           else 0 <= p.min(initial=0) and p.max(initial=0) <= _MASK
                           for p in [purpose] + parts):
        raise InvalidArgumentError("seed must be ≥ 0 and key parts in [0, 2**32)")
    parts = [p if isinstance(p, int) else p.astype(np.uint64) for p in parts]
    pool, const = _pool(seed, purpose)
    pool = list(pool)
    _mix_in(pool, const, parts)
    # six uint32 output words, cycling through the pool, paired little-end first
    const, words = 0x8B51F9DD, []
    for value in pool + pool[:2]:
        value, const = _hashmix(value, const, 0x58F38DED)
        words.append(value)
    out = [lo | hi << 32 for lo, hi in zip(words[::2], words[1::2])]
    if isinstance(out[0], int):
        return np.array(out, dtype=np.uint64)
    return np.stack(out, axis=-1)


class _Key(np.random.bit_generator.ISeedSequence):
    """Hands ``SFC64`` the state words of a key ``keys`` derived, so no
    ``SeedSequence`` is built and no OS entropy is read."""

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        assert (n_words, dtype) == (3, np.uint64)
        # SFC64 reads three words from the array's buffer, whatever its
        # shape, dtype or strides
        key = self.key
        if key.shape != (3,) or key.dtype != _WORD or not key.flags.c_contiguous:
            raise InvalidArgumentError("a stream key is one contiguous row of keys()")
        return key


def stream(key) -> np.random.Generator:
    """Generator at the start of the ``SFC64`` stream with key ``key`` (one
    row of ``keys``).  Its ``seed_seq`` is not the stream's; do not
    ``spawn`` from it."""
    return np.random.Generator(np.random.SFC64(_Key(key)))
