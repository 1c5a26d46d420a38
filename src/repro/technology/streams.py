"""Chunk-seeded per-instance RNG streams.

Every chunk-stable draw of the package keys instance ``i``'s randomness on
``i`` itself: the stream of instance ``i`` is
``np.random.default_rng((*key_prefix, i))`` -- ``(seed, i)`` for silicon
mismatch, ``(seed, tag, i)`` for component spreads, ``(seed, tag, stratum,
i)`` for stratified draws.  Constructing one ``default_rng`` per instance
costs ~20 µs, almost all of it ``SeedSequence`` construction and hashing,
which dwarfs the ~1 µs the handful of normals each instance draws takes.

:func:`instance_streams` produces the *same* streams for a whole chunk
``[first_instance, first_instance + count)`` at once.  It runs NumPy's
documented ``SeedSequence`` algorithm (entropy word assembly,
``mix_entropy``, ``generate_state(4, uint64)``) as one ``uint32`` pass
over a ``(count, words)`` entropy block, derives each instance's PCG64
``(state, inc)`` with PCG64's ``srandom_r`` seeding in Python ints, and
re-points one reused :class:`numpy.random.Generator` at each instance
through the public ``bit_generator.state`` setter.  Instance ``i``'s
generator is therefore bit-identical to ``default_rng((*key_prefix, i))``
-- property-tested against NumPy itself in
``tests/test_technology_streams.py`` over the whole key domain
``default_rng`` accepts (multi-word entries, indices crossing ``2**32``,
keys longer than the four-word pool).

Example -- the chunk's streams are the per-instance ``default_rng`` streams:

>>> import numpy as np
>>> draws = [rng.standard_normal() for rng in instance_streams((7, 1), 3, 2)]
>>> draws == [np.random.default_rng((7, 1, i)).standard_normal() for i in (3, 4)]
True
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence
from typing import Any

import numpy as np
import numpy.typing as npt

__all__ = ["instance_states", "instance_streams"]

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1

# numpy.random.bit_generator's SeedSequence constants.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)

#: PCG64's 128-bit LCG multiplier (``PCG_DEFAULT_MULTIPLIER_128``).
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

_Words = npt.NDArray[np.unsignedinteger[Any]]


def _entry_words(entry: int) -> list[int]:
    """Little-endian ``uint32`` words of one key entry (``0`` is one word)."""
    value = operator.index(entry)
    if value < 0:
        raise ValueError(f"stream key entries must be non-negative; got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _mix_entropy(entropy: _Words) -> list[_Words]:
    """``SeedSequence.mix_entropy`` of every row of an entropy block.

    ``entropy`` has shape ``(rows, words)``; the result is the four pool
    columns.  The hash constant's evolution does not depend on the data,
    so one scalar schedule drives all rows at once.
    """
    rows, width = entropy.shape
    hash_const = _INIT_A

    def hashmix(value: _Words) -> _Words:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x: _Words, y: _Words) -> _Words:
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> _XSHIFT)

    zeros = np.zeros(rows, dtype=np.uint32)
    pool = [
        hashmix(entropy[:, word] if word < width else zeros)
        for word in range(_POOL_SIZE)
    ]
    for source in range(_POOL_SIZE):
        for target in range(_POOL_SIZE):
            if source != target:
                pool[target] = mix(pool[target], hashmix(pool[source]))
    for source in range(_POOL_SIZE, width):
        for target in range(_POOL_SIZE):
            pool[target] = mix(pool[target], hashmix(entropy[:, source]))
    return pool


def _pcg64_states(entropy: _Words) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` seeded from each row's ``SeedSequence``."""
    pool = _mix_entropy(entropy)
    # generate_state(4, uint64): eight uint32 words cycling over the pool,
    # paired little-endian into four uint64 words.
    hash_const = _INIT_B
    words: list[npt.NDArray[np.uint64]] = []
    for index in range(8):
        value = pool[index % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        words.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    seed_high, seed_low, seq_high, seq_low = (
        (words[2 * k] | (words[2 * k + 1] << np.uint64(32))).tolist()
        for k in range(4)
    )
    states: list[tuple[int, int]] = []
    for high, low, inc_high, inc_low in zip(seed_high, seed_low, seq_high, seq_low):
        # pcg_setseq_128_srandom_r: an odd increment from the sequence
        # word, then two LCG steps around adding the initial state.
        inc = (((inc_high << 64 | inc_low) << 1) | 1) & _MASK128
        state = (((inc + (high << 64 | low)) * _PCG_MULTIPLIER) + inc) & _MASK128
        states.append((state, inc))
    return states


def instance_states(
    key_prefix: Sequence[int], first_instance: int, count: int
) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``default_rng((*key_prefix, i))`` per instance.

    Covers ``i`` in ``[first_instance, first_instance + count)``.  The chunk
    is split where the index crosses a multiple of ``2**32`` (the index's
    high words, and so the entropy width, change there); each piece is
    seeded in one vectorized pass.

    Raises:
        ValueError: on a negative key entry or ``first_instance`` (as
            ``default_rng`` does) or a ``count`` below one.
    """
    count = operator.index(count)
    if count < 1:
        raise ValueError(f"count must be at least 1; got {count}")
    first = operator.index(first_instance)
    if first < 0:
        raise ValueError(f"first_instance must be non-negative; got {first}")
    prefix_words = [word for entry in key_prefix for word in _entry_words(entry)]
    states: list[tuple[int, int]] = []
    start, stop = first, first + count
    while start < stop:
        high = start >> 32
        end = min(stop, (high + 1) << 32)
        high_words = _entry_words(high) if high else []
        entropy = np.empty(
            (end - start, len(prefix_words) + 1 + len(high_words)), dtype=np.uint32
        )
        entropy[:, : len(prefix_words)] = prefix_words
        low = start & _MASK32
        entropy[:, len(prefix_words)] = np.arange(low, low + end - start)
        entropy[:, len(prefix_words) + 1 :] = high_words
        states.extend(_pcg64_states(entropy))
        start = end
    return states


def instance_streams(
    key_prefix: Sequence[int], first_instance: int, count: int
) -> Iterator[np.random.Generator]:
    """One generator per instance, streamed as ``default_rng((*key_prefix, i))``.

    Yields ``count`` times the *same* :class:`~numpy.random.Generator`
    object, re-pointed at instance ``first_instance + k``'s stream before
    the ``k``-th yield: draw from it before advancing the iterator, and do
    not keep it across iterations.  Arguments are validated (and the whole
    chunk seeded) on the call, as in :func:`instance_states`.
    """
    return _repointed(instance_states(key_prefix, first_instance, count))


def _repointed(states: list[tuple[int, int]]) -> Iterator[np.random.Generator]:
    generator = np.random.Generator(np.random.PCG64(0))
    bit_generator = generator.bit_generator
    pcg_state = {"state": 0, "inc": 0}
    full_state = {
        "bit_generator": "PCG64",
        "state": pcg_state,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for state, inc in states:
        pcg_state["state"] = state
        pcg_state["inc"] = inc
        bit_generator.state = full_state
        yield generator
