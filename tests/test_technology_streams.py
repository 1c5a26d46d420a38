"""The chunk-seeded streams are NumPy's own per-instance streams.

:func:`repro.technology.streams.instance_streams` re-implements NumPy's
``SeedSequence`` hash and PCG64 seeding to seed a whole chunk at once.
These tests hold it to ``np.random.default_rng((*prefix, i))`` itself --
the PCG64 state and the first draws -- over the key domain
``default_rng`` accepts, so a change to NumPy's seeding would fail here
rather than silently fork every pinned Monte-Carlo stream.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.technology.streams import instance_states, instance_streams

#: Word-boundary key entries: one word, the largest one-word value, the
#: smallest two-word value, and a three-word value.
EDGE_ENTRIES = (0, 1, 2012, 2**32 - 1, 2**32, 2**64 + 5)

key_entries = st.one_of(
    st.sampled_from(EDGE_ENTRIES), st.integers(min_value=0, max_value=2**96)
)
prefixes = st.lists(key_entries, min_size=0, max_size=3).map(tuple)
first_instances = st.one_of(
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=2**32 - 64, max_value=2**32 + 8),
)
counts = st.integers(min_value=1, max_value=64)


def _reference_state(key: tuple[int, ...]) -> tuple[int, int]:
    state = np.random.default_rng(key).bit_generator.state["state"]
    return state["state"], state["inc"]


@settings(max_examples=60, deadline=None)
@given(prefix=prefixes, first_instance=first_instances, count=counts)
def test_states_match_default_rng(
    prefix: tuple[int, ...], first_instance: int, count: int
) -> None:
    states = instance_states(prefix, first_instance, count)
    assert states == [
        _reference_state((*prefix, first_instance + k)) for k in range(count)
    ]


@settings(max_examples=30, deadline=None)
@given(prefix=prefixes, first_instance=first_instances, count=counts)
def test_streams_draw_what_default_rng_draws(
    prefix: tuple[int, ...], first_instance: int, count: int
) -> None:
    for k, rng in enumerate(instance_streams(prefix, first_instance, count)):
        reference = np.random.default_rng((*prefix, first_instance + k))
        np.testing.assert_array_equal(
            rng.standard_normal(4), reference.standard_normal(4)
        )
        assert rng.random() == reference.random()
        assert rng.integers(2**40) == reference.integers(2**40)


@pytest.mark.parametrize(
    "prefix",
    [
        (1, 2, 3, 4, 5, 6),
        (2**64 + 5, 2**64 + 5, 2**32),
        (2**200,),
    ],
    ids=["six-words", "seven-words", "eight-word-entry"],
)
def test_keys_longer_than_the_pool_run_the_extra_mix_rounds(
    prefix: tuple[int, ...],
) -> None:
    first_instance = 2**32 - 2
    states = instance_states(prefix, first_instance, 4)
    assert states == [
        _reference_state((*prefix, first_instance + k)) for k in range(4)
    ]


def test_numpy_integer_entries_are_accepted() -> None:
    states = instance_states((np.int64(2012), np.uint32(7)), np.int64(3), 2)
    assert states == [_reference_state((2012, 7, i)) for i in (3, 4)]


def test_negative_key_entry_raises_like_numpy() -> None:
    with pytest.raises(ValueError):
        np.random.default_rng((5, -1, 0))
    with pytest.raises(ValueError, match="non-negative"):
        instance_states((5, -1), 0, 3)


def test_negative_first_instance_raises() -> None:
    with pytest.raises(ValueError, match="first_instance"):
        instance_states((5,), -1, 3)


@pytest.mark.parametrize("count", [0, -4])
def test_count_below_one_raises(count: int) -> None:
    with pytest.raises(ValueError, match="count"):
        instance_states((5,), 0, count)
    with pytest.raises(ValueError, match="count"):
        instance_streams((5,), 0, count)
