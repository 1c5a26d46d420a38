"""The three samplers of :mod:`repro.mc` share one chunk loop.

Two fronts:

* **Request-log pins.**  Each sampler's exact sequence of chunk requests
  -- ``(stratum, first_instance, count)`` -- plus its trial, chunk and
  stop-reason outcome is pinned on the toy problems of
  ``tests/test_mc.py`` and ``tests/test_mc_statistics.py``.  The
  stratified pins cover the precision stop rule and the exploration
  floor, which no other test drives with ``precision > 0``.
* **One chunk contract.**  A missing primary statistic, a wrongly shaped
  array, a statistic set that changes mid-run and a bad configuration are
  rejected the same way by every sampler.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pytest

from repro.mc import (
    SampleChunk,
    Stratum,
    WeightedSampleChunk,
    adaptive_sample,
    importance_sample,
    stratified_sample,
)
from test_mc import _bernoulli_draw
from test_mc_statistics import _stratified_tail_strata, _tilted_tail_draw

Request = tuple[int, int, int]


def _logged_strata(log: list[Request]) -> list[Stratum]:
    """The 2.5-sigma tail strata, recording every chunk request."""
    logged = []
    for index, stratum in enumerate(_stratified_tail_strata(2.5)):

        def draw(
            first_instance: int,
            count: int,
            index: int = index,
            inner: Callable[[int, int], SampleChunk] = stratum.draw,
        ) -> SampleChunk:
            log.append((index, first_instance, count))
            return inner(first_instance, count)

        logged.append(Stratum(name=stratum.name, weight=stratum.weight, draw=draw))
    return logged


def _logged(draw: Callable[[int, int], object], log: list[Request]):
    def logged(first_instance: int, count: int):
        log.append((0, first_instance, count))
        return draw(first_instance, count)

    return logged


class TestRequestLogPins:
    def test_stratified_precision_stop(self) -> None:
        log: list[Request] = []
        result = stratified_sample(
            _logged_strata(log),
            primary="tail",
            precision=0.002,
            max_samples=20000,
            chunk_size=100,
        )
        assert (result.trials, result.chunks, result.stop_reason) == (
            1600,
            16,
            "precision",
        )
        assert [row.trials for row in result.strata] == [1100, 400, 100]
        assert log == [
            (0, 0, 100), (1, 0, 100), (2, 0, 100),
            (0, 100, 100), (0, 200, 100), (0, 300, 100), (0, 400, 100),
            (0, 500, 100), (1, 100, 100), (0, 600, 100), (0, 700, 100),
            (0, 800, 100), (1, 200, 100), (0, 900, 100), (0, 1000, 100),
            (1, 300, 100),
        ]

    def test_stratified_exploration_floor_not_a_chunk_multiple(self) -> None:
        log: list[Request] = []
        result = stratified_sample(
            _logged_strata(log),
            primary="tail",
            precision=0.004,
            max_samples=2000,
            chunk_size=64,
            min_samples_per_stratum=100,
        )
        assert (result.trials, result.chunks, result.stop_reason) == (
            748,
            13,
            "precision",
        )
        assert [row.trials for row in result.strata] == [548, 100, 100]
        assert log == [
            (0, 0, 64), (1, 0, 64), (2, 0, 64),
            (0, 64, 36), (1, 64, 36), (2, 64, 36),
            (0, 100, 64), (0, 164, 64), (0, 228, 64), (0, 292, 64),
            (0, 356, 64), (0, 420, 64), (0, 484, 64),
        ]

    def test_stratified_stops_as_exploration_completes(self) -> None:
        log: list[Request] = []
        result = stratified_sample(
            _logged_strata(log),
            primary="tail",
            precision=0.5,
            max_samples=2000,
            chunk_size=64,
            min_samples_per_stratum=100,
        )
        assert (result.trials, result.chunks, result.stop_reason) == (
            300,
            6,
            "precision",
        )
        assert log == [
            (0, 0, 64), (1, 0, 64), (2, 0, 64),
            (0, 64, 36), (1, 64, 36), (2, 64, 36),
        ]

    def test_stratified_clips_the_last_chunk_to_the_cap(self) -> None:
        log: list[Request] = []
        result = stratified_sample(
            _logged_strata(log),
            primary="tail",
            precision=0.0,
            max_samples=350,
            chunk_size=100,
        )
        assert (result.trials, result.chunks, result.stop_reason) == (
            350,
            4,
            "max_samples",
        )
        assert log == [(0, 0, 100), (1, 0, 100), (2, 0, 100), (0, 100, 50)]

    def test_importance_precision_stop(self) -> None:
        log: list[Request] = []
        result = importance_sample(
            _logged(_tilted_tail_draw, log),
            primary="tail",
            precision=2e-4,
            chunk_size=128,
        )
        assert (result.trials, result.chunks, result.stop_reason) == (
            1920,
            15,
            "precision",
        )
        assert log == [(0, first, 128) for first in range(0, 1920, 128)]

    def test_adaptive_precision_stop(self) -> None:
        log: list[Request] = []
        result = adaptive_sample(
            _logged(_bernoulli_draw(seed=1, pass_rate=0.97), log),
            primary="yield",
            precision=0.02,
            chunk_size=48,
            max_samples=4000,
            min_samples=100,
        )
        assert (result.trials, result.chunks, result.stop_reason) == (
            240,
            5,
            "precision",
        )
        assert result.successes == {"yield": 236}
        assert log == [(0, first, 48) for first in range(0, 240, 48)]

    def test_adaptive_clips_the_last_chunk_to_the_cap(self) -> None:
        log: list[Request] = []
        result = adaptive_sample(
            _logged(_bernoulli_draw(seed=2, pass_rate=0.9), log),
            primary="yield",
            precision=0.001,
            chunk_size=48,
            max_samples=200,
        )
        assert (result.trials, result.chunks, result.stop_reason) == (
            200,
            5,
            "max_samples",
        )
        assert result.successes == {"yield": 189}
        assert log == [
            (0, 0, 48), (0, 48, 48), (0, 96, 48), (0, 144, 48), (0, 192, 8),
        ]


# ---------------------------------------------------------------------------
# One chunk contract for all three samplers.
# ---------------------------------------------------------------------------


def _run(sampler: str, make_passes: Callable[[int, int], dict], **kwargs):
    """Run one sampler over chunks whose pass/value maps ``make_passes`` builds.

    ``make_passes(first_instance, count)`` returns ``{"passes": ...,
    "values": ...}``; the importance sampler gets zero log-weights and the
    stratified sampler two equal strata sharing the chunk function.
    """

    def plain(first_instance: int, count: int) -> SampleChunk:
        return SampleChunk(**make_passes(first_instance, count))

    def weighted(first_instance: int, count: int) -> WeightedSampleChunk:
        return WeightedSampleChunk(
            log_weights=np.zeros(count), **make_passes(first_instance, count)
        )

    kwargs = {"primary": "yield", "max_samples": 64, "chunk_size": 8, **kwargs}
    if sampler == "adaptive":
        return adaptive_sample(plain, **kwargs)
    if sampler == "importance":
        return importance_sample(weighted, **kwargs)
    strata = [Stratum(name=name, weight=0.5, draw=plain) for name in ("a", "b")]
    return stratified_sample(strata, **kwargs)


SAMPLERS = ["adaptive", "importance", "stratified"]


def _ones(count: int) -> np.ndarray:
    return np.ones(count, dtype=bool)


@pytest.mark.parametrize("sampler", SAMPLERS)
class TestSharedChunkContract:
    def test_missing_primary_statistic_is_an_error(self, sampler: str) -> None:
        with pytest.raises(ValueError, match="no primary pass statistic"):
            _run(
                sampler,
                lambda first, count: {"passes": {"other": _ones(count)}},
                precision=0.1,
            )

    def test_wrong_pass_shape_is_an_error(self, sampler: str) -> None:
        with pytest.raises(ValueError, match="shape"):
            _run(
                sampler,
                lambda first, count: {"passes": {"yield": _ones(count + 1)}},
                precision=0.1,
            )

    def test_wrong_value_shape_is_an_error(self, sampler: str) -> None:
        with pytest.raises(ValueError, match="shape"):
            _run(
                sampler,
                lambda first, count: {
                    "passes": {"yield": _ones(count)},
                    "values": {"metric": np.zeros((count, 2))},
                },
                precision=0.1,
            )

    def test_changing_statistics_mid_run_is_an_error(self, sampler: str) -> None:
        def make(first: int, count: int) -> dict:
            name = "yield" if first == 0 else "renamed"
            return {"passes": {"yield": _ones(count), name: _ones(count)}}

        with pytest.raises(ValueError, match="mid-run"):
            _run(sampler, make, precision=0.0)

    def test_changing_value_streams_mid_run_is_an_error(self, sampler: str) -> None:
        def make(first: int, count: int) -> dict:
            values = {"metric": np.zeros(count)} if first == 0 else {}
            return {"passes": {"yield": _ones(count)}, "values": values}

        with pytest.raises(ValueError, match="mid-run"):
            _run(sampler, make, precision=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"precision": -0.1},
            {"precision": 0.1, "max_samples": 0},
            {"precision": 0.1, "chunk_size": 0},
            {"precision": 0.1, "confidence": 1.0},
            {"precision": 0.1, "confidence": 0.0},
        ],
    )
    def test_rejects_bad_configuration(self, sampler: str, kwargs: dict) -> None:
        with pytest.raises(ValueError):
            _run(
                sampler,
                lambda first, count: {"passes": {"yield": _ones(count)}},
                **kwargs,
            )
