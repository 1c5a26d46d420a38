"""``run_chunk`` and ``run_chunk_tilted`` share one regulation path.

The identity tilt must reproduce :meth:`ChunkedSiliconToRegulation.run_chunk`
bit for bit -- with zero log-weights -- including under the runner's
component ``correlation``, and a component tilt must refuse a
non-identity correlation, whose coupled draws its likelihood ratio does
not model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.converter.load import SteppedLoad
from repro.core.design import DesignSpec
from repro.core.yield_analysis import (
    ComponentTilt,
    ComponentVariation,
    component_correlation_preset,
)
from repro.pipeline import ChunkedSiliconToRegulation, PipelineResult
from repro.technology.variation import VariationModel

SPEC = DesignSpec(clock_frequency_mhz=100.0, resolution_bits=4)
PERIODS = 40


def _runner(correlation: str | None) -> ChunkedSiliconToRegulation:
    return ChunkedSiliconToRegulation(
        "proposed",
        SPEC,
        variation=VariationModel(seed=5),
        component_variation=ComponentVariation(seed=5),
        correlation=(
            None if correlation is None else component_correlation_preset(correlation)
        ),
        load=SteppedLoad(light_ohm=2.0, heavy_ohm=0.9, step_up_period=20),
    )


def _assert_same_run(left: PipelineResult, right: PipelineResult) -> None:
    assert left.scheme == right.scheme
    np.testing.assert_array_equal(left.calibration.locked, right.calibration.locked)
    np.testing.assert_array_equal(left.curves.delays_ps, right.curves.delays_ps)
    for name in (
        "output_voltages_v",
        "inductor_currents_a",
        "duty_words",
        "error_codes",
        "load_resistances_ohm",
    ):
        np.testing.assert_array_equal(
            getattr(left.regulation, name), getattr(right.regulation, name)
        )


@pytest.mark.parametrize("correlation", [None, "identity", "passives"])
def test_identity_tilt_reproduces_run_chunk(correlation: str | None) -> None:
    runner = _runner(correlation)
    plain = runner.run_chunk(3, 6, periods=PERIODS)
    tilted, log_weights = runner.run_chunk_tilted(3, 6, periods=PERIODS)
    _assert_same_run(plain, tilted)
    np.testing.assert_array_equal(log_weights, np.zeros(6))


def test_correlation_changes_the_run() -> None:
    # Guards the test above: the preset must actually move the fleet.
    independent = _runner(None).run_chunk(3, 6, periods=PERIODS)
    coupled = _runner("passives").run_chunk(3, 6, periods=PERIODS)
    assert not np.array_equal(
        independent.regulation.output_voltages_v,
        coupled.regulation.output_voltages_v,
    )


def test_component_tilt_refuses_a_non_identity_correlation() -> None:
    tilt = ComponentTilt(capacitance_shift=-1.0)
    with pytest.raises(ValueError, match="correlation"):
        _runner("passives").run_chunk_tilted(0, 4, PERIODS, component_tilt=tilt)
    # The identity correlation leaves the draws independent.
    _, log_weights = _runner("identity").run_chunk_tilted(
        0, 4, PERIODS, component_tilt=tilt
    )
    assert np.all(np.isfinite(log_weights))
    assert np.any(log_weights != 0.0)


def test_component_tilt_requires_component_variation() -> None:
    runner = ChunkedSiliconToRegulation(
        "proposed", SPEC, variation=VariationModel(seed=5)
    )
    with pytest.raises(ValueError, match="component_variation"):
        runner.run_chunk_tilted(0, 4, PERIODS, component_tilt=ComponentTilt())
