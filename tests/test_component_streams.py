"""Byte-level pins of the chunk-stable component draw streams.

The golden ``--json`` digests of the experiments cover these streams only
indirectly, through whole-experiment outputs.  This module pins them
directly: the sha256 of the raw float64 bytes of every per-instance fleet
draw of :class:`ComponentVariation` -- vanilla, tilted (parameters and
log-weights), stratified and correlated -- at ``first_instance=5`` and
``count=64`` (the silicon streams are pinned in
``tests/test_technology_variation.py``).  The digests were recorded from
the original per-instance ``default_rng`` loops;
``_reference_sample_instances`` keeps that loop verbatim as an oracle for
the vanilla draw.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import numpy.typing as npt
import pytest

from repro.converter.buck import BuckParameters
from repro.core.yield_analysis import (
    ComponentStratification,
    ComponentTilt,
    ComponentVariation,
    component_correlation_preset,
)
from repro.simulation.batch import BatchBuckParameters

FIRST_INSTANCE = 5
COUNT = 64
NOMINAL = BuckParameters()
VARIATION = ComponentVariation(seed=2012)
TILT = ComponentTilt(inductance_shift=-1.5, capacitance_shift=-2.5, sigma_scale=1.3)
STRATIFICATION = ComponentStratification()
STRATUM = 1

#: Stream tag of the component draws (``"comp"``), as keyed in
#: :meth:`ComponentVariation.sample_instances`.
COMPONENT_STREAM_TAG = 0x636F6D70

#: draw -> sha256 of its float64 bytes, recorded from the per-instance
#: ``default_rng`` loops.
PINNED_SHA256 = {
    "sample_instances": (
        "1935ee23f6336a23150be3b9e79d5d60"
        "619bed4fad62dda7a0e70a408370b483"
    ),
    "sample_instances_tilted": (
        "7fb842abad050d2f87c516011c9f115f"
        "e1b0146966acd9fb59113a94e9e5b671"
    ),
    "sample_instances_stratum": (
        "e2894a020304e89102984c3b11730eb0"
        "c5ab91f1e9f8f41741e970d3c8a52cc3"
    ),
    "sample_instances_passives": (
        "e51f8cac28e389184c54f2ca1559f365"
        "04a9002aa6ebb33f1d4c2017c97de687"
    ),
}


def _digest(*arrays: npt.NDArray[np.float64]) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    return digest.hexdigest()


def _fleet_arrays(fleet: BatchBuckParameters) -> list[npt.NDArray[np.float64]]:
    return [getattr(fleet, field.name) for field in dataclasses.fields(fleet)]


def _reference_sample_instances(
    variation: ComponentVariation,
    nominal: BuckParameters,
    num_variants: int,
    first_instance: int,
) -> BatchBuckParameters:
    """The original per-instance ``default_rng`` loop of the vanilla draw."""
    draws = np.empty((num_variants, 5))
    for row in range(num_variants):
        rng = np.random.default_rng(
            (variation.seed, COMPONENT_STREAM_TAG, first_instance + row)
        )
        draws[row, 0] = rng.lognormal(mean=0.0, sigma=variation.input_voltage_sigma)
        draws[row, 1] = rng.lognormal(mean=0.0, sigma=variation.inductance_sigma)
        draws[row, 2] = rng.lognormal(mean=0.0, sigma=variation.capacitance_sigma)
        draws[row, 3] = rng.normal(loc=1.0, scale=variation.resistance_sigma)
        draws[row, 4] = rng.normal(loc=1.0, scale=variation.resistance_sigma)
    np.clip(draws[:, 3:], 0.0, None, out=draws[:, 3:])
    return BatchBuckParameters(
        input_voltage_v=nominal.input_voltage_v * draws[:, 0],
        inductance_h=nominal.inductance_h * draws[:, 1],
        capacitance_f=nominal.capacitance_f * draws[:, 2],
        switching_frequency_hz=np.full(num_variants, nominal.switching_frequency_hz),
        switch_resistance_ohm=nominal.switch_resistance_ohm * draws[:, 3],
        inductor_resistance_ohm=nominal.inductor_resistance_ohm * draws[:, 4],
    )


def _draw(name: str) -> list[npt.NDArray[np.float64]]:
    if name == "sample_instances":
        return _fleet_arrays(
            VARIATION.sample_instances(NOMINAL, COUNT, FIRST_INSTANCE)
        )
    if name == "sample_instances_tilted":
        fleet, log_weights = VARIATION.sample_instances_tilted(
            NOMINAL, COUNT, FIRST_INSTANCE, tilt=TILT
        )
        return [*_fleet_arrays(fleet), log_weights]
    if name == "sample_instances_stratum":
        return _fleet_arrays(
            VARIATION.sample_instances_stratum(
                NOMINAL,
                COUNT,
                STRATUM,
                FIRST_INSTANCE,
                stratification=STRATIFICATION,
            )
        )
    assert name == "sample_instances_passives"
    return _fleet_arrays(
        VARIATION.sample_instances(
            NOMINAL,
            COUNT,
            FIRST_INSTANCE,
            correlation=component_correlation_preset("passives"),
        )
    )


@pytest.mark.parametrize("name", sorted(PINNED_SHA256))
def test_draw_stream_bytes_are_pinned(name: str) -> None:
    digest = _digest(*_draw(name))
    assert digest == PINNED_SHA256[name], (
        f"{name} drifted: sha256 {digest} != pinned {PINNED_SHA256[name]}; "
        "the per-instance streams must stay bit-identical to "
        "default_rng((seed[, tag], i))"
    )


def test_sample_instances_matches_the_default_rng_reference_loop() -> None:
    fleet = VARIATION.sample_instances(NOMINAL, COUNT, FIRST_INSTANCE)
    reference = _reference_sample_instances(VARIATION, NOMINAL, COUNT, FIRST_INSTANCE)
    for actual, expected in zip(_fleet_arrays(fleet), _fleet_arrays(reference)):
        np.testing.assert_array_equal(actual, expected)
