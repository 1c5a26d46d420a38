"""Benchmark: importance sampling versus brute force in the ppm regime.

The rare-event estimators' reason to exist is the tail: the slow-corner
``fig15_rare`` cell fails at ~1e-4 (30/262144 by brute force), so a
vanilla adaptive run needs ~1.5e5 fleet simulations before the Wilson
interval reaches a half-width that separates the estimate from zero.
The acceptance gate: at the same precision target the tilted
importance-sampling run must stop on precision with **at most 10 % of
the vanilla sample budget**, its interval must bracket the brute-force
answer, and the two estimates must agree within their summed
half-widths.

A second gate times the tilted component draw itself: 16,384
``sample_instances_tilted`` instances, whose streams are seeded per chunk
in one vectorized pass, against the per-instance ``default_rng`` loop
they replace, kept here as the reference.  The chunk-seeded draw must be
bit-identical and at least 3x faster.

When ``BENCH_RARE_EVENT_JSON`` is set, the measurements are written
there so CI can archive the perf trajectory (the ``BENCH_rare_event``
artifact).
"""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np

from repro.converter.buck import BuckParameters
from repro.core.yield_analysis import (
    ComponentTilt,
    ComponentVariation,
    rare_event_regulation_yield,
)
from repro.experiments.figure15_rare import (
    DEFAULT_TILT_SCALE,
    DIP_LIMIT_V,
    FREQUENCY_MHZ,
    LOAD,
    PERIODS,
    REFERENCE_V,
    SETTLE_PERIODS,
    TILT_CAPACITANCE_SHIFT,
    TILT_INDUCTANCE_SHIFT,
    _duty_levels,
)

#: Half the slow-corner cell's true failure rate (~1.14e-4), so a
#: resolved interval actually separates the estimate from zero.
PRECISION = 5.5e-5
SEED = 2012
VANILLA_CAP = 262_144
IMPORTANCE_CAP = 32_768

#: Instances per timed tilted draw, and the stream tag the component draws
#: key on (``"comp"``).
DRAW_INSTANCES = 16_384
COMPONENT_STREAM_TAG = 0x636F6D70
SEEDING_SPEEDUP_FLOOR = 3.0


def _merge_report(section: dict) -> None:
    """Merge ``section`` into the ``BENCH_RARE_EVENT_JSON`` report, if set."""
    report_path = os.environ.get("BENCH_RARE_EVENT_JSON")
    if not report_path:
        return
    report = {}
    if os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as handle:
            report = json.load(handle)
    report.update(section)
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)


def _run(estimator: str, *, max_instances: int, chunk_size: int, tilt=None):
    quantizer = _duty_levels("slow")
    return rare_event_regulation_yield(
        BuckParameters(switching_frequency_hz=FREQUENCY_MHZ * 1e6),
        REFERENCE_V,
        dip_limit_v=DIP_LIMIT_V,
        variation=ComponentVariation(seed=SEED),
        estimator=estimator,
        tilt=tilt,
        load=LOAD,
        quantizer_levels=quantizer.levels[0],
        periods=PERIODS,
        settle_periods=SETTLE_PERIODS,
        precision=PRECISION,
        max_instances=max_instances,
        chunk_size=chunk_size,
    )


def test_bench_importance_budget_reduction_on_ppm_cell(bench_provenance):
    # The brute-force reference: vanilla adaptive sampling to the same
    # precision target.  It doubles as the budget baseline and as the
    # unbiased estimate the importance interval must bracket.
    start = time.perf_counter()
    vanilla = _run("vanilla", max_instances=VANILLA_CAP, chunk_size=4096)
    vanilla_seconds = time.perf_counter() - start

    start = time.perf_counter()
    importance = _run(
        "importance",
        max_instances=IMPORTANCE_CAP,
        chunk_size=2048,
        tilt=ComponentTilt(
            inductance_shift=TILT_INDUCTANCE_SHIFT,
            capacitance_shift=TILT_CAPACITANCE_SHIFT,
            sigma_scale=DEFAULT_TILT_SCALE,
        ),
    )
    importance_seconds = time.perf_counter() - start

    budget_fraction = importance.samples / vanilla.samples
    report = {
        "workload": (
            "fig15_rare slow-corner cell, dip limit "
            f"{DIP_LIMIT_V} V, precision {PRECISION}"
        ),
        "vanilla_samples": vanilla.samples,
        "vanilla_seconds": vanilla_seconds,
        "vanilla_failure_ppm": vanilla.failure_probability * 1e6,
        "vanilla_ci_ppm": [vanilla.lower * 1e6, vanilla.upper * 1e6],
        "vanilla_stop_reason": vanilla.stop_reason,
        "importance_samples": importance.samples,
        "importance_seconds": importance_seconds,
        "importance_failure_ppm": importance.failure_probability * 1e6,
        "importance_ci_ppm": [importance.lower * 1e6, importance.upper * 1e6],
        "importance_stop_reason": importance.stop_reason,
        "importance_ess": importance.effective_sample_size,
        "budget_fraction": budget_fraction,
        "budget_reduction_x": vanilla.samples / importance.samples,
        "provenance": bench_provenance,
    }
    _merge_report(report)

    # The headline gate: same precision, <= 10 % of the vanilla budget.
    assert importance.stop_reason == "precision", report
    assert importance.half_width <= PRECISION, report
    assert budget_fraction <= 0.10, report

    # Statistical sanity: the cheap interval brackets the brute-force
    # estimate, and the two estimates agree within their summed widths.
    assert importance.lower <= vanilla.failure_probability <= importance.upper, (
        report
    )
    assert abs(
        importance.failure_probability - vanilla.failure_probability
    ) <= importance.half_width + vanilla.half_width, report

    # The weight stream is healthy, not a handful of dominant draws.
    assert importance.effective_sample_size is not None
    assert importance.effective_sample_size >= 32.0, report


def _reference_tilted_draw(
    variation: ComponentVariation,
    nominal: BuckParameters,
    num_variants: int,
    tilt: ComponentTilt,
) -> tuple[np.ndarray, np.ndarray]:
    """The per-instance ``default_rng`` loop of the tilted component draw.

    Returns the ``(variants, 5)`` relative spreads and the log-weights.
    """
    shifts = tilt.shifts()
    scale = tilt.sigma_scale
    draws = np.empty((num_variants, 5))
    log_weights = np.empty(num_variants)
    for row in range(num_variants):
        rng = np.random.default_rng((variation.seed, COMPONENT_STREAM_TAG, row))
        z = rng.standard_normal(5)
        tilted = shifts + scale * z
        log_weights[row] = (
            0.5 * float(z @ z) - 0.5 * float(tilted @ tilted) + 5 * math.log(scale)
        )
        draws[row] = [
            math.exp(variation.input_voltage_sigma * tilted[0]),
            math.exp(variation.inductance_sigma * tilted[1]),
            math.exp(variation.capacitance_sigma * tilted[2]),
            1.0 + variation.resistance_sigma * tilted[3],
            1.0 + variation.resistance_sigma * tilted[4],
        ]
    np.clip(draws[:, 3:], 0.0, None, out=draws[:, 3:])
    return draws, log_weights


def _best_of(repeats: int, function) -> tuple[float, object]:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_bench_chunk_seeded_tilted_draw(bench_provenance):
    nominal = BuckParameters(switching_frequency_hz=FREQUENCY_MHZ * 1e6)
    variation = ComponentVariation(seed=SEED)
    tilt = ComponentTilt(
        inductance_shift=TILT_INDUCTANCE_SHIFT,
        capacitance_shift=TILT_CAPACITANCE_SHIFT,
        sigma_scale=DEFAULT_TILT_SCALE,
    )
    reference_seconds, (spreads, log_weights) = _best_of(
        5, lambda: _reference_tilted_draw(variation, nominal, DRAW_INSTANCES, tilt)
    )
    chunk_seconds, (fleet, chunk_log_weights) = _best_of(
        5,
        lambda: variation.sample_instances_tilted(nominal, DRAW_INSTANCES, tilt=tilt),
    )
    # Same draws: the chunk seeding changes the cost, not the streams.
    for column, (field, nominal_value) in enumerate(
        [
            (fleet.input_voltage_v, nominal.input_voltage_v),
            (fleet.inductance_h, nominal.inductance_h),
            (fleet.capacitance_f, nominal.capacitance_f),
            (fleet.switch_resistance_ohm, nominal.switch_resistance_ohm),
            (fleet.inductor_resistance_ohm, nominal.inductor_resistance_ohm),
        ]
    ):
        np.testing.assert_array_equal(field, nominal_value * spreads[:, column])
    np.testing.assert_array_equal(chunk_log_weights, log_weights)

    speedup = reference_seconds / chunk_seconds
    _merge_report(
        {
            "tilted_draw": {
                "instances": DRAW_INSTANCES,
                "default_rng_loop_seconds": reference_seconds,
                "chunk_seeded_seconds": chunk_seconds,
                "speedup_x": speedup,
                "provenance": bench_provenance,
            }
        }
    )
    assert speedup >= SEEDING_SPEEDUP_FLOOR, (
        f"chunk-seeded tilted draw only {speedup:.2f}x faster than the "
        f"per-instance default_rng loop (floor {SEEDING_SPEEDUP_FLOOR}x)"
    )
