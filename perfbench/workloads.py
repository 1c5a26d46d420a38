"""The benchmark's workloads: CLI arguments, sizes and output checks.

Each workload is a list of ``repro-experiments`` invocations generated from
the benchmark seed alone.  A repetition runs them in order through
``repro.experiments.runner.main`` with ``--json``, a fresh ``--cache-dir``
and the serial executor; :func:`check_output` then scores every sweep cell
of the ``--json`` document.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

DEFAULT_SEED = 2012
#: Seed never used while the benchmark or a change was tuned; a claimed
#: gain is re-checked on it.
HELD_OUT_SEED = 7919

#: sha256 of each invocation's ``--json`` bytes at DEFAULT_SEED.  The
#: fig50_51_mc, fig15_mc and fig15_rare (importance) values mirror the pins
#: in tests/test_golden_outputs.py; the fig15_mission and the vanilla and
#: stratified fig15_rare values were recorded when the benchmark was added.
PINNED_SHA256 = {
    "fig50_51_mc": "a808eb11de7f21a23a867307c448a3a53ffd284cd08e48a1f2f2d14cee009f53",
    "fig15_mc": "134a20a6541c2c5307c8e6a7422ccf858f179bbef0c302bcc503fa48f8612098",
    "fig15_mission": "952b6ee58b98a7e9f6f80700a75df17b6e0417c2d177e7f096986623cf6ad3c9",
    "fig15_rare/vanilla": "1a529da513f10be066f0bf4858e34942c32ba97fa30ae805186959c35fb5d6d8",
    "fig15_rare/stratified": "bf70e4cba8e573457a9f603be53acb211eff6a1715f0545106daab5d92baf42d",
    "fig15_rare/importance": "1ed556d4619721acea08bc20a7f97fc7097b741865efa176d949b1c4fa9523c2",
}


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a workload: experiment id plus optional estimator."""

    experiment: str
    estimator: str | None = None

    @property
    def key(self) -> str:
        return "/".join(filter(None, (self.experiment, self.estimator)))

    def argv(self, seed: int) -> list[str]:
        args = [self.experiment, "--seed", str(seed)]
        if self.experiment == "fig15_mission":
            # The per-instance missions are workload inputs too.
            args += ["--mission-seed", str(seed)]
        if self.estimator is not None:
            args += ["--estimator", self.estimator]
        return args


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple[Invocation, ...]
    #: Nesting depth of the sweep cells under ``<experiment>/data``.
    cell_depth: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "silicon_lock",
            "Fabrication draws plus ensemble lock with every closed-loop "
            "layer idle, so a closed-loop change must read flat here.",
            (Invocation("fig50_51_mc"),),
            cell_depth=3,
        ),
        Workload(
            "fleet_regulation",
            "Small fleets under constant and stepped loads: per-period numpy "
            "dispatch dominates and the coefficient memo hits ~95 % of periods.",
            (Invocation("fig15_mc"),),
            cell_depth=4,
        ),
        Workload(
            "mission_drift",
            "Per-instance missions over a thermal trace: the coefficient memo "
            "misses almost every period and resistance_at runs per instance.",
            (Invocation("fig15_mission"),),
            cell_depth=2,
        ),
        Workload(
            "rare_adaptive",
            "The three rare-event estimators on both corners: the only "
            "workload through repro.mc and the tilted and stratum draw streams.",
            tuple(
                Invocation("fig15_rare", estimator)
                for estimator in ("vanilla", "stratified", "importance")
            ),
            cell_depth=1,
        ),
    )
}


def sizes() -> dict[str, dict[str, Any]]:
    """Cell/instance/period sizes the workloads run, read from the program."""
    from repro.experiments import (
        figure15_mc,
        figure15_mission,
        figure15_rare,
        figure50_51_mc,
    )

    return {
        "silicon_lock": {
            "cells": len(figure50_51_mc.GRID.cells()),
            "instances_per_cell": figure50_51_mc.NUM_INSTANCES,
        },
        "fleet_regulation": {
            "cells": len(figure15_mc.GRID.cells()),
            "instances_per_cell": figure15_mc.NUM_INSTANCES,
            "periods": figure15_mc.PERIODS,
        },
        "mission_drift": {
            "cells": len(figure15_mission.GRID.cells()),
            "instances_per_cell": figure15_mission.NUM_INSTANCES,
            "periods": figure15_mission.DEFAULT_MISSION_LENGTH,
        },
        "rare_adaptive": {
            "cells": len(figure15_rare.GRID.cells()) * len(figure15_rare.ESTIMATORS),
            "max_instances_per_cell": figure15_rare.DEFAULT_MAX_INSTANCES,
            "chunk_size": figure15_rare.CHUNK_SIZE,
            "periods": figure15_rare.PERIODS,
        },
    }


def _cells(data: Any, depth: int) -> list[dict[str, Any]]:
    if depth == 0:
        return [data]
    if not isinstance(data, dict):
        raise ValueError("cell tree is not a mapping")
    return [cell for child in data.values() for cell in _cells(child, depth - 1)]


def _in_unit_interval(value: Any) -> bool:
    return isinstance(value, (int, float)) and 0.0 <= value <= 1.0


def _yield_cell(cell: dict[str, Any]) -> None:
    """Fixed-size cell: every yield/fraction in [0, 1], every float finite."""
    for name, value in cell.items():
        if isinstance(value, dict):
            _yield_cell(value)
        elif isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} is not finite")
        elif ("yield" in name or name.endswith("fraction")) and not _in_unit_interval(
            value
        ):
            raise ValueError(f"{name}={value!r} is outside [0, 1]")


def _silicon_cell(cell: dict[str, Any]) -> int:
    _yield_cell(cell)
    from repro.experiments.figure50_51_mc import NUM_INSTANCES

    return NUM_INSTANCES


def _fleet_cell(cell: dict[str, Any]) -> int:
    _yield_cell(cell)
    from repro.experiments.figure15_mc import NUM_INSTANCES

    return NUM_INSTANCES


def _mission_cell(cell: dict[str, Any]) -> int:
    _yield_cell(cell)
    from repro.experiments.figure15_mission import (
        DEFAULT_MISSION_LENGTH,
        NUM_INSTANCES,
        NUM_SEGMENTS,
    )

    if cell["num_instances"] != NUM_INSTANCES:
        raise ValueError(f"num_instances={cell['num_instances']}")
    if cell["periods"] != DEFAULT_MISSION_LENGTH:
        raise ValueError(f"periods={cell['periods']}")
    for counts in (cell["segment_failure_counts"], cell["first_failure_counts"]):
        if len(counts) != NUM_SEGMENTS or not all(0 <= c <= NUM_INSTANCES for c in counts):
            raise ValueError(f"segment counts {counts!r}")
    return NUM_INSTANCES


def _rare_cell(cell: dict[str, Any]) -> int:
    samples = cell["samples"]
    if not 0 < samples <= cell["max_samples"]:
        raise ValueError(f"samples={samples}")
    if cell["stop_reason"] not in ("precision", "max_samples"):
        raise ValueError(f"stop_reason={cell['stop_reason']!r}")
    if not cell["lower"] <= cell["failure_probability"] <= cell["upper"]:
        raise ValueError("failure probability outside its interval")
    if not (_in_unit_interval(cell["lower"]) and _in_unit_interval(cell["upper"])):
        raise ValueError("interval outside [0, 1]")
    return samples


CELL_CHECKS: dict[str, Callable[[dict[str, Any]], int]] = {
    "fig50_51_mc": _silicon_cell,
    "fig15_mc": _fleet_cell,
    "fig15_mission": _mission_cell,
    "fig15_rare": _rare_cell,
}


def check_output(
    workload: Workload, invocation: Invocation, document: dict[str, Any], expected: int
) -> tuple[int, int]:
    """Score one ``--json`` document of ``expected`` cells: (failed, instances).

    ``instances`` counts fabricated and scored instances; for the adaptive
    estimators it is the samples they drew before stopping.  Missing cells
    count as failed.
    """
    data = document[invocation.experiment]["data"]
    cells = _cells(data, workload.cell_depth)
    check = CELL_CHECKS[invocation.experiment]
    failed = max(0, expected - len(cells))
    instances = 0
    for cell in cells:
        try:
            instances += check(cell)
        except (KeyError, TypeError, ValueError):
            failed += 1
    return failed, instances
