"""Benchmark entry point: one workload, one seed, one measured run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload silicon_lock --seed 2012 --seconds 20 --trace 0

Prints every metric by name with its unit, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` the
per-layer ones from a separate traced run.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: Fresh-interpreter imports timed per run for ``setup_s`` (after one
#: untimed import that may compile bytecode).
IMPORT_SAMPLES = 5
#: Every run must end within this many seconds.
TIME_LIMIT_S = 170.0

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One process on the serial executor: keep native thread pools to one
    # thread so the run measures one core, whatever the machine has.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    # Measure the default (numpy) kernel backend whatever the shell selects.
    env.pop("REPRO_BACKEND", None)
    return env


def import_seconds(env: dict[str, str], deadline: float) -> float:
    """Median wall time of a fresh interpreter importing ``repro.experiments``."""
    command = [sys.executable, "-c", "import repro.experiments"]
    samples = []
    for index in range(IMPORT_SAMPLES + 1):
        start = perf_counter()
        subprocess.run(command, env=env, check=True, timeout=max(1.0, deadline - perf_counter()))
        if index:
            samples.append(perf_counter() - start)
    return statistics.median(samples)


def tail_percentile(walls: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(walls)
    if n < 11:
        return f"no percentile has >=10 samples beyond it (n={n})"
    ordered = sorted(walls)
    rank = n - 11
    return f"p{100.0 * rank / (n - 1):.0f}={ordered[rank]:.4f} s (n={n})"


def check(
    raw: dict[str, Any], workload: workloads.Workload, seed: int
) -> tuple[int, int, list[str]]:
    """Cells attempted and failed over all repetitions, plus what failed."""
    warmup = raw["warmup"]
    reference = (
        workloads.PINNED_SHA256 if seed == workloads.DEFAULT_SEED else warmup["digests"]
    )
    attempted = failed = 0
    problems: list[str] = []
    traced_counts = None
    for index, rep in enumerate([warmup, *raw["reps"]]):
        label = f"repetition {index}" if index else "warm-up"
        attempted += rep["attempted"]
        failed += rep["failed"]
        problems += rep["errors"]
        for key, digest in rep["digests"].items():
            if digest != reference.get(key):
                problems.append(f"{label}: {key} sha256 {digest} != {reference.get(key)}")
                failed += rep["attempted"] // len(workload.invocations)
        if rep["instances"] != warmup["instances"]:
            problems.append(f"{label}: {rep['instances']} instances, warm-up {warmup['instances']}")
            failed += rep["attempted"]
        if "counts" not in rep:
            continue
        if traced_counts is None:
            traced_counts = rep["counts"]
        elif rep["counts"] != traced_counts:
            drift = sorted(
                k for k in set(traced_counts) | set(rep["counts"])
                if traced_counts.get(k) != rep["counts"].get(k)
            )
            problems.append(f"{label}: exact counts drifted: {', '.join(drift)}")
            failed += rep["attempted"]
        if rep["counts"].get("mc.samples", 0) not in (0, rep["instances"]):
            problems.append(f"{label}: mc.samples != instances drawn")
            failed += rep["attempted"]
    return attempted, failed, problems


def end_to_end(raw: dict[str, Any], setup_import_s: float) -> dict[str, float]:
    reps = raw["reps"]
    walls = [rep["wall_s"] for rep in reps]
    wall = statistics.median(walls)
    print(
        f"repetitions: warm-up {raw['warmup']['wall_s']:.4f} s, timed "
        f"{' '.join(f'{w:.4f}' for w in walls)} s"
    )
    print(f"wall_s tail: {tail_percentile(walls)}")
    return {
        "wall_s": wall,
        "samples_per_s": statistics.median(rep["instances"] / rep["wall_s"] for rep in reps),
        # Only the warm-up's excess over the slower quarter of the timed
        # repetitions counts as lazy set-up, so rep-to-rep noise does not.
        "setup_s": setup_import_s
        + max(0.0, raw["warmup"]["wall_s"] - statistics.quantiles(walls, n=4)[2]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "samples_used": float(raw["warmup"]["instances"]),
    }


def per_layer(raw: dict[str, Any]) -> dict[str, float]:
    traced = [rep for rep in raw["reps"] if "layers" in rep]
    untraced = [rep for rep in raw["reps"] if "layers" not in rep]
    metrics = {
        name: statistics.median(rep["layers"][name] for rep in traced)
        for name in traced[0]["layers"]
    }
    traced_wall = statistics.median(rep["wall_s"] for rep in traced)
    metrics["trace.overhead_ratio"] = traced_wall / statistics.median(
        rep["wall_s"] for rep in untraced
    )
    print(
        f"traced wall {traced_wall:.4f} s over {len(traced)} reps; unattributed "
        f"{metrics['unattributed_s'] / traced_wall:.1%} of it"
    )
    return metrics


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = perf_counter()
    deadline = started + TIME_LIMIT_S
    if not (ROOT / "src" / "repro" / "experiments" / "runner.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    declared = {
        m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]
    }

    env = child_env()
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_import_s = 0.0 if args.trace else import_seconds(env, deadline)
        out = workdir / "raw.json"
        command = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(workdir), "--out", str(out),
        ]
        worker = subprocess.run(
            command, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - perf_counter()),
        )
        if worker.returncode != 0:
            print(worker.stderr[-4000:], file=sys.stderr)
            return 1
        raw = json.loads(out.read_text(encoding="utf-8"))
    except (subprocess.SubprocessError, OSError) as error:
        print(f"benchmark run failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    print(f"provenance: {json.dumps(raw['provenance'], sort_keys=True)}")
    print(
        f"workload {args.workload} seed {args.seed}: {json.dumps(raw['sizes'], sort_keys=True)}, "
        f"{len(raw['reps'])} timed repetitions after 1 warm-up"
    )
    attempted, failed, problems = check(raw, workloads.WORKLOADS[args.workload], args.seed)
    for problem in problems:
        print(f"check failed: {problem}")
    print(f"failed_cell_ratio = {failed / attempted:.6f} ({failed}/{attempted} cells)")

    metrics = per_layer(raw) if args.trace else end_to_end(raw, setup_import_s)
    if set(metrics) != set(declared):
        print(f"metric set differs from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"{name} = {value!r} {declared[name]}")
    print(f"run took {perf_counter() - started:.1f} s")
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": declared[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
