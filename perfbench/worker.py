"""Runs one workload in this process and writes its raw measurements as JSON.

Started by ``run.py`` in a fresh interpreter with ``src`` on ``PYTHONPATH``.
One warm-up repetition, then timed repetitions for ``--seconds``.  With ``--trace 1`` the timed repetitions alternate untraced and
traced, so the tracing overhead is measured in the same run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Timed repetitions always made, whatever ``--seconds`` says: enough for
#: a median, and two traced ones whose exact counts can be compared.
MIN_REPS = 3
MIN_TRACED_REPS = 2


def run_repetition(
    workload: workloads.Workload,
    seed: int,
    workdir: Path,
    expected_cells: int,
    main: Callable[[list[str]], int],
) -> dict[str, Any]:
    """One repetition: every invocation of the workload, timed and checked."""
    wall = 0.0
    digests: dict[str, str] = {}
    attempted = failed = instances = 0
    errors: list[str] = []
    for invocation in workload.invocations:
        out = workdir / "out.json"
        cache = workdir / "cache"
        argv = invocation.argv(seed) + [
            "--json", str(out), "--cache-dir", str(cache), "--executor", "serial",
        ]
        log = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = main(argv)
        wall += perf_counter() - start
        attempted += expected_cells
        try:
            raw = out.read_bytes()
            if code != 0:
                raise RuntimeError(f"exit code {code}")
            cell_failures, cell_instances = workloads.check_output(
                workload, invocation, json.loads(raw), expected_cells
            )
        except (OSError, ValueError, KeyError, RuntimeError) as error:
            failed += expected_cells
            errors.append(f"{' '.join(argv)}: {error}: {log.getvalue()[-400:]}")
            continue
        finally:
            shutil.rmtree(cache, ignore_errors=True)
            out.unlink(missing_ok=True)
        failed += cell_failures
        instances += cell_instances
        digests[invocation.key] = hashlib.sha256(raw).hexdigest()
    return {
        "wall_s": wall,
        "digests": digests,
        "attempted": attempted,
        "failed": failed,
        "instances": instances,
        "errors": errors,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    import numpy

    from repro.experiments.runner import main as runner_main
    from repro.kernels import active_backend_name

    workload = workloads.WORKLOADS[args.workload]
    size = workloads.sizes()[workload.name]
    expected_cells = size["cells"] // len(workload.invocations)
    tracer = tracing.Tracer()

    def repetition(traced: bool) -> dict[str, Any]:
        if not traced:
            return run_repetition(workload, args.seed, args.workdir, expected_cells, runner_main)
        tracer.reset()
        uninstall = tracing.install(tracer)
        try:
            rep = run_repetition(
                workload,
                args.seed,
                args.workdir,
                expected_cells,
                tracer.wrap(tracing.ROOT_SPAN, runner_main),
            )
        finally:
            uninstall()
        rep["layers"] = tracing.layer_metrics(tracer, rep["wall_s"])
        rep["counts"] = tracing.exact_counts(tracer)
        return rep

    warmup = repetition(traced=False)
    reps: list[dict[str, Any]] = []
    durations: list[float] = []
    start = perf_counter()
    while True:
        # Stop before a repetition that would end past --seconds, once the
        # minimum repetitions are in.
        n_traced = sum("layers" in rep for rep in reps)
        enough = len(reps) >= MIN_REPS and n_traced >= (MIN_TRACED_REPS if args.trace else 0)
        if enough and perf_counter() - start + statistics.median(durations) > args.seconds:
            break
        began = perf_counter()
        reps.append(repetition(traced=bool(args.trace) and len(reps) % 2 == 1))
        durations.append(perf_counter() - began)

    result = {
        "warmup": warmup,
        "reps": reps,
        "sizes": size,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": {
            "cpu_count": os.cpu_count(),
            "numpy_version": numpy.__version__,
            "backend": active_backend_name(),
            "platform": platform.platform(),
        },
    }
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
