"""Layered benchmark for exact monotone-walk certification.

    python3 cwbench/run.py --workload {family,reduction,lift,corpus} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the package from ``src/``.
Each run is one single-threaded process driving a closed loop with one
client: the next task starts when the previous one has finished.  The loop
runs whole tasks until ``--seconds`` have passed, and always at least the
first block of the deck (see ``workloads.py``).

``--trace 0`` measures the end-to-end metrics with tracing off; their times
are rescaled for the host's speed (see CALIBRATION_REF_S).
``--trace 1`` runs each task twice in turn, untraced and traced, reports the
per-layer metrics from the traced runs and the tracing overhead from the
pair, and writes the spans to ``.cwbench_out/``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when the benchmark ran, whether or not every
answer was correct, and 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Mismatch  # noqa: E402

PACKAGE = "circuitwalks"
MODULES = ("ratgeo", "polytope", "circuits", "search", "constructions", "formats",
           "render", "cli")
# The first set-up loads the standard library as well; the median of several
# set-ups in one process is the package's own import plus input generation.
SETUP_REPEATS = 15
OUT_DIR = ".cwbench_out"
# On a shared host the CPU speed can change by a third within seconds, and a
# fixed pure-Python kernel speeds up and slows down with the program.  End-to-
# end times are therefore wall seconds rescaled by the kernel's reference
# time (its time on a 2-core x86 host at the slower of its speeds) over its
# time around each task and each set-up.
CALIBRATION_REF_S = 0.004

# Metric names and units come from BENCHMARK.json.  Per-layer times are
# seconds per traced task, raw; counts are totals over the count window (the
# deck's first block) and repeat exactly for a seed.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def import_package() -> SimpleNamespace:
    """Import every module of the package afresh, dropping earlier copies."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
    )


def calibrate() -> float:
    """Wall seconds of a fixed rational-arithmetic kernel from the stdlib."""
    start = time.perf_counter()
    x, total = Fraction(1, 3), Fraction(0)
    for i in range(1, 300):
        total += x * i / (i + 7) - Fraction(i, 11)
    return time.perf_counter() - start


def rescale(times, calibrations):
    """Each time at reference speed, judged by the kernel runs around it.

    calibrations[i] and calibrations[i + 1] are the kernel runs just before
    and just after times[i]; the host's speed changes within seconds, and
    the pair tracks it closer than a longer window does.
    """
    return [
        t * 2 * CALIBRATION_REF_S / (calibrations[i] + calibrations[i + 1])
        for i, t in enumerate(times)
    ]


class Loop:
    """Closed loop over the deck: one task at a time, answers checked."""

    def __init__(self, mods, workload, deck, workdir):
        self.mods, self.workload, self.deck, self.workdir = mods, workload, deck, workdir
        self.attempted = 0
        self.failures: list[str] = []

    def task(self, index: int) -> float:
        """Run deck task `index` (cycling); return its wall time in seconds."""
        spec = self.deck[index % len(self.deck)]
        self.attempted += 1
        start = time.perf_counter()
        try:
            self.workload.run(self.mods, spec, self.workdir)
        except Mismatch as exc:
            self.failures.append(f"task {index}: {exc}")
        except Exception as exc:  # a crash is a failed task, not a failed run
            self.failures.append(f"task {index}: {type(exc).__name__}: {exc}")
        return time.perf_counter() - start


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def untraced_run(loop, seconds, window):
    times, calibrations = [], []
    start = time.perf_counter()
    while len(times) < window or time.perf_counter() - start < seconds:
        calibrations.append(calibrate())
        times.append(loop.task(len(times)))
    calibrations.append(calibrate())
    return times, calibrations


def traced_run(loop, tracer, seconds, window):
    plain, traced, counts = [], [], None
    start = time.perf_counter()
    index = 0
    while index < window or time.perf_counter() - start < seconds:
        plain.append(loop.task(index))
        tracer.task_id = index
        tracer.install()
        try:
            traced.append(loop.task(index))
        finally:
            tracer.uninstall()
        index += 1
        if index == window:
            counts = tracer.snapshot()
    return plain, traced, counts


def layer_metrics(tracer, counts, n_tasks, overhead) -> dict:
    busy = {group: seconds / n_tasks for group, seconds in tracer.busy.items()}
    self_s = {layer: seconds / n_tasks for layer, seconds in tracer.self_time.items()}
    tries = counts["calls:circuits.max_step"] + counts["lifted_tries"]
    values = {
        "search.solve_s": busy["search.solve"],
        "search.validate_s": busy["search.validate"],
        "search.calls": counts["calls:search.solve"],
        "search.states_expanded": counts["states"],
        "search.moves": counts["moves"],
        "search.dup_frac": counts["dups"] / counts["moves"] if counts["moves"] else 0.0,
        "circuits.max_step_calls": counts["calls:circuits.max_step"],
        "circuits.max_step_s": busy["circuits.max_step"],
        "circuits.zero_step_frac": counts["zero_steps"] / tries if tries else 0.0,
        "circuits.lifted_calls": counts["lifted_tries"],
        "circuits.lifted_s": busy["circuits.lifted"],
        "circuits.setup_s": busy["circuits.setup"],
        "circuits.edge_walk_s": busy["circuits.edge_walk"],
        "ratgeo.state_bits_max": counts["bits_max"],
        "ratgeo.state_bits_mean": (
            counts["bits_sum"] / counts["states"] if counts["states"] else 0.0
        ),
        "polytope.hpolygon_calls": counts["calls:polytope.hpolygon"],
        "polytope.hpolygon_s": busy["polytope.hpolygon"],
        "polytope.transform_s": busy["polytope.transform"],
        "constructions.build_s": busy["constructions.build"],
        "constructions.brute_force_s": busy["constructions.brute_force"],
        "constructions.row_bits_max": counts["row_bits_max"],
        "formats.read_s": busy["formats.read"],
        "formats.write_s": busy["formats.write"],
        "formats.bytes": counts["bytes"],
        "render.svg_s": busy["render.svg"],
        "render.lp_s": busy["render.lp"],
        "trace.spans": counts["spans"],
        "trace.overhead_frac": overhead,
    }
    values.update({f"{layer}.self_s": self_s[layer] for layer in LAYERS})
    return {name: values[name] for name in PER_LAYER}


def src_lines() -> int:
    return sum(
        1
        for path in sorted((ROOT / "src" / PACKAGE).glob("*.py"))
        for line in path.read_text().splitlines()
        if line.strip()
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]

    setups, setup_calibrations = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        setup_calibrations.append(calibrate())
        start = time.perf_counter()
        mods = import_package()
        deck = workload.make_deck(random.Random(args.seed), workload.blocks)
        setups.append(time.perf_counter() - start)
    setup_calibrations.append(calibrate())
    loaded = Path(mods.ratgeo.__file__).resolve()
    if src.resolve() not in loaded.parents:
        print(f"error: imported {loaded}, not the package under {src}", file=sys.stderr)
        return 2
    window = len(deck) // workload.blocks

    out_dir = ROOT / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    loop = Loop(mods, workload, deck, workdir)
    gc.collect()
    try:
        if args.trace:
            tracer = Tracer(mods)
            plain, traced, counts = traced_run(loop, tracer, args.seconds, window)
            overhead = statistics.median(traced) / statistics.median(plain) - 1
            metrics = layer_metrics(tracer, counts, len(traced), overhead)
            units = PER_LAYER
            tracer.write_spans(out_dir / f"spans-{args.workload}-{args.seed}.csv")
        else:
            raw, calibrations = untraced_run(loop, args.seconds, window)
            times = rescale(raw, calibrations)
            metrics = {
                "setup_s": statistics.median(rescale(setups, setup_calibrations)),
                "task_s_p50": statistics.median(times),
                "task_s_tail": percentile(times, workload.tail_pct),
                "tasks_per_s": len(times) / sum(times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(loop.failures)
    for failure in loop.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"backend {mods.ratgeo.BACKEND}, src lines {src_lines()}, "
          f"closed loop with one client, count window {window} tasks")
    print(f"attempted {loop.attempted} failed {failed} "
          f"failed_frac {failed / loop.attempted!r}")
    if not args.trace:
        beyond = sum(t > metrics["task_s_tail"] for t in times)
        print(f"task_s_tail is p{workload.tail_pct} of {len(times)} tasks "
              f"({beyond} beyond it); kernel median {statistics.median(calibrations)!r} s, "
              f"raw task_s_p50 {statistics.median(raw)!r} s")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
