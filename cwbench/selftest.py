"""Self-test of the benchmark: every workload briefly, on a small seed.

    python3 cwbench/selftest.py

Checks that each run prints every metric named in BENCHMARK.json with its
unit and with every answer correct, that the counts of the traced run repeat
exactly across two runs of one seed, and that the benchmark refuses to run,
printing no result, where the package is missing.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
EXACT = ("search.states_expanded", "circuits.max_step_calls",
         "circuits.zero_step_frac", "ratgeo.state_bits_max")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = json.loads((cwd / "BENCHMARK.json").read_text())["command"]
    return subprocess.run(
        command + ["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                   "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(res: dict, declared: list[dict], label: str) -> list[str]:
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(res)}")
    if not res["correct"] or res["failed"] or res["attempted"] < 1:
        problems.append(f"{label}: {res['failed']} of {res['attempted']} tasks failed")
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    if got != want:
        problems.append(f"{label}: metrics {got} differ from BENCHMARK.json {want}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        problems += check_metrics(result(run(ROOT, workload, 0)), spec["end_to_end"],
                                  f"{workload} untraced")
        first, second = (result(run(ROOT, workload, 1)) for _ in range(2))
        for res in (first, second):
            problems += check_metrics(res, spec["per_layer"], f"{workload} traced")
        for name in (m["name"] for m in spec["per_layer"] if m["unit"] != "s"):
            if name == "trace.overhead_frac":
                continue
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} {a} then {b} on seed {SEED}")
        missing = [n for n in EXACT if n not in first["metrics"]]
        if missing:
            problems.append(f"{workload}: traced run lacks {missing}")
        print(f"{workload}: checked", flush=True)

    (ROOT / ".cwbench_out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".cwbench_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("ran without the package instead of refusing")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
