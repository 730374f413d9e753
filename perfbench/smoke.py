"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at a tiny size, untraced and traced,
and checks that the last output line carries exactly the declared metric
names and units, that the run is correct, and that a copy of the benchmark
without the package sources fails without printing a result. Exits 1 on
the first mismatch.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cmd, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(bench: dict, workload: str, trace: int) -> list[str]:
    proc = run(bench["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                                   "--trace", str(trace), "--scale", "tiny"], ROOT)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(declared) - set(got))}, "
                        f"extra {sorted(set(got) - set(declared))}, units "
                        f"{sorted(k for k in got.keys() & declared.keys() if got[k] != declared[k])}")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            problems.append(f"{where}: metric {name} is {m}")
    return problems


def check_without_sources(bench: dict) -> list[str]:
    """Only BENCHMARK.json and the benchmark's files: must fail, print no result."""
    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bench["command"] + ["--workload", bench["workloads"][0]["name"],
                                       "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_without_sources(bench)
    for workload in bench["workloads"]:
        for trace in (0, 1):
            problems += check_result(bench, workload["name"], trace)
            print(f"checked {workload['name']} trace={trace}", flush=True)
    for p in problems:
        print("FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
