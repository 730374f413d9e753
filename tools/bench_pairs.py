"""Collect a BENCH_*.json: alternating parent/change pairs of perfbench/run.py.

    python3 tools/bench_pairs.py --parent ../parent --change . --out BENCH_6.json \
        --pairs 10 --workloads train_small --first-seed 101

Each checkout runs its own perfbench/run.py (with --trace 0, so the numbers
are the 9 end-to-end metrics) on the same seeds, for the run length that
BENCHMARK.json declares. Pair i runs seed first_seed + i on both sides, the
parent first when i is even and the change first when it is odd. Per workload
the file holds every run, each side's median and quartiles of every metric,
the pairs the change won, and one --trace 1 run per side at seed 5 (the
per-layer metrics). It also holds each side's perfbench/sweep.py summary.
The file is rewritten after every run, so an interrupted collection keeps
what it measured; --append adds pairs to an existing file instead of
starting over, and skips the traced runs and sweeps it already holds.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
TRACED_SEED = 5


def run_json(checkout: Path, args: list[str], timeout: float) -> dict:
    """Run a perfbench script in checkout; its last stdout line is JSON."""
    proc = subprocess.run([sys.executable, *args], cwd=checkout, capture_output=True,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if args[0].endswith("run.py") else json.loads(proc.stdout)
    except (IndexError, json.JSONDecodeError):
        out = {"error": proc.stderr.strip().splitlines()[-1:] or ["no output"]}
    out["exit_code"] = proc.returncode
    return out


def git_commit(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def quartiles(xs: list[float]) -> dict:
    if len(xs) < 2:
        return {"median": xs[0] if xs else None, "q1": None, "q3": None, "iqr": None, "n": len(xs)}
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(xs)}


def summarize(runs: dict, better: dict) -> dict:
    """Per metric: each side's quartiles, change/parent medians, pairs won."""
    out = {}
    for name, direction in better.items():
        vals = {s: [r["metrics"][name]["value"] for r in runs[s]
                    if r.get("metrics", {}).get(name, {}).get("value") is not None]
                for s in SIDES}
        entry = {s: quartiles(vals[s]) for s in SIDES}
        p, c = entry["parent"]["median"], entry["change"]["median"]
        entry["change_over_parent"] = c / p if p and c is not None else None
        sign = 1.0 if direction == "higher" else -1.0
        pairs = list(zip(vals["parent"], vals["change"]))
        entry["change_won"] = sum(1 for a, b in pairs if sign * (b - a) > 0)
        entry["pairs"] = len(pairs)
        out[name] = entry
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="change checkout")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--append", action="store_true", help="add pairs to an existing --out")
    args = ap.parse_args()
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = str(bench["run_seconds"])
    timeout = 10 * bench["run_seconds"] + 300

    if args.append and args.out.is_file():
        doc = json.loads(args.out.read_text())
    else:
        doc = {
            "command": f"perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0",
            "checkouts": {s: {"commit": git_commit(p)} for s, p in checkouts.items()},
            "workloads": {},
        }

    def save():
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    for wl in args.workloads:
        entry = doc["workloads"].setdefault(wl, {"runs": {s: [] for s in SIDES}})
        start = args.first_seed + len(entry["runs"]["parent"])
        for i in range(args.pairs):
            seed = start + i
            order = SIDES if (seed - args.first_seed) % 2 == 0 else SIDES[::-1]
            for side in order:
                t0 = time.monotonic()
                res = run_json(checkouts[side], ["perfbench/run.py", "--workload", wl,
                                                 "--seed", str(seed), "--seconds",
                                                 seconds, "--trace", "0"], timeout)
                res.update(seed=seed, first=order[0], wall_s=time.monotonic() - t0)
                entry["runs"][side].append(res)
                steps = res.get("metrics", {}).get("train_steps_per_s", {}).get("value")
                print(f"{wl} seed {seed} {side}: correct={res.get('correct')} "
                      f"steps/s={steps}", file=sys.stderr, flush=True)
                entry["summary"] = summarize(entry["runs"], better)
                save()
        traced = entry.setdefault("traced", {"seed": TRACED_SEED})
        for side in SIDES:
            if side not in traced:
                traced[side] = run_json(checkouts[side], ["perfbench/run.py", "--workload", wl,
                                                          "--seed", str(TRACED_SEED), "--seconds",
                                                          seconds, "--trace", "1"], timeout)
                save()
    sweep = doc.setdefault("sweep", {})
    for side in SIDES:
        if side not in sweep:
            sweep[side] = run_json(checkouts[side], ["perfbench/sweep.py"], 3600)
            save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
