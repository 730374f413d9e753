"""Collect a BENCH_*.json: alternating parent/change pairs of perfbench/run.py.

    python3 tools/bench_pairs.py --parent ../parent --change ../change \
        --control ../twin_p --out BENCH_6.json --pairs 10 --workloads train_small \
        --first-seed 101

Each checkout runs its own perfbench/run.py (with --trace 0, so the numbers
are the 9 end-to-end metrics) on the same seeds, for the run length that
BENCHMARK.json declares. Make both checkouts sibling clones in one
directory: the same source has measured a few percent apart from a working
checkout and from a clone, so the file records each side's commit,
resolved path, uncommitted files (git status's lines) and src/mqmotion line
count under "checkouts". Pair i runs seed first_seed + i on every
side, the sides taking turns to go first: the parent first when i is even
and the change first when it is odd.

--control adds an A/A arm, the "twin": a second clone of the parent's
commit beside it, under a name of the same length (it is cloned from the
parent if it does not exist). Each pair then runs parent, change and twin
in turn, starting with the parent, the change and the twin in rotation.
The twin shows how far the same code moves between two checkouts, so a
claimed gain must beat the twin's move as well as meet the pair rule.

Per workload the file holds every run, each side's median and quartiles of
every metric, the pairs the change won, the twin's move against the parent,
and whether the gain rule is met (gate_met). It also holds 3 --trace 1 runs
per side, at seeds 5-7 and in alternating order, the twin's excepted, and
their "summary": each side's median and quartiles of every per-layer metric
that BENCHMARK.json declares, so no single slow run decides one.
Every run also keeps run.py's per-kind "samples" lines (count, wall median and
reference median in ms), and each workload's "samples" summary gives each
side's quartiles of both medians per kind. The reported metrics are in
reference seconds, scaled by a probe timed in the same process, so a probe
that runs slower in one side's processes makes that side's reference
medians read lower against its wall medians; this summary shows it.
The file is rewritten after every run, so an interrupted collection keeps
what it measured; --append adds pairs to an existing file instead of
starting over, and skips the traced runs (side and seed) it already holds;
it needs the sides the file has, --control included or not.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
TWIN = "twin"
TRACED_SEEDS = (5, 6, 7)
SAMPLES_LINE = re.compile(r"samples (\S+)\s+n=\s*(\d+) wall median\s+(\S+) ms"
                          r"\s+reference median\s+(\S+) ms")


def parse_samples(stdout: str) -> dict:
    """run.py's per-kind samples lines: {kind: {n, wall_ms, reference_ms}}."""
    out = {}
    for line in stdout.splitlines():
        m = SAMPLES_LINE.fullmatch(line.strip())
        if m:
            kind, n, wall, ref = m.groups()
            out[kind] = {"n": int(n), "wall_ms": float(wall), "reference_ms": float(ref)}
    return out


def run_json(checkout: Path, args: list[str], timeout: float) -> dict:
    """Run perfbench/run.py with args in checkout; its last stdout line is JSON."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=checkout,
                          capture_output=True, text=True, timeout=timeout)
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        out = {"error": proc.stderr.strip().splitlines()[-1:] or ["no output"]}
    out["samples"] = parse_samples(proc.stdout)
    out["exit_code"] = proc.returncode
    return out


def git_commit(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def check_twin(parent: Path, twin: Path) -> None:
    """The twin must sit beside the parent under a name of the same length:
    the same source has measured a few percent apart from another path."""
    if twin.parent != parent.parent or len(twin.name) != len(parent.name) or twin == parent:
        raise SystemExit(f"--control {twin} must be another directory beside {parent} "
                         f"with a name of {len(parent.name)} characters")


def pair_order(sides: tuple, i: int) -> tuple:
    """The order pair i runs the sides in: each side goes first in turn."""
    k = i % len(sides)
    return sides[k:] + sides[:k]


def uncommitted(checkout: Path) -> list[str] | None:
    """git status's lines for checkout's modified, staged and untracked files."""
    proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=all"],
                          cwd=checkout, capture_output=True, text=True)
    return proc.stdout.splitlines() if proc.returncode == 0 else None


def source_lines(checkout: Path) -> int:
    """The lines of checkout's src/mqmotion/*.py, as wc -l counts them."""
    return sum(f.read_bytes().count(b"\n") for f in (checkout / "src" / "mqmotion").glob("*.py"))


def describe_checkouts(checkouts: dict[str, Path]) -> dict:
    """Each side's commit, resolved path, uncommitted files and source lines,
    as a collection records them: a working tree measured with uncommitted
    edits is not its commit."""
    return {s: {"commit": git_commit(p), "path": str(p), "uncommitted": uncommitted(p),
                "source_lines": source_lines(p)} for s, p in checkouts.items()}


def quartiles(xs: list[float]) -> dict:
    if len(xs) < 2:
        return {"median": xs[0] if xs else None, "q1": None, "q3": None, "iqr": None, "n": len(xs)}
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(xs)}


def metric_values(side_runs: list[dict], name: str) -> list[float]:
    """The values one side's runs report for a metric; a failed run has none."""
    return [r["metrics"][name]["value"] for r in side_runs
            if r.get("metrics", {}).get(name, {}).get("value") is not None]


def summarize(runs: dict, better: dict) -> dict:
    """Per metric: each side's quartiles, change/parent medians, pairs won, and
    gate_met: whether a gain may be claimed. That takes the change winning at
    least nine tenths of the pairs (ties count for neither) and its median
    beating the parent's by more than the parent's IQR and, where runs holds
    a twin, by more than the twin's median moved from the parent's either way
    (twin_move)."""
    out = {}
    for name, direction in better.items():
        vals = {s: metric_values(side_runs, name) for s, side_runs in runs.items()}
        entry = {s: quartiles(v) for s, v in vals.items()}
        p, c = entry["parent"]["median"], entry["change"]["median"]
        entry["change_over_parent"] = c / p if p and c is not None else None
        sign = 1.0 if direction == "higher" else -1.0
        pairs = list(zip(vals["parent"], vals["change"]))
        entry["change_won"] = sum(1 for a, b in pairs if sign * (b - a) > 0)
        entry["pairs"] = len(pairs)
        iqr = entry["parent"]["iqr"]
        gate = bool(pairs) and 10 * entry["change_won"] >= 9 * len(pairs) \
            and iqr is not None and c is not None and sign * (c - p) > iqr
        if TWIN in entry:
            t = entry[TWIN]["median"]
            entry["twin_move"] = abs(t - p) if t is not None and p is not None else None
            gate = gate and entry["twin_move"] is not None and sign * (c - p) > entry["twin_move"]
        entry["gate_met"] = gate
        out[name] = entry
    return out


def summarize_traced(runs: dict, names: list[str]) -> dict:
    """Per named metric: each side's quartiles over its traced runs, and the
    change's median over the parent's."""
    out = {}
    for name in names:
        entry = {s: quartiles(metric_values(side_runs, name)) for s, side_runs in runs.items()}
        p, c = entry["parent"]["median"], entry["change"]["median"]
        entry["change_over_parent"] = c / p if p and c is not None else None
        out[name] = entry
    return out


def collect_traced(traced: dict, run, names: list[str], save) -> None:
    """Trace each of TRACED_SEEDS on both sides, each side going first in
    turn, skipping the (side, seed) runs traced already holds. run(side,
    seed) gives one run's JSON; the summary is rewritten and saved after
    each run."""
    for i, seed in enumerate(TRACED_SEEDS):
        for side in pair_order(SIDES, i):
            held = traced["runs"][side]
            if any(r.get("seed") == seed for r in held):
                continue
            held.append(dict(run(side, seed), seed=seed))
            traced["summary"] = summarize_traced(traced["runs"], names)
            save()


def summarize_samples(runs: dict) -> dict:
    """Per sample kind: each side's quartiles of the runs' wall and reference medians."""
    kinds = sorted({k for side_runs in runs.values() for r in side_runs
                    for k in r.get("samples", {})})
    return {k: {s: {field: quartiles([r["samples"][k][field] for r in side_runs
                                      if k in r.get("samples", {})])
                    for field in ("wall_ms", "reference_ms")}
                for s, side_runs in runs.items()}
            for k in kinds}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="change checkout")
    ap.add_argument("--control", type=Path,
                    help="A/A twin: a second parent clone beside it, same name length")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--append", action="store_true", help="add pairs to an existing --out")
    args = ap.parse_args()
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if args.control is not None:
        twin = args.control.resolve()
        check_twin(checkouts["parent"], twin)
        if not twin.exists():
            subprocess.run(["git", "clone", "--quiet", str(checkouts["parent"]), str(twin)],
                           check=True)
        if git_commit(twin) != git_commit(checkouts["parent"]):
            raise SystemExit(f"--control {twin} is not at the parent's commit")
        checkouts[TWIN] = twin
    sides = tuple(checkouts)
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    per_layer = [m["name"] for m in bench["per_layer"]]
    seconds = str(bench["run_seconds"])
    timeout = 10 * bench["run_seconds"] + 300

    if args.append and args.out.is_file():
        doc = json.loads(args.out.read_text())
        if set(doc["checkouts"]) != set(sides):
            raise SystemExit(f"{args.out} holds the sides {sorted(doc['checkouts'])}; "
                             f"an appended collection runs the same sides")
    else:
        doc = {
            "command": f"perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0",
            "checkouts": describe_checkouts(checkouts),
            "workloads": {},
        }

    def save():
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    for wl in args.workloads:
        entry = doc["workloads"].setdefault(wl, {"runs": {s: [] for s in sides}})
        start = args.first_seed + len(entry["runs"]["parent"])
        for i in range(args.pairs):
            seed = start + i
            order = pair_order(sides, seed - args.first_seed)
            for side in order:
                t0 = time.monotonic()
                res = run_json(checkouts[side], ["--workload", wl, "--seed", str(seed),
                                                 "--seconds", seconds, "--trace", "0"],
                               timeout)
                res.update(seed=seed, first=order[0], wall_s=time.monotonic() - t0)
                entry["runs"][side].append(res)
                steps = res.get("metrics", {}).get("train_steps_per_s", {}).get("value")
                print(f"{wl} seed {seed} {side}: correct={res.get('correct')} "
                      f"steps/s={steps}", file=sys.stderr, flush=True)
                entry["summary"] = summarize(entry["runs"], better)
                entry["samples"] = summarize_samples(entry["runs"])
                save()
        traced = entry.setdefault("traced", {"seeds": list(TRACED_SEEDS),
                                             "runs": {s: [] for s in SIDES}})
        collect_traced(traced, lambda side, seed: run_json(
            checkouts[side], ["--workload", wl, "--seed", str(seed), "--seconds", seconds,
                              "--trace", "1"], timeout), per_layer, save)
    return 0


if __name__ == "__main__":
    sys.exit(main())
