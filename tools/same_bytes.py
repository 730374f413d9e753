"""Check that two checkouts write the same bytes over a fixed matrix of CLI runs.

    python3 tools/same_bytes.py --parent ../parent --change . --out same_bytes.json

Each checkout runs MATRIX twice, each time in a fresh work directory, one
`mqmotion` command per child process (`python -m mqmotion.cli` with only the
checkout's src/ on PYTHONPATH). The matrix synthesizes sinusoid and
constant clips at J=5 and J=22, writes `perturb` outputs, trains 2 epochs
for each J=5 and J=22 configuration, trains each J=5 configuration 1 epoch
and resumes it to 2, trains the default J=5 configuration 3 steps and
resumes it mid-epoch to 2 epochs, trains it 5 steps (one whole epoch, left
open at its last batch) and resumes that to 2 epochs, and runs `predict`
and `eval` (CSV and SVG) on every 2-epoch checkpoint: 52 commands. Then
the change's code runs those predict and eval commands once more on the
parent's checkpoints (the "cross" run).

Every file a run leaves, and each command's stdout, is hashed with sha256.
The JSON holds each file's hashes per side and per run, the cross run's
hashes of the predict and eval outputs, and one verdict: "identical" when
every hash of the change and of the cross run equals the parent's,
"different" when some do not, "not reproducible" when a side's two runs
differ, and "failed" when a command exits nonzero. One exception: a cross
command that exits 3 where the change's own runs of it exit 0 means the
change refuses the parent's checkpoint (its parameter set changed, say). It
is listed under "cross_refused" with its stderr line, not as a failure, and
the verdict is then "different" at best. With "different", the JSON also
holds the sizes of the differences under "differences", for the
change's first run and for the cross run, each against the parent's first
run: per differing CSV (the loss logs and the eval reports), the largest
relative difference per column; per differing predicted .mqs file, the
largest absolute coordinate difference in mm. The exit status is 0 for
"identical" and "different", 1 otherwise. Make the checkouts sibling clones,
as for tools/bench_pairs.py; only their src/ is used. "checkouts" records
each side as bench_pairs.py does: commit, path, uncommitted files and
src/mqmotion line count.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from bench_pairs import SIDES, describe_checkouts

RUNS = 2
INFER_DIR = "infer"  # where predict and eval write, so the cross run can redo them
CONFIG_FILES = {"critic2.cfg": "critic_steps = 2\n"}
J5_CONFIGS = {
    "default": [],
    "ablate_d": ["--ablate-d"],
    "ablate_e": ["--ablate-e"],
    "ablate_l": ["--ablate-l"],
    "critic2": ["--config", "critic2.cfg"],
    "p05": ["--pm", "0.5", "--pn", "0.5"],
    "p05_ablate_d": ["--pm", "0.5", "--pn", "0.5", "--ablate-d"],
}
J22_CONFIGS = {"default": [], "ablate_l": ["--ablate-l"]}


def _clips(name: str, kind: str, count: int) -> list[str]:
    return [f"clips/{name}/{kind}_{i:03d}.mqs" for i in range(count)]


def _trained(name: str, clips: list[str], flags: list[str]) -> list[list[str]]:
    """Train 2 epochs, then predict one clip and evaluate all of them."""
    ckpt = f"train/{name}.mqck"
    return [
        ["train", *clips, *flags, "--epochs", "2", "--out", ckpt],
        ["predict", clips[0], "--checkpoint", ckpt, "--out", f"{INFER_DIR}/{name}.pred.mqs"],
        ["eval", *clips, "--checkpoint", ckpt, "--out", f"{INFER_DIR}/{name}.csv",
         "--svg", f"{INFER_DIR}/{name}.svg"],
    ]


def _matrix() -> list[list[str]]:
    j5, const, j22 = (_clips("j5", "sinusoid", 3), _clips("const", "constant", 2),
                      _clips("j22", "sinusoid", 2))
    commands = [
        ["synth", "--joints", "5", "--frames", "60", "--count", "3", "--seed", "1",
         "--out", "clips/j5"],
        ["synth", "--kind", "constant", "--joints", "5", "--frames", "60", "--count", "2",
         "--seed", "2", "--out", "clips/const"],
        ["synth", "--joints", "22", "--frames", "60", "--count", "2", "--seed", "3",
         "--out", "clips/j22"],
        ["perturb", *j5, "--seed", "4", "--out", "perturbed"],
    ]
    for name, flags in J5_CONFIGS.items():
        commands += _trained(f"j5_{name}", j5, flags)
        resumed = f"resume/j5_{name}.mqck"
        commands += [["train", *j5, *flags, "--epochs", "1", "--out", resumed],
                     ["train", *j5, *flags, "--epochs", "2", "--resume", resumed,
                      "--out", resumed]]
    # a resume in the middle of an epoch, and one from an epoch that max_steps
    # ended at its last batch (saved open, at batch_index 5): 78 windows make
    # 5 batches of 16
    for steps in (3, 5):
        resumed = f"resume/j5_step{steps}.mqck"
        commands += [["train", *j5, "--max-steps", str(steps), "--out", resumed],
                     ["train", *j5, "--epochs", "2", "--resume", resumed, "--out", resumed]]
    commands += _trained("const_default", const, [])
    for name, flags in J22_CONFIGS.items():
        commands += _trained(f"j22_{name}", j22, flags)
    return commands


MATRIX = _matrix()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _check_import(checkout: Path) -> None:
    """Stop unless a child with checkout's src/ on its path imports that mqmotion."""
    src = checkout / "src"
    proc = subprocess.run([sys.executable, "-c", "import mqmotion; print(mqmotion.__file__)"],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                          text=True, timeout=120)
    where = Path(proc.stdout.strip()).resolve()
    if proc.returncode != 0 or src.resolve() not in where.parents:
        raise SystemExit(f"same_bytes: {checkout} does not provide mqmotion "
                         f"(a child imported {proc.stdout.strip() or proc.stderr.strip()!r})")


def _run_commands(checkout: Path, commands: list[list[str]], work: Path,
                 indices: list[int]) -> tuple[dict, list]:
    """Run commands[i] for each i of indices in work, with checkout's code.

    Returns ({relative path: sha256} over every file under work plus
    "stdout/<i>_<command>" per command, [failures]).
    """
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    hashes, failures = {}, []
    for i in indices:
        argv = commands[i]
        proc = subprocess.run([sys.executable, "-m", "mqmotion.cli", *argv], cwd=work, env=env,
                              capture_output=True, timeout=600)
        hashes[f"stdout/{i:02d}_{argv[0]}"] = _sha256(proc.stdout)
        if proc.returncode != 0:
            failures.append({"command": argv, "exit": proc.returncode,
                             "stderr": proc.stderr.decode(errors="replace")[-400:]})
    for path in sorted(work.rglob("*")):
        if path.is_file():
            hashes[path.relative_to(work).as_posix()] = _sha256(path.read_bytes())
    return hashes, failures


def _csv_columns(path: Path) -> dict[str, list[str]]:
    """A CSV's columns by header name, the first (row label) column left out."""
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    return {name: [row[i] for row in rows] for i, name in enumerate(header) if i > 0}


def _mqs_values(path: Path) -> list[float]:
    """Every coordinate of an .mqs file, frame by frame (its header line left out)."""
    return [float(x) for line in path.read_text().splitlines()[1:] for x in line.split()]


def _relative(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0


def _difference(parent: Path, other: Path) -> dict | str:
    """How far other's copy of a CSV or predicted .mqs file is from parent's;
    a string when the two hold different shapes."""
    if parent.suffix == ".csv":
        cols, other_cols = _csv_columns(parent), _csv_columns(other)
        if {k: len(v) for k, v in cols.items()} != {k: len(v) for k, v in other_cols.items()}:
            return "columns or rows differ"
        return {"max_relative": {name: max((_relative(float(a), float(b))
                                            for a, b in zip(col, other_cols[name])), default=0.0)
                                 for name, col in cols.items()}}
    values, other_values = _mqs_values(parent), _mqs_values(other)
    if len(values) != len(other_values):
        return "frame counts differ"
    return {"max_abs_mm": max((abs(a - b) for a, b in zip(values, other_values)), default=0.0)}


def differences(parent: Path, other: Path, paths: list[str]) -> dict:
    """_difference for each of paths, relative to the work directories parent
    and other, that is a CSV or a predicted .mqs file in both."""
    return {path: _difference(parent / path, other / path) for path in paths
            if path.endswith((".csv", ".pred.mqs"))
            and (parent / path).is_file() and (other / path).is_file()}


def compare(checkouts: dict[str, Path], commands: list[list[str]], workroot: Path) -> dict:
    """Run commands RUNS times per side and once across; the report main writes."""
    for checkout in checkouts.values():
        _check_import(checkout)
    everything = list(range(len(commands)))

    def job(side: str, run: int) -> tuple[dict, list]:
        work = workroot / f"{side}-{run}"
        work.mkdir(parents=True)
        for name, text in CONFIG_FILES.items():
            (work / name).write_text(text)
        return _run_commands(checkouts[side], commands, work, everything)

    jobs = [(side, run) for side in SIDES for run in range(1, RUNS + 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:  # two runs at a time, each in order
        futures = {key: pool.submit(job, *key) for key in jobs}
        results = {key: f.result() for key, f in futures.items()}

    # the change's predict and eval on a copy of the parent's first run, minus
    # those commands' own outputs
    cross_work = workroot / "cross"
    shutil.copytree(workroot / "parent-1", cross_work)
    shutil.rmtree(cross_work / INFER_DIR, ignore_errors=True)
    infer = [i for i in everything if commands[i][0] in ("predict", "eval")]
    cross, cross_failures = _run_commands(checkouts["change"], commands, cross_work, infer)
    cross = {k: v for k, v in cross.items()
             if k.startswith(f"{INFER_DIR}/") or k.startswith("stdout/")}

    files = {}
    for (side, run), (hashes, _) in results.items():
        for path, digest in hashes.items():
            files.setdefault(path, {s: [None] * RUNS for s in SIDES})[side][run - 1] = digest
    for path, digest in cross.items():
        files.setdefault(path, {s: [None] * RUNS for s in SIDES})["cross"] = digest

    own_failures = [f["command"] for (side, _), (_, fs) in results.items()
                    if side == "change" for f in fs]
    refused = [f for f in cross_failures if f["exit"] == 3 and f["command"] not in own_failures]
    failures = [{"side": side, "run": run, **f} for (side, run), (_, fs) in results.items()
                for f in fs] + [{"side": "cross", **f} for f in cross_failures
                                if f not in refused]
    reproducible = {s: all(len(set(h[s])) == 1 for h in files.values()) for s in SIDES}
    differing = sorted(path for path, h in files.items()
                       if h["change"] != h["parent"]
                       or "cross" in h and h["cross"] != h["parent"][0])
    if failures:
        verdict = "failed"
    elif not all(reproducible.values()):
        verdict = "not reproducible"
    else:
        verdict = "different" if differing or refused else "identical"
    report = {"checkouts": describe_checkouts(checkouts), "commands": commands,
              "files_compared": len(files), "verdict": verdict, "reproducible": reproducible,
              "differing": differing, "failures": failures,
              "cross_refused": [{"command": f["command"], "stderr": f["stderr"].strip()}
                                for f in refused],
              "files": files}
    if verdict == "different":
        parent = workroot / "parent-1"
        report["differences"] = {
            "change": differences(parent, workroot / "change-1", differing),
            "cross": differences(parent, cross_work,
                                 [p for p in differing if p.startswith(f"{INFER_DIR}/")]),
        }
    return report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="change checkout")
    ap.add_argument("--out", type=Path, required=True, help="JSON report path")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
        report = compare(checkouts, MATRIX, Path(tmp))
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"{report['verdict']}: {report['files_compared']} files, "
          f"{len(report['differing'])} differing, {len(report['failures'])} failed commands, "
          f"{len(report['cross_refused'])} refused across")
    return 0 if report["verdict"] in ("identical", "different") else 1


if __name__ == "__main__":
    sys.exit(main())
