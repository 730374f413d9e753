"""End-to-end and per-layer benchmark of mqmotion.

    python3 perfbench/run.py --workload train_small --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
./src, so the code measured is the code in the checkout. Workloads:

    train_small  default TrainConfig on 3 sinusoid clips of 5 joints
    train_h36m   the same config on H3.6M-shaped clips: 22 joints,
                 10 observed + 25 future frames at 25 fps, 264 windows
    infer_h36m   timed evaluate, single-window predictor calls and cold
                 `mqmotion predict` processes on a checkpoint trained on
                 the train_h36m data during set-up

Training runs in two child processes of this script: the training process
runs the workload's fixed number of cycles and saves the checkpoint, and a
check process runs one more cycle, whose `l_pred_final` must equal the
first's bit for bit. This process then times inference on the checkpoint:
for the rest of --seconds after training on the train workloads, for all
of --seconds on infer_h36m, where training belongs to set-up. So every
workload reports every end-to-end metric. `peak_rss_mb` is the training
process's peak on the train workloads and this process's on infer_h36m.

With --trace 0 the last stdout line is a JSON object whose metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones, taken from
spans recorded around the package's public functions (see tracing.py),
and the spans are written to .perfbench/. A failed correctness check is
counted in "failed" and makes the exit code 1. BLAS is pinned to one
thread here and in every child process.
"""
import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train_small", "train_h36m", "infer_h36m")
TRAIN_ROLES = ("main", "check")  # the training process, then the check process
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "train_steps_per_s": "steps/s",
    "l_pred_final": "mm2",
    "eval_windows_per_s": "windows/s",
    "eval_mpjpe_mm": "mm",
    "predict_ms_p50": "ms",
    "predict_ms_p90": "ms",
    "cli_predict_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "autodiff.gen_graph_nodes": "count",
    "autodiff.critic_graph_nodes": "count",
    "autodiff.backward_gen_ms": "ms",
    "autodiff.backward_critic_ms": "ms",
    "autodiff.grad_calls_per_step": "count",
    "network.backbone_fwd_ms": "ms",
    "network.backbone_nograd_ms": "ms",
    "network.backbone_calls_per_step": "count",
    "network.spatial_ms": "ms",
    "network.temporal_ms": "ms",
    "network.embed_ms": "ms",
    "network.heads_ms": "ms",
    "network.backbone_self_ms": "ms",
    "network.critic_fwd_ms": "ms",
    "network.build_features_ms": "ms",
    "losses.gradient_penalty_ms": "ms",
    "losses.adversarial_ms": "ms",
    "perturb.build_batch_ms": "ms",
    "train.critic_update_ms": "ms",
    "train.generator_update_ms": "ms",
    "train.adam_ms": "ms",
    "train.prepare_ms": "ms",
    "train.checkpoint_save_ms": "ms",
    "train.checkpoint_load_ms": "ms",
    "train.checkpoint_bytes": "bytes",
    "train.aborted_steps": "count",
    "evaluate.self_ms": "ms",
    "evaluate.mpjpe_calls_per_window": "count",
    "kernels.adam_update_ms": "ms",
    "kernels.quotient_channels_ms": "ms",
    "dataio.read_mqs_ms": "ms",
    "dataio.make_windows_ms": "ms",
    "cli.import_ms": "ms",
    "cli.predict_inproc_ms": "ms",
    "runtime.gc_ms_per_step": "ms",
    "runtime.gc_collections_per_step": "count",
    "trace.step_time_ratio": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="timed run length")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("normal", "tiny"), default="normal",
                    help="tiny: a few windows per workload, for the smoke test")
    ap.add_argument("--train", choices=TRAIN_ROLES,
                    help="internal: run as the training or the check process")
    ap.add_argument("--workdir", type=Path, help="internal: where --train writes")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if (args.train is None) != (args.workdir is None):
        ap.error("--train and --workdir go together")
    return args


def import_package() -> None:
    """Import numpy and mqmotion from ./src, then the benchmark's modules."""
    if not (ROOT / "src" / "mqmotion" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mqmotion sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import mqmotion

    if Path(mqmotion.__file__).resolve().parent != (ROOT / "src" / "mqmotion").resolve():
        sys.exit(f"perfbench: imported mqmotion from {mqmotion.__file__}, not from ./src")
    import tracing  # noqa: F401  (imports the remaining package modules)
    import workloads  # noqa: F401


def fingerprint() -> dict:
    import numpy
    from mqmotion import _kernels

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "has_numba": _kernels.HAS_NUMBA,
        "use_numba": _kernels.USE_NUMBA,
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read from .git directly."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[len("ref: "):]
    return target.read_text().strip() if target.is_file() else ref


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(xs) -> float | None:
    import numpy as np

    return float(np.median(xs)) if xs else None


def end_to_end(session, setup_s, mpjpe: float, peak_mb: float) -> dict:
    """End-to-end metrics from the session's samples in reference seconds."""
    import numpy as np

    import workloads as wl

    def ms(kind, q):
        xs = session.ref.get(kind)
        return 1000.0 * float(np.percentile(xs, q)) if xs else None

    for kind, xs in sorted(session.wall.items()):
        print(f"samples {kind:12s} n={len(xs):4d} wall median {1000 * np.median(xs):9.3f} ms"
              f"  reference median {ms(kind, 50):9.3f} ms")
    # throughput over every timed step, not the median step: which steps
    # page in fresh memory or run a full collection is fixed by the step
    # count, and their cost is part of training
    steps = session.ref.get("step")
    eval_ms = ms("eval", 50)
    return {
        "setup_s": setup_s,
        "train_steps_per_s": len(steps) / sum(steps) if steps else None,
        "l_pred_final": session.l_pred_final,
        "eval_windows_per_s": 1000.0 * wl.EVAL_BATCH / eval_ms if eval_ms else None,
        "eval_mpjpe_mm": mpjpe,
        "predict_ms_p50": ms("predict", 50),
        "predict_ms_p90": ms("predict", 90),
        "cli_predict_ms_p50": ms("cli", 50),
        "peak_rss_mb": peak_mb,
    }


def train_process(args, spec) -> int:
    """Child process: the training process (the workload's cycles, then the
    checkpoint) or the check process (one cycle); its result as JSON."""
    import workloads as wl
    from tracing import Tracer, layer_metrics

    main = args.train == "main"
    tracer = Tracer() if args.trace and main else None  # the check process is untraced
    data = wl.make_dataset(spec, args.seed)
    session = wl.Session(spec, data, args.workdir, wl.child_env(ROOT), tracer)
    session.run_cycles(spec.cycles if main else 1)
    out = {"peak_rss_mb": peak_rss_mb()}  # of training, before the saves
    if main:
        session.save_checkpoint()
    session.scale_samples(wl.TRAIN_PROBE_WINDOW)
    tally = session.tally
    out.update({"l_pred_final": session.l_pred_final, "wall": session.wall,
                "ref": session.ref, "attempted": tally.attempted, "failed": tally.failed,
                "aborted_steps": tally.aborted_steps, "errors": tally.errors})
    if tracer:
        out["layers"] = layer_metrics(tracer, windows_per_eval=wl.EVAL_BATCH)
        tracer.dump(spans_path(args, "-train"), {"env": fingerprint()})
    (args.workdir / f"{args.train}.json").write_text(json.dumps(out))
    return 0


def spans_path(args, suffix="") -> Path:
    return ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}{suffix}.json"


def train_children(args, workdir: Path, env: dict) -> list[dict]:
    """Run the training process, then the check process; their results."""
    results = []
    for role in TRAIN_ROLES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scale", args.scale,
             "--train", role, "--workdir", str(workdir)],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            sys.exit(f"perfbench: the {role} training process failed:\n{proc.stderr}")
        results.append(json.loads((workdir / f"{role}.json").read_text()))
    return results


def absorb_training(session, results: list[dict]) -> None:
    """Add the training processes' samples and tallies to the session, and
    check that the two processes trained to the same `l_pred_final`."""
    tally = session.tally
    for r in results:
        tally.attempted += r["attempted"]
        tally.failed += r["failed"]
        tally.aborted_steps += r["aborted_steps"]
        tally.errors += r["errors"]
        for kind, xs in r["wall"].items():
            session.wall.setdefault(kind, []).extend(xs)
        for kind, xs in r["ref"].items():
            session.ref.setdefault(kind, []).extend(xs)
    main, check = (r["l_pred_final"] for r in results)
    tally.attempted += 1
    if main is None or main != check:
        tally.fail(f"l_pred_final differs between two training processes: {main!r} != {check!r}")
    session.l_pred_final = main


def run(args, spec, workdir: Path) -> tuple[dict, object]:
    """One workload run; returns (metrics, tally)."""
    import numpy as np

    import workloads as wl
    from tracing import Tracer, layer_metrics, self_time_table

    tracer = Tracer() if args.trace else None
    env = wl.child_env(ROOT)
    # set-up, each part repeated and its median taken, in reference seconds
    import_s, import_wall = wl.timed_cold_imports(env)
    with tracer.installed() if tracer else contextlib.nullcontext():
        data_s, data = wl.timed_setup(spec, args.seed)
    t0 = time.perf_counter()
    results = train_children(args, workdir, env)
    train_s = time.perf_counter() - t0
    session = wl.Session(spec, data, workdir, env, tracer)
    absorb_training(session, results)
    setup_s = import_s + data_s
    if spec.inference_only:  # the checkpoint is one cycle's training and a save
        cycle_s, save_s = median(session.ref.get("cycle")), median(session.ref.get("save"))
        setup_s = setup_s + cycle_s + save_s if cycle_s and save_s else None
        seconds = args.seconds
    else:
        seconds = args.seconds - train_s
    session.prepare_inference()
    session.timed_run(seconds)
    session.scale_samples(window=0)
    mpjpe = session.check_mpjpe()

    if not args.trace:
        peak_mb = peak_rss_mb() if spec.inference_only else results[0]["peak_rss_mb"]
        return end_to_end(session, setup_s, mpjpe, peak_mb), session.tally

    session.check_inproc_cli()
    layers = layer_metrics(tracer, windows_per_eval=wl.EVAL_BATCH)
    # training layers come from the training process
    layers = {k: v if v is not None else results[0]["layers"].get(k) for k, v in layers.items()}
    # tracing overhead: the traced training process's first cycle against the
    # untraced check process's only one, the same steps of a fresh process
    plain, traced = session.ref.get("step"), session.ref.get("step_traced")
    traced = traced[:len(plain)] if plain and traced else None
    layers["cli.import_ms"] = 1000.0 * median(import_wall)
    layers["train.checkpoint_bytes"] = session.ckpt.stat().st_size
    layers["train.aborted_steps"] = session.tally.aborted_steps
    layers["trace.step_time_ratio"] = (
        float(np.median(traced) / np.median(plain)) if plain and traced else None)
    print(self_time_table(tracer))
    print(f"tracing overhead: traced/untraced step time = {layers['trace.step_time_ratio']}")
    tracer.dump(spans_path(args), {"env": fingerprint(), "workload": args.workload,
                                    "seed": args.seed})
    return layers, session.tally


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads as wl

    spec = wl.SPECS[args.scale][args.workload]
    if args.train is not None:
        return train_process(args, spec)

    print("env " + json.dumps(fingerprint(), sort_keys=True))
    workdir = ROOT / ".perfbench" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        values, tally = run(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        if value is None or value != value:  # missing or NaN
            tally.fail(f"metric {name} was not measured")
            value = 0.0
        metrics[name] = {"value": float(value), "unit": unit}
    error_rate = tally.failed / max(tally.attempted, 1)
    print(f"error_rate={error_rate} failed={tally.failed} attempted={tally.attempted}")
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": max(tally.attempted, 1),
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
