"""On-demand scaling sweep: low-rank against full attention, by token count.

    python3 perfbench/sweep.py

Times one backbone forward plus backward (loss = mean squared activation,
gradients for every generator parameter) for the low-rank gated attention
and for full attention (`use_lowrank=False`), over joints J in {5, 22, 64}
and observed frames in {10, 50}, BATCH windows per call, median of
REPEATS calls after a warm-up; tokens per sample = J * (frames - 1).
Each configuration runs in its own process, so its peak RSS is its own.
It then fits time ~ tokens^k per variant and reports where the two fitted
curves cross, if they do, which tests the O(tokens * r) aggregation claim
for the low-rank form. Not a benchmark workload: it prints a JSON summary
and writes nothing.
"""
import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
JOINTS = (5, 22, 64)
FRAMES = (10, 50)
BATCH = 2    # windows per call; J=64 T=50 full attention peaks at ~1.4 GB
REPEATS = 3


def time_one(joints: int, frames: int, lowrank: bool) -> dict:
    """Median ms of backbone forward + backward for one configuration."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from mqmotion import autodiff as ad
    from mqmotion import network as net
    from mqmotion.train import TrainConfig

    cfg = TrainConfig(obs_frames=frames, use_lowrank=lowrank)
    params = net.ModelParams.init(cfg.model_dims(joints), seed=0)
    rng = np.random.default_rng(0)
    obs = 100.0 * rng.normal(size=(BATCH, frames, joints, 3))
    feats, _ = net.build_features(obs, 0, cfg.use_quotient, cfg.input_gain)
    names = params.generator_names
    samples = []
    for _ in range(REPEATS + 1):  # the first call warms up and is dropped
        t0 = time.perf_counter()
        act = net.forward_backbone(feats, None, params)
        loss = ad.tmean(ad.mul(act, act))
        grads = net.parameter_gradients(loss, params, names)
        samples.append(time.perf_counter() - t0)
        if not np.isfinite(grads).all():
            raise SystemExit("non-finite gradient")
        del act, loss, grads
    return {
        "joints": joints, "frames": frames, "lowrank": lowrank,
        "tokens": joints * (frames - 1), "ms": 1000.0 * float(np.median(samples[1:])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def fit(points: list[dict]) -> tuple[float, float]:
    """Least-squares (log a, k) of ms = a * tokens^k."""
    import numpy as np

    x = np.log([p["tokens"] for p in points])
    y = np.log([p["ms"] for p in points])
    k, log_a = np.polyfit(x, y, 1)
    return float(log_a), float(k)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--one", nargs=3, type=int, metavar=("J", "FRAMES", "LOWRANK"),
                    help="internal: time one configuration and print it as JSON")
    args = ap.parse_args()
    if args.one:
        j, f, lowrank = args.one
        print(json.dumps(time_one(j, f, bool(lowrank))))
        return 0

    points = []
    for j in JOINTS:
        for f in FRAMES:
            for lowrank in (1, 0):
                proc = subprocess.run(
                    [sys.executable, __file__, "--one", str(j), str(f), str(lowrank)],
                    capture_output=True, text=True, timeout=1800, check=True)
                points.append(json.loads(proc.stdout.strip().splitlines()[-1]))
                print(json.dumps(points[-1]), file=sys.stderr, flush=True)
    low = [p for p in points if p["lowrank"]]
    full = [p for p in points if not p["lowrank"]]
    (a_low, k_low), (a_full, k_full) = fit(low), fit(full)
    cross = None
    if k_low != k_full:
        cross = math.exp((a_full - a_low) / (k_low - k_full))
    summary = {
        "batch": BATCH,
        "points": points,
        "exponent_lowrank": k_low,
        "exponent_full": k_full,
        "fitted_crossing_tokens": cross,
        "lowrank_faster_at": [(p["joints"], p["frames"]) for p, q in zip(low, full)
                              if p["ms"] < q["ms"]],
    }
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
