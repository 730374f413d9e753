"""On-demand held-out yardstick: the full model against its three ablations.

    python3 tools/heldout.py > heldout.json

Trains the full model and the --ablate-d (no quotient encoding), --ablate-e
(no mask and noise side tasks) and --ablate-l (full-rank attention)
variants, each for STEPS steps at the default config, once per training
seed 0 .. SEEDS - 1. Training seed s seeds the model and draws its 5-joint
sinusoid clips from seeds CLIPS * s .. CLIPS * s + CLIPS - 1. Each trained
model is then evaluated at the default horizons on two held-out sets:
sinusoid clips from a disjoint seed range (other offsets, phases and
direction weights) and random_walk clips. Prints one JSON document: per
variant, set and horizon, the median and quartiles of the per-seed MPJPE in
mm, and each ablation's relative change of the median against the full
model's. STEPS and SEEDS are fixed, so every recorded output is comparable
with every other.

Not a Tier-1 test and not a benchmark workload: it takes several minutes
(SEEDS x 4 x STEPS training steps). Run it from a checkout's root or from
anywhere; it imports the mqmotion beside it. Trainer and make_predictor pin
numpy's OpenBLAS to one thread, so the output does not depend on the host's
core count.
"""
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mqmotion import train as tr  # noqa: E402
from mqmotion.core import DEFAULT_HORIZONS_MS  # noqa: E402
from mqmotion.dataio import make_windows, synth_generate  # noqa: E402
from mqmotion.evaluate import evaluate  # noqa: E402

STEPS = 150
SEEDS = 5
JOINTS = 5
FRAMES = 60
FPS = 25.0
BASE_PERIOD_S = 2.4  # as the acceptance smoke set: no horizon is a full cycle
CLIPS = 3            # training clips per seed
HELDOUT = {"sinusoid": range(10_000, 10_010), "random_walk": range(20_000, 20_010)}
VARIANTS = {
    "full": {},
    "ablate_d": {"use_quotient": False},
    "ablate_e": {"use_perturbation": False},
    "ablate_l": {"use_lowrank": False},
}


def windows(kind: str, seeds, cfg: tr.TrainConfig, stride: int):
    seqs = [synth_generate(kind, joints=JOINTS, frames=FRAMES, fps=FPS, seed=s,
                           base_period_s=BASE_PERIOD_S) for s in seeds]
    return make_windows(seqs, n_observed=cfg.obs_frames, n_future=cfg.future_frames,
                        stride=stride)


def heldout_mpjpe(variant: dict, seed: int) -> dict:
    """{set: {horizon ms: MPJPE}} of one variant trained with one seed."""
    cfg = tr.TrainConfig(epochs=10**6, max_steps=STEPS, seed=seed, **variant)
    trainer = tr.Trainer(windows("sinusoid", range(CLIPS * seed, CLIPS * (seed + 1)), cfg, 1),
                         cfg)
    trainer.run()
    predictor = tr.make_predictor(trainer.params, cfg.use_quotient, cfg.input_gain,
                                  trainer.root_index)
    return {kind: evaluate(predictor, windows(kind, seeds, cfg, 5)).overall
            for kind, seeds in HELDOUT.items()}


def spread(xs: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def main() -> None:
    t0 = time.perf_counter()
    per_seed = {name: [] for name in VARIANTS}
    for seed in range(SEEDS):
        for name, variant in VARIANTS.items():
            per_seed[name].append(heldout_mpjpe(variant, seed))
            print(f"seed {seed} {name} done at {time.perf_counter() - t0:.0f}s",
                  file=sys.stderr)
    summary = {name: {kind: {str(ms): spread([run[kind][ms] for run in runs])
                             for ms in DEFAULT_HORIZONS_MS}
                      for kind in HELDOUT}
               for name, runs in per_seed.items()}
    full = summary["full"]
    relative = {name: {kind: {ms: s["median"] / full[kind][ms]["median"] - 1.0
                              for ms, s in by_ms.items()}
                       for kind, by_ms in summary[name].items()}
                for name in VARIANTS if name != "full"}
    print(json.dumps({
        "steps": STEPS, "seeds": SEEDS, "joints": JOINTS,
        "train_clip_seeds": f"{CLIPS} per seed s: {CLIPS}s .. {CLIPS}s+{CLIPS - 1}",
        "heldout_clip_seeds": {k: [r.start, r.stop - 1] for k, r in HELDOUT.items()},
        "mpjpe_mm": summary, "relative_change_of_median": relative,
        "seconds": round(time.perf_counter() - t0, 1),
    }, indent=1))


if __name__ == "__main__":
    main()
