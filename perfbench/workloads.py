"""The benchmark's workloads: inputs, timed operations and correctness checks.

Every workload is a closed loop with a single caller. Inputs come from the
benchmark seed only: it picks the motion of each synthetic clip. All clips
share one fixed rest pose and the model always starts from the same
initialisation, so the deterministic outputs (`l_pred_final`,
`eval_mpjpe_mm`) move only a little from seed to seed while the clips
differ.

Training runs in processes of its own (see run.py): a training process
that runs a fixed number of cycles and saves the checkpoint, then a check
process that runs one more. A cycle is a fresh `Trainer` driven through
the public `Trainer.run` one step at a time (raising `max_steps` by one per
call), so each step is timed on its own. Every cycle starts from the same
seed and config, so its final prediction loss must repeat bit for bit, in
the same process and across the two: that is the determinism check, and
that loss is `l_pred_final`. Training never forces a collection: the
cyclic autodiff graphs it leaves pile up until the collector's own full
collections, as in any real training run, so their cost lands in the step
times and in the training process's peak memory. Both depend on how many
steps the process has run, which is why that number is fixed per workload.

The inference operations (evaluate calls, batches of single-window
predicts, cold CLI runs) run in the benchmark process itself, each from a
collected heap, interleaved by `schedule`, which gives each kind its share
of the timed run. A burst of load from outside the benchmark then hits a
few samples of every kind instead of all the samples of one, and the
medians stay put.

A shared host can switch between a fast and a ~1.5x slower state for
seconds to minutes at a time (seen on a 2-vCPU VM), which moves every
wall-clock median by far more than any bound worth having. So before each
timed operation, and between training steps, a fixed probe
(interpreter-bound small-array steps plus a pass over a large array, the
package's mix) is timed, and each sample is reported in reference
seconds: wall seconds * PROBE_REF_S / a probe time, i.e. the time the
operation takes on a machine where the probe takes 6 ms. For an inference
operation (~5-700 ms) that is the mean of the probes just before and
after it: host jitter at that scale hits both alike. In a training
process, whose heap churns gigabytes, back-to-back probes differ by up to
2x, far more than a host state moves a 1 s step, so a step is scaled by
the median of the ~20 probes nearest it. The package does not run during
the probe, so a change to the package moves the wall time and hardly the
scale. Raw wall-clock medians are printed next to the reported values.
"""
from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mqmotion import cli, dataio, evaluate as ev, streams, train
from mqmotion.core import DEFAULT_HORIZONS_MS, MotionSequence, Skeleton
from mqmotion.errors import AbortStep, MotionError

FPS = 25.0
N_OBSERVED = 10
N_FUTURE = 25
REST_POSE_SEED = 0   # every clip moves around this one skeleton shape
TRAIN_SEED = 0       # model init, shuffling and corruption draws
EVAL_BATCH = 64      # evaluate()'s default batch size
PREDICTS_PER_OP = 20
IMPORT_REPEATS = 5   # cold imports timed in set-up
SAVE_REPEATS = 3     # checkpoint saves timed after training
CLI_TIMEOUT_S = 60
CLI_MAIN = "import sys; from mqmotion.cli import main; sys.exit(main())"
PROBE_REF_S = 6e-3
TRAIN_PROBE_WINDOW = 10  # a training sample's scale: median of the 2 * 10 + 2 probes nearest it
_PROBE_SMALL = np.linspace(0.0, 1.0, 4096)
_PROBE_LARGE = np.linspace(0.0, 1.0, 3 * 64 * 22 * 32)  # ~1 MB, a J=22 activation


def probe() -> float:
    """Seconds a fixed piece of work takes now: about equal parts
    interpreter-bound small-array steps and passes over a large array, like
    the package's mix of tiny and batch-sized ops. It runs for ~6 ms and
    its total counts, so short stalls weigh in as they do on the package."""
    t0 = time.perf_counter()
    for _ in range(2):
        x, acc = _PROBE_SMALL, 0.0
        for k in range(300):
            x = x * 0.5 + 0.25
            acc += k * 0.5
        np.tanh(_PROBE_LARGE * 0.5)
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Spec:
    """Input size and training length of one workload."""

    joints: int
    kinds: tuple[str, ...]   # one synthetic clip per entry
    frames: int
    cycle_steps: int         # training steps per cycle
    cycles: int              # cycles of the training process (the check process runs one)
    inference_only: bool = False  # training is set-up; the timed run is all inference
    setup_repeats: int = 5


# share of the timed inference run per operation kind
INFER_SHARES = {"eval": 0.45, "predict": 0.2, "cli": 0.35}
_H36M_KINDS = ("sinusoid", "random_walk", "sinusoid", "random_walk")

SPECS = {
    "normal": {
        # 3 clips x 60 frames, stride 1: 78 windows of J=5 (~720 tokens a
        # batch); 40 steps take the training process past its third full
        # collection
        "train_small": Spec(5, ("sinusoid",) * 3, 60, 8, 5),
        # 4 clips x 100 frames: 264 windows of J=22, 10 observed + 25 future;
        # 12 steps take the training process past its first full collection
        "train_h36m": Spec(22, _H36M_KINDS, 100, 4, 3),
        "infer_h36m": Spec(22, _H36M_KINDS, 100, 4, 3, inference_only=True),
    },
    # A few windows per workload, for the smoke test of the benchmark itself.
    "tiny": {
        "train_small": Spec(5, ("sinusoid",) * 2, 40, 2, 2, setup_repeats=2),
        "train_h36m": Spec(22, _H36M_KINDS[:2], 40, 2, 2, setup_repeats=2),
        "infer_h36m": Spec(22, _H36M_KINDS[:2], 40, 2, 2, inference_only=True,
                           setup_repeats=2),
    },
}


@dataclass
class Tally:
    """Attempted and failed operations: steps, eval batches, predicts, CLI runs."""

    attempted: int = 0
    failed: int = 0
    aborted_steps: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        if len(self.errors) < 20:
            self.errors.append(what)
        print(f"perfbench: FAILED {what}", file=sys.stderr)


class Untraced:
    """Stands in for a Tracer when tracing is off: phases and wraps are no-ops."""

    def in_phase(self, phase):
        return contextlib.nullcontext()

    def installed(self):
        return contextlib.nullcontext()

    def wrap(self, fn, name, attrs_fn=None):
        return fn


# inputs

def make_clips(spec: Spec, seed: int) -> list[MotionSequence]:
    """Synthetic clips: seeded motion around one fixed rest pose, in mm."""
    rest = dataio.synth_generate("constant", spec.joints, 1, FPS, REST_POSE_SEED).frames[0]
    clips = []
    for i, kind in enumerate(spec.kinds):
        # random-walk steps stay small so 100 frames drift ~20 mm, like a limb
        amplitude = 10.0 if kind == "sinusoid" else 2.0
        motion = dataio.synth_generate(
            kind, spec.joints, spec.frames, FPS, streams.derive_seed(seed, streams.SYNTH, i),
            amplitude=amplitude, offset_scale=0.0,
        )
        clips.append(motion.with_frames(motion.frames + rest))
    return clips


def make_dataset(spec: Spec, seed: int):
    return dataio.make_windows(make_clips(spec, seed), N_OBSERVED, N_FUTURE, stride=1)


def train_config(steps: int) -> train.TrainConfig:
    return train.TrainConfig(seed=TRAIN_SEED, obs_frames=N_OBSERVED,
                             future_frames=N_FUTURE, max_steps=steps)


def timed_repeats(fn, repeats: int) -> tuple[list[float], list[float]]:
    """Call `fn` `repeats` times: reference and wall seconds of each call,
    scaled by the median of the probes between the calls."""
    wall, probes = [], [probe()]
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        wall.append(time.perf_counter() - t0)
        probes.append(probe())
    scale = PROBE_REF_S / float(np.median(probes))
    return [w * scale for w in wall], wall


def timed_setup(spec: Spec, seed: int) -> tuple[float, object]:
    """Median reference seconds of data synthesis + make_windows + Trainer init."""
    made = []

    def once():
        made.append(make_dataset(spec, seed))
        train.Trainer(made[-1], train_config(1))

    ref, _ = timed_repeats(once, spec.setup_repeats)
    return float(np.median(ref)), made[-1]


def timed_cold_imports(env: dict) -> tuple[float, list[float]]:
    """A fresh interpreter running `import mqmotion.cli`, which imports numpy
    and the whole package: median reference seconds, and the wall seconds."""
    def once():
        proc = subprocess.run([sys.executable, "-c", "import mqmotion.cli"], env=env,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            sys.exit(f"perfbench: import mqmotion.cli failed:\n{proc.stderr}")

    ref, wall = timed_repeats(once, IMPORT_REPEATS)
    return float(np.median(ref)), wall


def schedule(ops: dict, shares: dict, minimums: dict, seconds: float, before_each) -> None:
    """Interleave operations until `seconds` have passed and every minimum is met.

    Next is always the kind furthest below its share of the time spent, so
    each kind gets its share of the run and its samples spread over all of it.
    """
    spent = dict.fromkeys(ops, 0.0)
    count = dict.fromkeys(ops, 0)
    end = time.perf_counter() + seconds
    while True:
        pending = [k for k in ops if count[k] < minimums.get(k, 1)]
        if not pending and time.perf_counter() >= end:
            return
        kind = min(pending or ops, key=lambda k: spent[k] / shares[k])
        before_each()
        t0 = time.perf_counter()
        ops[kind]()
        spent[kind] += time.perf_counter() - t0
        count[kind] += 1


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_overall_mpjpe(predictor, data, horizons_ms) -> dict[int, float]:
    """Overall MPJPE per horizon, recomputed here with plain numpy."""
    obs = np.stack([w.observed for w in data.windows])
    fut = np.stack([w.future for w in data.windows])
    pred = np.concatenate([predictor(obs[i:i + EVAL_BATCH])
                           for i in range(0, len(obs), EVAL_BATCH)])
    root = data.skeleton.root_index
    out = {}
    for ms in horizons_ms:
        k = int(round(ms * data.fps / 1000.0)) - 1  # 1-based frame -> index
        p = pred[:, k] - pred[:, k, root:root + 1]
        t = fut[:, k] - fut[:, k, root:root + 1]
        out[ms] = float(np.sqrt(((p - t) ** 2).sum(axis=-1)).mean())
    return out


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


class Session:
    """One process's share of a run: its inputs, timed operations, their
    samples and checks. A training process uses the training half, the
    benchmark process the inference half.

    With a tracer, every training step and inference operation is traced;
    traced steps are kept apart as "step_traced".
    """

    def __init__(self, spec: Spec, data, workdir: Path, env: dict, tracer=None):
        self.spec = spec
        self.data = data
        self.workdir = workdir
        self.env = env
        self.tracer = tracer
        self.scope = tracer or Untraced()
        self.tally = Tally()
        self.ckpt = workdir / "model.mqck"
        # timed samples per kind ("trainer_init", "step_warmup", "step",
        # "step_traced", "cycle", "save", "eval", "predict", "cli"): wall
        # seconds, and in reference seconds
        self.wall: dict[str, list[float]] = {}
        self.ref: dict[str, list[float]] = {}
        self._probes = [probe()]
        # samples not yet in self.ref: kind, wall seconds, probes taken before it
        self._unscaled: list[tuple[str, float, int]] = []
        # training
        self.l_pred_final: float | None = None
        self.trainer = None
        self.trained = None  # the trainer of the last completed cycle
        self._cycle = 0
        self._cycle_step = 0
        # inference
        self._predict_i = 0

    def before_op(self) -> None:
        """Start a timed inference operation from a collected heap and a fresh
        probe, so garbage one operation leaves is not paid for by whichever
        operation the schedule happened to pick next."""
        gc.collect()
        self.reprobe()

    def reprobe(self) -> None:
        self._probes.append(probe())

    def record(self, kind: str, seconds: float) -> None:
        self.wall.setdefault(kind, []).append(seconds)
        self._unscaled.append((kind, seconds, len(self._probes)))

    def scale_samples(self, window: int) -> None:
        """Add every sample recorded so far to self.ref, in reference seconds,
        each scaled by the median of the 2 * window + 2 probes nearest it."""
        self.reprobe()
        for kind, seconds, before in self._unscaled:
            near = self._probes[max(0, before - 1 - window):before + 1 + window]
            self.ref.setdefault(kind, []).append(seconds * PROBE_REF_S / float(np.median(near)))
        self._unscaled.clear()

    # training

    def train_cycle(self) -> None:
        """One training cycle: a fresh Trainer, `cycle_steps` steps. A cycle
        that completes is a "cycle" sample too: its Trainer init and steps."""
        self.reprobe()
        first, failed = len(self._unscaled), self.tally.failed
        t0 = time.perf_counter()
        self.trainer = train.Trainer(self.data, train_config(1))
        self.record("trainer_init", time.perf_counter() - t0)
        self._cycle_step = 0
        while self.trainer is not None:
            self.train_step()
            self.reprobe()
        if self.tally.failed == failed:
            self.record("cycle", sum(seconds for _, seconds, _ in self._unscaled[first:]))

    def train_step(self) -> None:
        """One step of the open cycle; closes the cycle after its last step."""
        traced = self.tracer is not None
        i = self._cycle_step
        self.trainer.cfg = dataclasses.replace(self.trainer.cfg, max_steps=i + 1)
        self.tally.attempted += 1
        with self.tracer.installed() if traced else contextlib.nullcontext(), \
                self.scope.in_phase("train"):
            t0 = time.perf_counter()
            try:
                result = self.trainer.run()
            except AbortStep as exc:
                self.tally.aborted_steps += 1
                return self._end_cycle(f"training step {i} aborted: {exc}")
            except Exception as exc:  # counted; the cycle is abandoned
                return self._end_cycle(f"training step {i} raised {type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - t0
        # the first step of a process warms caches and lazy set-up; it is
        # kept apart from the timed steps
        self.record("step_warmup" if self._cycle == 0 and i == 0 else
                    "step_traced" if traced else "step", elapsed)
        report = result.reports[-1][1] if len(result.reports) == 1 else None
        if report is None or not all(math.isfinite(getattr(report, f)) for f in report.FIELDS):
            return self._end_cycle(f"training step {i} reported {result.reports!r}")
        self._cycle_step += 1
        if self._cycle_step < self.spec.cycle_steps:
            return None
        if not np.isfinite(self.trainer.params.flat()).all():
            return self._end_cycle("non-finite parameters after a training cycle")
        if self.l_pred_final is None:
            self.l_pred_final = report.l_pred
        elif report.l_pred != self.l_pred_final:
            return self._end_cycle(
                f"l_pred_final not reproducible: {report.l_pred!r} != {self.l_pred_final!r}")
        self.trained = self.trainer
        return self._end_cycle(None)

    def _end_cycle(self, failure: str | None) -> None:
        if failure is not None:
            self.tally.fail(failure)
        self.trainer = None
        self._cycle += 1

    def run_cycles(self, n: int) -> None:
        for _ in range(n):
            self.train_cycle()

    def save_checkpoint(self) -> None:
        """Save the last trained model, SAVE_REPEATS times over, each timed."""
        if self.trained is None:
            raise RuntimeError("no training cycle completed; nothing to save")
        for _ in range(SAVE_REPEATS):
            with self.scope.installed():
                t0 = time.perf_counter()
                self.trained.save(self.ckpt)
                self.record("save", time.perf_counter() - t0)
            self.reprobe()

    # inference

    def prepare_inference(self) -> None:
        """Predictor from the checkpoint, and the clip the CLI predicts from."""
        state = train.load_checkpoint(self.ckpt)
        self.predictor = train.make_predictor(state.params, state.cfg.use_quotient,
                                              state.cfg.input_gain, state.root_index)
        obs = self.data.windows[0].observed
        self.clip = self.workdir / "observed.mqs"
        dataio.write_mqs_file(self.clip, MotionSequence(obs, self.data.fps, Skeleton(obs.shape[1])))
        self.expected = self.predictor(obs)
        # evaluate runs over EVAL_BATCH consecutive windows (one predictor
        # batch) at a time, wrapping around, so every timed call is short and
        # the same size; together the calls cover every window
        n = len(self.data)
        windows = self.data.windows * (1 + math.ceil(EVAL_BATCH / n))
        self.eval_slices = [
            dataclasses.replace(self.data, windows=windows[i % n:i % n + EVAL_BATCH])
            for i in range(0, n, EVAL_BATCH)
        ]
        self._eval_i = 0

    def eval_op(self) -> None:
        """load_checkpoint + make_predictor + evaluate over the next slice."""
        data = self.eval_slices[self._eval_i % len(self.eval_slices)]
        self._eval_i += 1
        self.tally.attempted += 1
        with self.scope.installed(), self.scope.in_phase("eval"):
            t0 = time.perf_counter()
            try:
                state = train.load_checkpoint(self.ckpt)
                predictor = train.make_predictor(state.params, state.cfg.use_quotient,
                                                 state.cfg.input_gain, state.root_index)
                report = ev.evaluate(self.scope.wrap(predictor, "predictor"), data,
                                     DEFAULT_HORIZONS_MS)
            except Exception as exc:  # counted
                self.tally.fail(f"evaluate raised {type(exc).__name__}: {exc}")
                return
            elapsed = time.perf_counter() - t0
        self.record("eval", elapsed)
        if report.n_windows != EVAL_BATCH or not all(math.isfinite(v)
                                                     for v in report.overall.values()):
            self.tally.fail(f"evaluate gave {report!r}")

    def predict_op(self) -> None:
        """A few single-window predictor calls, each timed on its own."""
        want = (N_FUTURE, self.data.skeleton.joint_count, 3)
        with self.scope.installed(), self.scope.in_phase("predict"):
            predictor = self.scope.wrap(self.predictor, "predictor")
            for _ in range(PREDICTS_PER_OP):
                obs = self.data.windows[self._predict_i % len(self.data)].observed
                self._predict_i += 1
                self.tally.attempted += 1
                t0 = time.perf_counter()
                try:
                    out = predictor(obs)
                except Exception as exc:  # counted
                    self.tally.fail(f"predict raised {type(exc).__name__}: {exc}")
                    continue
                self.record("predict", time.perf_counter() - t0)
                if out.shape != want or not np.isfinite(out).all():
                    self.tally.fail(f"predict returned shape {out.shape}")

    def cli_op(self) -> None:
        """A cold `mqmotion predict`; its output must equal the in-process call."""
        out_path = self.workdir / "predicted.mqs"
        out_path.unlink(missing_ok=True)
        self.tally.attempted += 1
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-c", CLI_MAIN, "predict", str(self.clip),
                 "--checkpoint", str(self.ckpt), "--out", str(out_path)],
                env=self.env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.tally.fail(f"mqmotion predict ran over {CLI_TIMEOUT_S} s")
            return
        self.record("cli", time.perf_counter() - t0)
        if proc.returncode != 0:
            self.tally.fail(f"mqmotion predict exited {proc.returncode}: {proc.stderr.strip()}")
        elif not self._matches_expected(out_path):
            self.tally.fail("mqmotion predict output differs from the in-process predictor")

    def _matches_expected(self, path: Path) -> bool:
        try:
            frames = dataio.read_mqs_file(path).sequence.frames
        except MotionError:
            return False
        return same_bits(frames, self.expected)

    def check_mpjpe(self) -> float:
        """evaluate over every window against the numpy recomputation;
        returns the mean over horizons of evaluate's overall MPJPE."""
        self.tally.attempted += 1
        got = ev.evaluate(self.predictor, self.data, DEFAULT_HORIZONS_MS).overall
        ref = reference_overall_mpjpe(self.predictor, self.data, DEFAULT_HORIZONS_MS)
        bad = [ms for ms in ref if not math.isclose(got[ms], ref[ms], rel_tol=1e-9)]
        if bad:
            self.tally.fail(f"evaluate MPJPE differs from the numpy recomputation at {bad} ms")
        return float(np.mean([got[ms] for ms in DEFAULT_HORIZONS_MS]))

    def timed_run(self, seconds: float) -> None:
        """The interleaved timed inference operations."""
        ops = {"eval": self.eval_op, "predict": self.predict_op, "cli": self.cli_op}
        minimums = {"eval": len(self.eval_slices), "predict": 2, "cli": 3}
        schedule(ops, INFER_SHARES, minimums, seconds, self.before_op)

    def check_inproc_cli(self, repeats: int = 3) -> None:
        """Traced run only: in-process `cli.main(["predict", ...])`, whose
        output must match the predictor too."""
        out_path = self.workdir / "predicted_inproc.mqs"
        with self.scope.installed(), self.scope.in_phase("cli"):
            for _ in range(repeats):
                self.tally.attempted += 1
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["predict", str(self.clip), "--checkpoint", str(self.ckpt),
                                     "--out", str(out_path)])
                if code != 0:
                    self.tally.fail(f"cli.main predict returned {code}")
                elif not self._matches_expected(out_path):
                    self.tally.fail("in-process cli.main predict differs from the predictor")
