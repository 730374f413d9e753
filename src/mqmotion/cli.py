"""Command-line entry point: synth, transform, perturb, train, predict, eval.

Configuration precedence is flag > config file > built-in default. The
config file is flat ``key = value`` text whose keys mirror TrainConfig
field names plus a few data-pipeline extras (fps, kind, joints, frames,
count, amplitude, stride, horizons). Exit codes: 0 success, 2 usage,
3 data error, 4 numeric failure. Errors print one machine-readable line
to stderr: ``mqmotion: code=<n> type=<ExceptionName> msg=<repr>``.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields as dc_fields
from pathlib import Path

import numpy as np

from . import perturb as pt
from . import streams
from .core import DEFAULT_HORIZONS_MS, HorizonSpec
from .dataio import read_mqs_file, synth_generate, write_mqs_file, write_mqq, \
    make_windows
from .errors import AbortStep, BackwardBeforeForward, FormatError, MotionError, \
    NumericalInstability, SequenceTooShort, SkeletonMismatch
from .evaluate import evaluate as run_evaluation
from .evaluate import format_table, write_report
from .quotient import encode_quotient
from .train import TrainConfig, load_checkpoint, make_predictor, train

_EXTRA_TYPES = {
    "fps": float,
    "kind": str,
    "joints": int,
    "frames": int,
    "count": int,
    "amplitude": float,
    "base_period": float,
    "offset_scale": float,
    "stride": int,
    "horizons": str,
}
_TRAIN_KEYS = {f.name for f in dc_fields(TrainConfig)}


def load_config(path: str | Path) -> dict:
    """Parse a flat key=value config file into typed values."""
    out: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"expected key=value in {path}", line=lineno)
        key, val = (s.strip() for s in line.split("=", 1))
        if key in _TRAIN_KEYS:
            out[key] = TrainConfig.parse_value(key, val)
        elif key in _EXTRA_TYPES:
            try:
                out[key] = _EXTRA_TYPES[key](val)
            except ValueError as exc:
                raise FormatError(f"bad value for {key!r}: {exc}", line=lineno) from None
        else:
            raise FormatError(f"unknown config key {key!r} in {path}", line=lineno)
    return out


def _resolve(args, cfgmap: dict, name: str, default):
    flag = getattr(args, name, None)
    if flag is not None:
        return flag
    return cfgmap.get(name, default)


def build_train_config(args, cfgmap: dict) -> TrainConfig:
    kwargs = {}
    for f in dc_fields(TrainConfig):
        if f.name in cfgmap:
            kwargs[f.name] = cfgmap[f.name]
        flag = getattr(args, f.name, None)
        if flag is not None:
            kwargs[f.name] = flag
    if getattr(args, "ablate_d", False):
        kwargs["use_quotient"] = False
    if getattr(args, "ablate_e", False):
        kwargs["use_perturbation"] = False
    if getattr(args, "ablate_l", False):
        kwargs["use_lowrank"] = False
    try:
        return TrainConfig(**kwargs)
    except ValueError as exc:
        raise FormatError(f"bad configuration: {exc}") from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int, help="master seed for all derived streams")


def _add_corruption(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pm", dest="p_m", type=float, help="per-scalar mask probability")
    p.add_argument("--pn", dest="p_n", type=float, help="per-scalar noise probability")
    p.add_argument("--sigma", type=float, help="noise std (default 0.05 x data std)")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha1", type=float, help="mask-loss weight")
    p.add_argument("--alpha2", type=float, help="denoise-loss weight")
    p.add_argument("--beta1", type=float, help="composite-loss weight")
    p.add_argument("--beta2", type=float, help="adversarial-loss weight")
    p.add_argument("--lambda", dest="gp_lambda", type=float,
                   help="gradient-penalty coefficient")
    p.add_argument("--lr", type=float, help="Adam learning rate")
    p.add_argument("--epochs", type=int, help="training epochs")
    p.add_argument("--batch", dest="batch_size", type=int, help="batch size")
    p.add_argument("--max-steps", dest="max_steps", type=int,
                   help="stop after this many generator steps")
    p.add_argument("--ablate-d", action="store_true",
                   help="disable the quotient encoding (raw coordinates in)")
    p.add_argument("--ablate-e", action="store_true",
                   help="disable the mask/noise auxiliary tasks")
    p.add_argument("--ablate-l", action="store_true",
                   help="disable low-rank gated attention (full-rank softmax)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mqmotion",
        description="Quotient-space motion prediction: data, training, evaluation.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic MQS motion files")
    _add_common(p)
    p.add_argument("--kind", choices=("sinusoid", "random_walk", "constant"),
                   help="generator family (default sinusoid)")
    p.add_argument("--joints", type=int, help="joint count (default 5)")
    p.add_argument("--frames", type=int, help="frame count (default 60)")
    p.add_argument("--fps", type=float, help="frame rate (default 25)")
    p.add_argument("--count", type=int, help="number of sequences (default 1)")
    p.add_argument("--amplitude", type=float, help="motion scale in mm (default 10)")
    p.add_argument("--base-period", dest="base_period", type=float,
                   help="sinusoid base period in seconds (default 1)")
    p.add_argument("--offset-scale", dest="offset_scale", type=float,
                   help="std of per-joint constant offsets in mm (default 100)")
    p.add_argument("--out", required=True,
                   help=".mqs file for a single sequence, else a directory")

    p = sub.add_parser("transform", help="encode MQS files into MQQ quotient files")
    _add_common(p)
    p.add_argument("inputs", nargs="+", help="input .mqs files")
    p.add_argument("--out", required=True,
                   help=".mqq file for a single input, else a directory")

    p = sub.add_parser("perturb", help="write masked/noised copies plus mask sidecars")
    _add_common(p)
    _add_corruption(p)
    p.add_argument("inputs", nargs="+", help="input .mqs files")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("train", help="train a predictor on MQS files")
    _add_common(p)
    _add_corruption(p)
    _add_train_flags(p)
    p.add_argument("inputs", nargs="+", help="training .mqs files")
    p.add_argument("--stride", type=int, help="window stride (default 1)")
    p.add_argument("--out", default="checkpoint.mqck", help="checkpoint path")
    p.add_argument("--log", help="CSV loss log path (default: checkpoint with .csv)")
    p.add_argument("--resume", help="resume from this checkpoint")

    p = sub.add_parser("predict", help="predict future frames from an observation file")
    _add_common(p)
    p.add_argument("input", help="observation .mqs file")
    p.add_argument("--checkpoint", required=True, help="trained checkpoint")
    p.add_argument("--out", help="output .mqs path (default: <input>.pred.mqs)")

    p = sub.add_parser("eval", help="report horizon-wise MPJPE for a checkpoint")
    _add_common(p)
    p.add_argument("inputs", nargs="+", help="evaluation .mqs files")
    p.add_argument("--checkpoint", required=True, help="trained checkpoint")
    p.add_argument("--stride", type=int, help="window stride (default 1)")
    p.add_argument("--horizons", help="comma-separated horizons in ms")
    p.add_argument("--out", help="write the report as CSV here")
    p.add_argument("--svg", help="write an error-vs-horizon SVG chart here")
    return ap


# subcommand bodies

def _cmd_synth(args, cfgmap) -> int:
    kind = _resolve(args, cfgmap, "kind", "sinusoid")
    joints = _resolve(args, cfgmap, "joints", 5)
    frames = _resolve(args, cfgmap, "frames", 60)
    fps = _resolve(args, cfgmap, "fps", 25.0)
    count = _resolve(args, cfgmap, "count", 1)
    amplitude = _resolve(args, cfgmap, "amplitude", 10.0)
    base_period = _resolve(args, cfgmap, "base_period", 1.0)
    offset_scale = _resolve(args, cfgmap, "offset_scale", 100.0)
    seed = _resolve(args, cfgmap, "seed", 0)
    if count < 1:
        raise FormatError(f"count must be >= 1, got {count}")
    out = Path(args.out)
    single_file = count == 1 and out.suffix == ".mqs"
    if not single_file:
        out.mkdir(parents=True, exist_ok=True)
    for i in range(count):
        seq = synth_generate(
            kind, joints, frames, fps, streams.derive_seed(seed, streams.SYNTH, i),
            amplitude=amplitude, offset_scale=offset_scale, base_period_s=base_period,
        )
        path = out if single_file else out / f"{kind}_{i:03d}.mqs"
        write_mqs_file(path, seq)
        print(path)
    return 0


def _cmd_transform(args, cfgmap) -> int:
    out = Path(args.out)
    single_file = len(args.inputs) == 1 and out.suffix == ".mqq"
    if not single_file:
        out.mkdir(parents=True, exist_ok=True)
    for src in args.inputs:
        seq = read_mqs_file(src).sequence
        q = encode_quotient(seq)
        path = out if single_file else out / (Path(src).stem + ".mqq")
        Path(path).write_text(write_mqq(q))
        print(path)
    return 0


def _sidecar(flags: np.ndarray) -> str:
    lines = ["# frame joint axis"]
    for t, j, a in np.argwhere(flags):
        lines.append(f"{t} {j} {a}")
    return "\n".join(lines) + "\n"


def _cmd_perturb(args, cfgmap) -> int:
    p_m = _resolve(args, cfgmap, "p_m", 0.1)
    p_n = _resolve(args, cfgmap, "p_n", 0.1)
    sigma = _resolve(args, cfgmap, "sigma", None)
    seed = _resolve(args, cfgmap, "seed", 0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, src in enumerate(args.inputs):
        seq = read_mqs_file(src).sequence
        if sigma is None:
            std = float(seq.frames.std())
            sigma_i = 0.05 * std if std > 0 else 1e-8
        else:
            sigma_i = sigma
        fseed = streams.derive_seed(seed, streams.CORRUPT, i)
        masked, mask = pt.apply_mask(seq.frames, p_m, fseed)
        noised, nmask = pt.apply_noise(seq.frames, p_n, sigma_i, fseed)
        stem = Path(src).stem
        for tag, data, flags in (("masked", masked, mask.flags),
                                 ("noised", noised, nmask.flags)):
            path = out / f"{stem}.{tag}.mqs"
            write_mqs_file(path, seq.with_frames(data))
            (out / f"{stem}.{tag}.mask.txt").write_text(_sidecar(flags))
            print(path)
    return 0


def _load_windows(paths, cfg, stride):
    """Window the clips at ``paths``; a corpus with no window is a data error.

    The check runs before make_windows, which would warn once per short clip.
    """
    sequences = [read_mqs_file(p).sequence for p in paths]
    span = cfg.obs_frames + cfg.future_frames
    if all(seq.n_frames < span for seq in sequences):
        raise SequenceTooShort(
            f"no windows: every clip is shorter than obs_frames + future_frames "
            f"= {span} frames"
        )
    return make_windows(sequences, cfg.obs_frames, cfg.future_frames, stride)


def _parented(path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_train(args, cfgmap) -> int:
    cfg = build_train_config(args, cfgmap)
    stride = _resolve(args, cfgmap, "stride", 1)
    dataset = _load_windows(args.inputs, cfg, stride)
    out = _parented(args.out)
    log_path = _parented(args.log) if args.log else out.with_suffix(".csv")
    result = train(dataset, cfg, log_path=log_path, checkpoint_path=out,
                   resume_from=args.resume)
    steps = result.reports[-1][0] + 1 if result.reports else 0
    final = repr(result.reports[-1][1].l_pred) if result.reports else "n/a"
    print(f"trained steps={steps} final_l_pred={final} checkpoint={out} log={log_path}")
    return 0


def _cmd_predict(args, cfgmap) -> int:
    state = load_checkpoint(args.checkpoint)
    cfg = state.cfg
    mqs = read_mqs_file(args.input)
    seq = mqs.sequence
    if seq.n_joints != state.params.dims.joints:
        raise SkeletonMismatch(
            f"checkpoint expects {state.params.dims.joints} joints, "
            f"file has {seq.n_joints}"
        )
    if seq.n_frames < cfg.obs_frames:
        raise SequenceTooShort(
            f"need at least {cfg.obs_frames} observed frames, file has {seq.n_frames}"
        )
    predictor = make_predictor(state.params, cfg.use_quotient, cfg.input_gain,
                               state.root_index)
    pred = predictor(seq.frames[-cfg.obs_frames :])
    out = _parented(args.out) if args.out else Path(args.input).with_suffix(".pred.mqs")
    write_mqs_file(out, seq.with_frames(pred))
    print(out)
    return 0


def _parse_horizons(text: str) -> tuple[int, ...]:
    try:
        ms = tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError as exc:
        raise FormatError(f"bad horizon list {text!r}: {exc}") from None
    if not ms:
        raise FormatError(f"empty horizon list {text!r}")
    return HorizonSpec(ms).milliseconds


def _cmd_eval(args, cfgmap) -> int:
    state = load_checkpoint(args.checkpoint)
    cfg = state.cfg
    stride = _resolve(args, cfgmap, "stride", 1)
    horizons_raw = _resolve(args, cfgmap, "horizons", None)
    horizons = _parse_horizons(horizons_raw) if horizons_raw else DEFAULT_HORIZONS_MS
    dataset = _load_windows(args.inputs, cfg, stride)
    predictor = make_predictor(state.params, cfg.use_quotient, cfg.input_gain,
                               state.root_index)
    report = run_evaluation(predictor, dataset, horizons, root_index=state.root_index)
    sys.stdout.write(format_table(report))
    write_report(report,
                 csv_path=_parented(args.out) if args.out else None,
                 svg_path=_parented(args.svg) if args.svg else None)
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "transform": _cmd_transform,
    "perturb": _cmd_perturb,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfgmap = load_config(args.config) if args.config else {}
        return _COMMANDS[args.command](args, cfgmap)
    except (BackwardBeforeForward, NumericalInstability, AbortStep) as exc:
        _report_error(4, exc)
        return 4
    except (MotionError, OSError) as exc:
        _report_error(3, exc)
        return 3


def _report_error(code: int, exc: Exception) -> None:
    msg = str(exc)
    print(f"mqmotion: code={code} type={type(exc).__name__} msg={msg!r}",
          file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
