"""Command-line entry point: synth, transform, perturb, train, predict, eval.

Options resolve flag > config file > default by one mechanism: a
``--config`` file's values become the command parser's defaults. The file is
flat ``key = value`` text over the TrainConfig fields (typed and defaulted by
the dataclass; ``--seed`` is one) and the data-pipeline options kind, joints,
frames, fps, count, amplitude, base_period, offset_scale, stride and horizons
(typed and defaulted by their flags). synth, perturb and train take --seed;
those and eval take --config. Every value is validated before any input file
is read. Exit codes: 0 success, 2 usage, 3 data error or bad option value,
4 numeric failure, 130 interrupted (SIGINT), 143 terminated (SIGTERM).
Errors print one machine-readable line to stderr:
``mqmotion: code=<n> type=<ExceptionName> msg=<repr>``.
"""
from __future__ import annotations

import argparse
import inspect
import math
import signal
import sys
from pathlib import Path

import numpy as np

from . import perturb as pt
from . import streams
from .core import DEFAULT_HORIZONS_MS, HorizonSpec
from .dataio import SYNTH_KINDS, read_mqs_file, synth_generate, write_atomically, \
    write_mqs_file, write_mqq, make_windows
from .errors import AbortStep, BackwardBeforeForward, FormatError, MotionError, \
    NumericalInstability, SequenceTooShort
from .evaluate import evaluate as run_evaluation
from .evaluate import format_table, write_report
from .quotient import encode_quotient
from .train import CONFIG_TYPES, TrainConfig, default_sigma, load_checkpoint, \
    make_predictor, train

_SYNTH_DEFAULTS = {name: param.default
                   for name, param in inspect.signature(synth_generate).parameters.items()}
_SYNTH_MAX_COORDS = 10**7  # frames x joints x count x 3 that one synth may write


def load_config(path: str | Path) -> dict:
    """Parse a flat key=value config file into typed values: TrainConfig
    fields as their annotations say, the other options as their flags do."""
    flags = _file_options()
    out: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"expected key=value in {path}", line=lineno)
        key, val = (s.strip() for s in line.split("=", 1))
        try:
            if key in flags:
                out[key] = (flags[key].type or str)(val)
                if flags[key].choices and out[key] not in flags[key].choices:
                    raise ValueError(f"{val!r} is not one of {', '.join(flags[key].choices)}")
            else:  # a TrainConfig field, or an unknown key
                out[key] = TrainConfig.parse_value(key, val)
        except ValueError as exc:
            raise FormatError(f"bad value for {key!r} in {path}: {exc}", line=lineno) from None
        except FormatError as exc:
            raise FormatError(f"{exc} in {path}", line=lineno) from None
    return out


def _file_options() -> dict[str, argparse.Action]:
    """Config-file options besides the TrainConfig fields: flags taking a non-PATH value."""
    commands = next(a.choices for a in build_parser()._actions if isinstance(a.choices, dict))
    return {a.dest: a for p in commands.values() for a in p._actions
            if a.option_strings and a.nargs != 0 and a.metavar != "PATH"
            and a.dest not in CONFIG_TYPES}


def parse_args(argv=None) -> argparse.Namespace:
    """argv parsed with its --config file's values under the flags."""
    args = build_parser().parse_args(argv)
    if getattr(args, "config", None):
        args = build_parser(load_config(args.config)).parse_args(argv)
    return args


def build_train_config(args: argparse.Namespace) -> TrainConfig:
    """The TrainConfig of parsed args; a field neither flag nor file set keeps its default."""
    return TrainConfig(**{k: getattr(args, k) for k in CONFIG_TYPES if hasattr(args, k)})


def _require(args, *names: str, zero_ok: bool = False) -> None:
    """FormatError for the first option of names not finite and positive (or zero_ok)."""
    for name in names:
        value = getattr(args, name)
        if not (0 <= value if zero_ok else 0 < value) or not value < math.inf:
            sign = "non-negative" if zero_ok else "positive"
            raise FormatError(f"bad value for {name!r}: must be {sign} and finite, got {value!r}")


def _require_sinusoid_angle(args) -> None:
    """FormatError naming fps or base_period (the smaller) when their product
    underflows or the sinusoid's largest angle, 2 pi joints (frames - 1) /
    (fps * base_period), is not finite."""
    period = args.fps * args.base_period
    angle = 2 * math.pi * args.joints * (args.frames - 1) / period if period > 0 else math.inf
    if not math.isfinite(angle):
        name = "fps" if args.fps <= args.base_period else "base_period"
        raise FormatError(
            f"bad value for {name!r}: fps * base_period = {period!r} makes the "
            f"sinusoid's angle non-finite"
        )


def _field_flag(p: argparse.ArgumentParser, flag: str, name: str, help: str) -> None:
    """A flag for TrainConfig field name, typed by its annotation; when it is not
    given, the config-file value or else the field default holds."""
    p.add_argument(flag, dest=name, type=CONFIG_TYPES[name][0], default=argparse.SUPPRESS,
                   help=f"{help} (default {getattr(TrainConfig, name)})")


def _add_config(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="flat key=value config file")


def _add_corruption(p: argparse.ArgumentParser) -> None:
    _field_flag(p, "--seed", "seed", "master seed for all derived streams")
    _field_flag(p, "--pm", "p_m", "per-scalar mask probability")
    _field_flag(p, "--pn", "p_n", "per-scalar noise probability")
    _field_flag(p, "--sigma", "sigma", "noise std, 0.05 x the data std when None")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    _field_flag(p, "--alpha1", "alpha1", "mask-loss weight")
    _field_flag(p, "--alpha2", "alpha2", "denoise-loss weight")
    _field_flag(p, "--beta1", "beta1", "composite-loss weight")
    _field_flag(p, "--beta2", "beta2", "adversarial-loss weight")
    _field_flag(p, "--lambda", "gp_lambda", "gradient-penalty coefficient")
    _field_flag(p, "--lr", "lr", "Adam learning rate")
    _field_flag(p, "--epochs", "epochs", "training epochs")
    _field_flag(p, "--batch", "batch_size", "batch size")
    _field_flag(p, "--max-steps", "max_steps", "stop after this many generator steps")
    for flag, name, module in (
            ("--ablate-d", "use_quotient", "the quotient encoding (raw coordinates in)"),
            ("--ablate-e", "use_perturbation", "the mask/noise auxiliary tasks"),
            ("--ablate-l", "use_lowrank", "low-rank gated attention (full-rank softmax)")):
        p.add_argument(flag, dest=name, action="store_false", default=argparse.SUPPRESS,
                       help=f"disable {module}")


def build_parser(file_values: dict | None = None) -> argparse.ArgumentParser:
    """The CLI parser, with file_values (from a config file) as command defaults."""
    ap = argparse.ArgumentParser(
        prog="mqmotion",
        description="Quotient-space motion prediction: data, training, evaluation.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic MQS motion files")
    p.set_defaults(run=_cmd_synth)
    _add_config(p)
    _field_flag(p, "--seed", "seed", "master seed for all derived streams")
    p.add_argument("--kind", choices=SYNTH_KINDS, default="sinusoid",
                   help="generator family (default %(default)s)")
    p.add_argument("--joints", type=int, default=5, help="joint count (default %(default)s)")
    p.add_argument("--frames", type=int, default=60, help="frame count (default %(default)s)")
    p.add_argument("--fps", type=float, default=25.0, help="frame rate (default %(default)s)")
    p.add_argument("--count", type=int, default=1,
                   help="number of sequences (default %(default)s)")
    p.add_argument("--amplitude", type=float, default=_SYNTH_DEFAULTS["amplitude"],
                   help="motion scale in mm (default %(default)s)")
    p.add_argument("--base-period", dest="base_period", type=float,
                   default=_SYNTH_DEFAULTS["base_period_s"],
                   help="sinusoid base period in seconds (default %(default)s)")
    p.add_argument("--offset-scale", dest="offset_scale", type=float,
                   default=_SYNTH_DEFAULTS["offset_scale"],
                   help="std of per-joint constant offsets in mm (default %(default)s)")
    p.add_argument("--out", metavar="PATH", required=True,
                   help=".mqs file for a single sequence, else a directory")

    p = sub.add_parser("transform", help="encode MQS files into MQQ quotient files")
    p.set_defaults(run=_cmd_transform)
    p.add_argument("inputs", nargs="+", help="input .mqs files")
    p.add_argument("--out", metavar="PATH", required=True,
                   help=".mqq file for a single input, else a directory")

    p = sub.add_parser("perturb", help="write masked/noised copies plus mask sidecars")
    p.set_defaults(run=_cmd_perturb)
    _add_config(p)
    _add_corruption(p)
    p.add_argument("inputs", nargs="+", help="input .mqs files")
    p.add_argument("--out", metavar="PATH", required=True, help="output directory")

    p = sub.add_parser("train", help="train a predictor on MQS files")
    p.set_defaults(run=_cmd_train)
    _add_config(p)
    _add_corruption(p)
    _add_train_flags(p)
    p.add_argument("inputs", nargs="+", help="training .mqs files")
    p.add_argument("--stride", type=int, default=1, help="window stride (default %(default)s)")
    p.add_argument("--out", metavar="PATH", default="checkpoint.mqck", help="checkpoint path")
    p.add_argument("--log", metavar="PATH",
                   help="CSV loss log path (default: checkpoint with .csv)")
    p.add_argument("--resume", metavar="PATH",
                   help="resume this checkpoint, which fixes every option but --epochs "
                        "and --max-steps; the run appends to its log")

    p = sub.add_parser("predict", help="predict future frames from an observation file")
    p.set_defaults(run=_cmd_predict)
    p.add_argument("input", help="observation .mqs file")
    p.add_argument("--checkpoint", metavar="PATH", required=True, help="trained checkpoint")
    p.add_argument("--out", metavar="PATH", help="output .mqs path (default: <input>.pred.mqs)")

    p = sub.add_parser("eval", help="report horizon-wise MPJPE for a checkpoint")
    p.set_defaults(run=_cmd_eval)
    _add_config(p)
    p.add_argument("inputs", nargs="+", help="evaluation .mqs files")
    p.add_argument("--checkpoint", metavar="PATH", required=True, help="trained checkpoint")
    p.add_argument("--stride", type=int, default=1, help="window stride (default %(default)s)")
    p.add_argument("--horizons", help="comma-separated horizons in ms")
    p.add_argument("--out", metavar="PATH", help="write the report as CSV here")
    p.add_argument("--svg", metavar="PATH", help="write an error-vs-horizon SVG chart here")

    for p in sub.choices.values():
        p.set_defaults(**(file_values or {}))
    return ap


# subcommand bodies; each validates its options before it reads a file

def _cmd_synth(args, cfg) -> int:
    _require(args, "joints", "frames", "fps", "count", "base_period")
    _require(args, "amplitude", "offset_scale", zero_ok=True)
    coords = args.frames * args.joints * args.count * 3
    if coords > _SYNTH_MAX_COORDS:
        raise FormatError(f"bad values for 'frames', 'joints' and 'count': they make {coords} "
                          f"coordinates, over the limit of {_SYNTH_MAX_COORDS}")
    if args.kind == "sinusoid":
        _require_sinusoid_angle(args)
    out = Path(args.out)
    single_file = args.count == 1 and out.suffix == ".mqs"
    (out.parent if single_file else out).mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        seq = synth_generate(
            args.kind, args.joints, args.frames, args.fps,
            streams.derive_seed(cfg.seed, streams.SYNTH, i), amplitude=args.amplitude,
            offset_scale=args.offset_scale, base_period_s=args.base_period,
        )
        path = out if single_file else out / f"{args.kind}_{i:03d}.mqs"
        write_mqs_file(path, seq)
        print(path)
    return 0


def _cmd_transform(args, _cfg) -> int:
    out = Path(args.out)
    single_file = len(args.inputs) == 1 and out.suffix == ".mqq"
    paths = [out if single_file else out / (Path(src).stem + ".mqq") for src in args.inputs]
    _require_distinct([(f"the output of {src}", path) for src, path in zip(args.inputs, paths)],
                      [("an input", src) for src in args.inputs])
    (out.parent if single_file else out).mkdir(parents=True, exist_ok=True)
    for src, path in zip(args.inputs, paths):
        seq = read_mqs_file(src).sequence
        q = encode_quotient(seq)
        write_atomically(path, write_mqq(q))
        print(path)
    return 0


def _sidecar(flags: np.ndarray) -> str:
    lines = ["# frame joint axis"]
    for t, j, a in np.argwhere(flags):
        lines.append(f"{t} {j} {a}")
    return "\n".join(lines) + "\n"


def _cmd_perturb(args, cfg) -> int:
    out = Path(args.out)
    _require_distinct([(f"the output of {src}", out / f"{Path(src).stem}.{tag}{ext}")
                       for src in args.inputs for tag in ("masked", "noised")
                       for ext in (".mqs", ".mask.txt")],
                      [("an input", src) for src in args.inputs])
    copies = []  # every input's masked and noised copies, built before any is written
    for i, src in enumerate(args.inputs):
        seq = read_mqs_file(src).sequence
        sigma = cfg.sigma if cfg.sigma is not None else default_sigma(seq.frames)
        fseed = streams.derive_seed(cfg.seed, streams.CORRUPT, i)
        masked, mask_flags = pt.apply_mask(seq.frames, cfg.p_m, fseed)
        noised, noise_flags = pt.apply_noise(seq.frames, cfg.p_n, sigma, fseed)
        if not np.isfinite(noised).all():
            raise FormatError(f"bad value for 'sigma': {sigma!r} makes the noised copy "
                              f"of {src} non-finite")
        copies += [(f"{Path(src).stem}.{tag}", seq.with_frames(data), flags)
                   for tag, data, flags in (("masked", masked, mask_flags),
                                            ("noised", noised, noise_flags))]
    out.mkdir(parents=True, exist_ok=True)
    for name, copy, flags in copies:
        write_mqs_file(out / f"{name}.mqs", copy)
        write_atomically(out / f"{name}.mask.txt", _sidecar(flags))
        print(out / f"{name}.mqs")
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


def _require_distinct(outputs, inputs, allowed=()) -> None:
    """FormatError naming the option when an output is an existing
    directory, and naming both options when an output shares a path with
    another output or with an input, unless the (output, input) pair of
    names is allowed. outputs and inputs are (option, path) pairs; a None
    path is skipped, and inputs may share a path with each other."""
    written: dict[Path, str] = {}
    for i, (name, path) in enumerate(outputs + inputs):
        if path is None:
            continue
        key = Path(path).resolve()
        if i < len(outputs) and key.is_dir():
            raise FormatError(f"{name} is a directory: {path}")
        if key in written and (written[key], name) not in allowed:
            raise FormatError(f"{written[key]} and {name} are one path, {path}: a command "
                              f"writes neither over its input nor two outputs to one path")
        if i < len(outputs):
            written[key] = name


def _parented(path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_train(args, cfg) -> int:
    _require(args, "stride")
    out = Path(args.out)
    log_path = Path(args.log) if args.log else out.with_suffix(".csv")
    _require_distinct([("--out", out), ("--log" if args.log else "the default --log", log_path)],
                      [("--resume", args.resume)] + [("a clip", p) for p in args.inputs],
                      allowed={("--out", "--resume")})
    dataset = _load_windows(args.inputs, cfg, args.stride)
    _parented(out)
    _parented(log_path)
    result = train(dataset, cfg, log_path=log_path, checkpoint_path=out,
                   resume_from=args.resume)
    steps = result.reports[-1][0] + 1 if result.reports else 0
    final = repr(result.reports[-1][1].l_pred) if result.reports else "n/a"
    print(f"trained steps={steps} final_l_pred={final} checkpoint={out} log={log_path}")
    return 0


def _cmd_predict(args, _cfg) -> int:
    out = Path(args.out) if args.out else Path(args.input).with_suffix(".pred.mqs")
    _require_distinct([("--out", out)],
                      [("the input", args.input), ("--checkpoint", args.checkpoint)])
    state = load_checkpoint(args.checkpoint)
    cfg = state.cfg
    seq = read_mqs_file(args.input).sequence
    if seq.n_frames < cfg.obs_frames:
        raise SequenceTooShort(
            f"need at least {cfg.obs_frames} observed frames, file has {seq.n_frames}"
        )
    predictor = make_predictor(state.params, cfg.use_quotient, cfg.input_gain,
                               state.root_index)
    pred = predictor(seq.frames[-cfg.obs_frames :])
    write_mqs_file(_parented(out), seq.with_frames(pred))
    print(out)
    return 0


def _parse_horizons(text: str) -> tuple[int, ...]:
    try:
        ms = tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError as exc:
        raise FormatError(f"bad horizon list {text!r}: {exc}") from None
    return HorizonSpec(ms).milliseconds  # an empty list raises HorizonMisaligned


def _cmd_eval(args, _cfg) -> int:
    _require(args, "stride")
    horizons = _parse_horizons(args.horizons) if args.horizons else DEFAULT_HORIZONS_MS
    _require_distinct([("--out", args.out), ("--svg", args.svg)],
                      [("--checkpoint", args.checkpoint)] + [("a clip", p) for p in args.inputs])
    state = load_checkpoint(args.checkpoint)
    cfg = state.cfg
    dataset = _load_windows(args.inputs, cfg, args.stride)
    predictor = make_predictor(state.params, cfg.use_quotient, cfg.input_gain,
                               state.root_index)
    report = run_evaluation(predictor, dataset, horizons, root_index=state.root_index)
    sys.stdout.write(format_table(report))
    write_report(report,
                 csv_path=_parented(args.out) if args.out else None,
                 svg_path=_parented(args.svg) if args.svg else None)
    return 0


class _Terminated(BaseException):
    """SIGTERM, raised where the signal lands, as SIGINT raises KeyboardInterrupt."""


def _terminate(signum, frame):
    raise _Terminated


def main(argv=None) -> int:
    # SIGTERM ends a run as SIGINT does, with one line; the caller's handler
    # comes back on return
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        args = parse_args(argv)
        cfg = build_train_config(args)
        # a non-finite result on these paths raises a MotionError, so numpy's
        # floating-point warnings would only add lines ahead of the error line
        with np.errstate(all="ignore"):
            return args.run(args, cfg)
    except SystemExit as exc:  # argparse: a usage error or --help
        return int(exc.code or 0)
    # MemoryError is the last resort for a size no check caught: one line too
    except (MotionError, OSError, UnicodeDecodeError, MemoryError) as exc:
        code = 4 if isinstance(exc, (BackwardBeforeForward, NumericalInstability, AbortStep)) else 3
        print(f"mqmotion: code={code} type={type(exc).__name__} msg={str(exc)!r}",
              file=sys.stderr)
        return code
    except KeyboardInterrupt:  # SIGINT: the last checkpoint saved is kept
        print("mqmotion: code=130 type=KeyboardInterrupt msg='interrupted'", file=sys.stderr)
        return 130
    except _Terminated:  # SIGTERM: the same
        print("mqmotion: code=143 type=SIGTERM msg='terminated'", file=sys.stderr)
        return 143
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
