"""Span recorder for the traced benchmark run, and the per-layer metrics.

The recorder patches public functions of the `mqmotion` modules from the
outside: each patched attribute is replaced by a wrapper that opens a span
(name, start, end, parent span, phase, attributes), calls the original and
closes the span. `Tracer.installed()` restores every original on exit, so
only the work inside it is traced. Spans stay in memory until `dump`
writes them at the end of the run.

A phase ("setup", "train", "eval", "predict", "cli") is set by the workload
code around each piece of work, so metrics can be normalised by the work
that produced them: training-layer times are ms per traced training step,
`evaluate` numbers are per evaluate() call or per evaluated window.
"""
from __future__ import annotations

import contextlib
import gc
import json
import statistics
import time
from pathlib import Path

from mqmotion import _kernels, autodiff, cli, dataio, evaluate, losses, network, perturb
from mqmotion import train

# (owner, attribute, span name). A function imported by name into another
# module (cli's `from .train import load_checkpoint`) is patched in both.
_TARGETS = (
    (autodiff, "grad", "autodiff.grad"),
    (network, "forward_backbone", "network.forward_backbone"),
    (network, "embed", "network.embed"),
    (network, "spatial_attention", "network.spatial_attention"),
    (network, "temporal_attention", "network.temporal_attention"),
    (network, "heads", "network.heads"),
    (network, "discriminate_fidelity", "network.discriminate_fidelity"),
    (network, "discriminate_continuity", "network.discriminate_continuity"),
    (network, "build_features", "network.build_features"),
    (losses, "gradient_penalty", "losses.gradient_penalty"),
    (losses, "loss_adversarial", "losses.loss_adversarial"),
    (perturb, "build_batch", "perturb.build_batch"),
    (train.Trainer, "run", "train.Trainer.run"),
    (train.Trainer, "critic_update", "train.Trainer.critic_update"),
    (train.Trainer, "generator_update", "train.Trainer.generator_update"),
    (train.Adam, "step", "train.Adam.step"),
    (train, "save_checkpoint", "train.save_checkpoint"),
    (train, "load_checkpoint", "train.load_checkpoint"),
    (cli, "load_checkpoint", "train.load_checkpoint"),
    (evaluate, "evaluate", "evaluate.evaluate"),
    (_kernels, "mpjpe_mean", "_kernels.mpjpe_mean"),
    (_kernels, "adam_update", "_kernels.adam_update"),
    (_kernels, "quotient_channels", "_kernels.quotient_channels"),
    (dataio, "read_mqs_file", "dataio.read_mqs_file"),
    (cli, "read_mqs_file", "dataio.read_mqs_file"),
    (dataio, "make_windows", "dataio.make_windows"),
    (cli, "make_windows", "dataio.make_windows"),
    (cli, "main", "cli.main"),
)

# Span fields, kept as plain lists so recording stays cheap.
NAME, START, END, PARENT, PHASE, ATTRS = range(6)


def graph_nodes(root) -> int:
    """Number of autodiff nodes reachable from `root` through its parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def _grad_attrs(output, inputs, create_graph=False, grad_output=None):
    return {"nodes": graph_nodes(output), "create_graph": bool(create_graph)}


def _backbone_attrs(*args, **kwargs):
    return {"grad": bool(autodiff._grad_enabled)}


_ATTRS = {"autodiff.grad": _grad_attrs, "network.forward_backbone": _backbone_attrs}


class Tracer:
    """Records spans around patched `mqmotion` functions and GC pauses."""

    def __init__(self):
        self.spans: list[list] = []
        self.gc_events: list[tuple[str, float]] = []  # (phase, seconds)
        self.phase = "setup"
        self._stack: list[int] = []
        self._gc_t0: float | None = None
        self._patched: list[tuple[object, str, object]] = []

    # recording

    def _open(self, name: str, attrs) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.phase, attrs])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, attrs_fn=None):
        """Return `fn` wrapped in a span named `name`."""

        def traced(*args, **kwargs):
            attrs = attrs_fn(*args, **kwargs) if attrs_fn is not None else None
            idx = self._open(name, attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _on_gc(self, stage: str, info: dict) -> None:
        if stage == "start":
            self._gc_t0 = time.perf_counter()
        elif self._gc_t0 is not None:
            self.gc_events.append((self.phase, time.perf_counter() - self._gc_t0))
            self._gc_t0 = None

    @contextlib.contextmanager
    def installed(self):
        """Patch every target and hook the collector; undo both on exit."""
        for owner, attr, name in _TARGETS:
            orig = getattr(owner, attr)
            self._patched.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(orig, name, _ATTRS.get(name)))
        gc.callbacks.append(self._on_gc)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._on_gc)
            while self._patched:
                owner, attr, orig = self._patched.pop()
                setattr(owner, attr, orig)

    @contextlib.contextmanager
    def in_phase(self, phase: str):
        prev, self.phase = self.phase, phase
        try:
            yield
        finally:
            self.phase = prev

    def dump(self, path: Path, extra: dict) -> None:
        """Write the spans, GC pauses and `extra` as one JSON document."""
        doc = {
            "fields": ["name", "start", "end", "parent", "phase", "attrs"],
            "spans": self.spans,
            "gc": self.gc_events,
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


# per-layer metrics

def _dur(span) -> float:
    return (span[END] - span[START]) * 1000.0


def self_times(spans) -> dict[str, float]:
    """Total self time in ms per span name: duration minus child spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += _dur(s)
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        out[s[NAME]] = out.get(s[NAME], 0.0) + _dur(s) - child[i]
    return out


def phase_spans(spans, phase: str) -> list[list]:
    """The spans of one phase, parent indices remapped into the sub-list.

    A span's parent is in the same phase or outside the list (-1), because
    phases are only switched between top-level calls.
    """
    idx = [i for i, s in enumerate(spans) if s[PHASE] == phase]
    pos = {i: k for k, i in enumerate(idx)}
    return [spans[i][:PARENT] + [pos.get(spans[i][PARENT], -1)] + spans[i][PARENT + 1:]
            for i in idx]


def _median(xs):
    return statistics.median(xs) if xs else None


def layer_metrics(tracer: Tracer, windows_per_eval: int) -> dict[str, float | None]:
    """Per-layer values from the recorded spans; None where no span ran.

    Training layers are per traced training step (one `Trainer.run` call
    drives exactly one step). `network.backbone_nograd_ms` is per window
    evaluated; `evaluate.self_ms` per evaluate() call of `windows_per_eval`
    windows; checkpoint, dataio and cli times are medians per call.
    """
    spans = tracer.spans
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s[PARENT], []).append(i)

    def named(name, phase=None):
        return [s for s in spans if s[NAME] == name and (phase is None or s[PHASE] == phase)]

    train_spans = phase_spans(spans, "train")
    steps = sum(1 for s in train_spans if s[NAME] == "train.Trainer.run")

    def per_step(total_ms):
        return total_ms / steps if steps else None

    def train_ms(name, keep=lambda s: True):
        return per_step(sum(_dur(s) for s in train_spans if s[NAME] == name and keep(s)))

    def parent_is(pname):
        return lambda s: s[PARENT] >= 0 and train_spans[s[PARENT]][NAME] == pname

    def grad_mode(flag):
        return lambda s: s[ATTRS]["grad"] is flag

    train_self = self_times(train_spans)

    gen_grads = [s for s in train_spans if s[NAME] == "autodiff.grad"
                 and parent_is("train.Trainer.generator_update")(s)]
    critic_grads = [s for s in train_spans if s[NAME] == "autodiff.grad"
                    and parent_is("train.Trainer.critic_update")(s)]

    evals = named("evaluate.evaluate", "eval")
    eval_windows = windows_per_eval * len(evals)
    eval_self = []
    mpjpe_calls = 0
    nograd_ms = 0.0
    for i, s in enumerate(spans):
        if s[NAME] != "evaluate.evaluate" or s[PHASE] != "eval":
            continue
        kids = [spans[k] for k in children.get(i, [])]
        eval_self.append(_dur(s) - sum(_dur(k) for k in kids if k[NAME] == "predictor"))
        mpjpe_calls += sum(1 for k in kids if k[NAME] == "_kernels.mpjpe_mean")
    for s in named("network.forward_backbone", "eval"):
        if not s[ATTRS]["grad"]:
            nograd_ms += _dur(s)

    run_ms = sum(_dur(s) for s in train_spans if s[NAME] == "train.Trainer.run")
    critic_ms = sum(_dur(s) for s in train_spans if s[NAME] == "train.Trainer.critic_update")
    gen_ms = sum(_dur(s) for s in train_spans if s[NAME] == "train.Trainer.generator_update")
    gc_train = [sec for phase, sec in tracer.gc_events if phase == "train"]

    return {
        "autodiff.gen_graph_nodes": _median([s[ATTRS]["nodes"] for s in gen_grads]),
        "autodiff.critic_graph_nodes": _median([s[ATTRS]["nodes"] for s in critic_grads]),
        "autodiff.backward_gen_ms": per_step(sum(_dur(s) for s in gen_grads)),
        "autodiff.backward_critic_ms": per_step(sum(_dur(s) for s in critic_grads)),
        "autodiff.grad_calls_per_step":
            per_step(sum(1 for s in train_spans if s[NAME] == "autodiff.grad")),
        "network.backbone_fwd_ms": train_ms("network.forward_backbone", grad_mode(True)),
        "network.backbone_nograd_ms": nograd_ms / eval_windows if eval_windows else None,
        "network.backbone_calls_per_step":
            per_step(sum(1 for s in train_spans if s[NAME] == "network.forward_backbone")),
        "network.spatial_ms": train_ms("network.spatial_attention"),
        "network.temporal_ms": train_ms("network.temporal_attention"),
        "network.embed_ms": train_ms("network.embed"),
        "network.heads_ms": train_ms("network.heads"),
        "network.backbone_self_ms": per_step(train_self.get("network.forward_backbone", 0.0)),
        "network.critic_fwd_ms": per_step(
            sum(_dur(s) for s in train_spans
                if s[NAME] in ("network.discriminate_fidelity",
                               "network.discriminate_continuity"))),
        "network.build_features_ms": train_ms("network.build_features"),
        "losses.gradient_penalty_ms": train_ms("losses.gradient_penalty"),
        "losses.adversarial_ms": train_ms("losses.loss_adversarial"),
        "perturb.build_batch_ms": train_ms("perturb.build_batch"),
        "train.critic_update_ms": per_step(critic_ms),
        "train.generator_update_ms": per_step(gen_ms),
        "train.adam_ms": train_ms("train.Adam.step"),
        "train.prepare_ms": per_step(run_ms - critic_ms - gen_ms),
        "train.checkpoint_save_ms": _median([_dur(s) for s in named("train.save_checkpoint")]),
        "train.checkpoint_load_ms": _median([_dur(s) for s in named("train.load_checkpoint")]),
        "evaluate.self_ms": _median(eval_self),
        "evaluate.mpjpe_calls_per_window": mpjpe_calls / eval_windows if eval_windows else None,
        "kernels.adam_update_ms": train_ms("_kernels.adam_update"),
        "kernels.quotient_channels_ms": train_ms("_kernels.quotient_channels"),
        "dataio.read_mqs_ms": _median([_dur(s) for s in named("dataio.read_mqs_file")]),
        "dataio.make_windows_ms": _median([_dur(s) for s in named("dataio.make_windows")]),
        "cli.predict_inproc_ms": _median([_dur(s) for s in named("cli.main")]),
        "runtime.gc_ms_per_step": per_step(1000.0 * sum(gc_train)),
        "runtime.gc_collections_per_step": per_step(len(gc_train)),
    }


def self_time_table(tracer: Tracer) -> str:
    """Per span name: calls and total/self ms per phase, largest self first."""
    rows = []
    for phase in sorted({s[PHASE] for s in tracer.spans}):
        sub = phase_spans(tracer.spans, phase)
        selfs = self_times(sub)
        calls: dict[str, int] = {}
        totals: dict[str, float] = {}
        for s in sub:
            calls[s[NAME]] = calls.get(s[NAME], 0) + 1
            totals[s[NAME]] = totals.get(s[NAME], 0.0) + _dur(s)
        for name in sorted(selfs, key=selfs.get, reverse=True):
            rows.append(f"{phase:8s} {name:36s} {calls[name]:7d} "
                        f"{totals[name]:11.1f} {selfs[name]:11.1f}")
    head = f"{'phase':8s} {'span':36s} {'calls':>7s} {'total_ms':>11s} {'self_ms':>11s}"
    return "\n".join([head] + rows)
