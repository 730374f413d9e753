"""The names the benchmark reaches into must exist.

perfbench/tracing.py wraps every (owner, attribute) of its _TARGETS and
reads autodiff's grad flag and its nodes' parents, perfbench/run.py
records the kernel backend flags, and perfbench/workloads.py drives a
Trainer one step per run() and predicts from its checkpoint, so a renamed
or moved name breaks the benchmark, not just its trace. The predictor
must also reach network.forward_backbone through the module, once per
slice, for the traced network.backbone_nograd_ms to read its passes.
"""
import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np

from mqmotion import _kernels, autodiff, dataio, evaluate, network, train

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_target_resolves():
    tracing = _load_tracing()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracing._TARGETS if not callable(getattr(owner, attr, None))]
    assert tracing._TARGETS and missing == []


def test_kernel_backend_flags_exist():
    assert isinstance(_kernels.HAS_NUMBA, bool) and isinstance(_kernels.USE_NUMBA, bool)


def test_graph_attributes_the_tracer_reads_exist():
    assert isinstance(autodiff._grad_enabled, bool)
    x = autodiff.Tensor(np.ones(2), requires_grad=True)
    out = autodiff.mul(x, x)
    assert isinstance(out._parents, tuple) and out._parents[0] is x


def test_trainer_surface_the_workloads_drive(tmp_path):
    # a training cycle: one Trainer, cfg replaced before each run() to raise
    # max_steps by one, each run's one report, then finite params and save;
    # inference: make_predictor on the loaded checkpoint, by position
    seq = dataio.synth_generate("sinusoid", joints=3, frames=20, fps=25.0, seed=0)
    data = dataio.make_windows([seq], n_observed=4, n_future=3, stride=2)
    cfg = train.TrainConfig(batch_size=4, d_model=8, rank=2, heads=2, layers=1,
                            obs_frames=4, future_frames=3, critic_width=8)
    trainer = train.Trainer(data, cfg)
    for i in range(2):
        trainer.cfg = dataclasses.replace(trainer.cfg, max_steps=i + 1)
        result = trainer.run()
        assert [step for step, _ in result.reports] == [i]
        report = result.reports[-1][1]
        assert all(math.isfinite(getattr(report, f)) for f in report.FIELDS)
    assert np.isfinite(trainer.params.flat()).all()
    trainer.save(tmp_path / "run.mqck")
    state = train.load_checkpoint(tmp_path / "run.mqck")
    assert state.global_step == 2
    predictor = train.make_predictor(state.params, state.cfg.use_quotient,
                                     state.cfg.input_gain, state.root_index)
    out = predictor(data.windows[0].observed)
    assert out.shape == (3, 3, 3) and np.isfinite(out).all()


def test_traced_step_spans_nest_as_the_per_layer_metrics_read_them():
    # one default J=5 step with two critic updates: the restorative passes'
    # backwards run under run, outside both updates; the clean pass's and
    # the generator's Adam step inside generator_update; the critic's inside
    # critic_update
    tracing = _load_tracing()
    seq = dataio.synth_generate("sinusoid", joints=5, frames=60, fps=25.0, seed=0)
    data = dataio.make_windows([seq], n_observed=10, n_future=25, stride=2)
    trainer = train.Trainer(data, train.TrainConfig(critic_steps=2, max_steps=1))
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.in_phase("train"):
        trainer.run()
    metrics = tracing.layer_metrics(tracer, windows_per_eval=1)
    assert (metrics["autodiff.gen_graph_nodes"], metrics["autodiff.critic_graph_nodes"],
            metrics["autodiff.grad_calls_per_step"]) == (124, 13, 5)
    spans = tracer.spans

    def parents(name):
        return sorted(spans[s[tracing.PARENT]][tracing.NAME] for s in spans
                      if s[tracing.NAME] == name)

    assert parents("autodiff.grad") == ["train.Trainer.critic_update"] * 2 + [
        "train.Trainer.generator_update"] + ["train.Trainer.run"] * 2
    assert parents("train.Adam.step") == ["train.Trainer.critic_update"] * 2 + [
        "train.Trainer.generator_update"]


def test_traced_evaluate_has_one_no_grad_backbone_span_per_slice(monkeypatch):
    # the benchmark's eval phase: one evaluate of 64 J=22 windows through
    # make_predictor, the predictor wrapped in its own span; the predictor is
    # made before the tracer patches the module, as predict_op's is
    tracing = _load_tracing()
    cfg = train.TrainConfig()
    seq = dataio.synth_generate("sinusoid", joints=22, fps=25.0, seed=0,
                                frames=cfg.obs_frames + cfg.future_frames + 63)
    data = dataio.make_windows([seq], cfg.obs_frames, cfg.future_frames, stride=1)
    assert len(data) == 64
    params = network.ModelParams.init(cfg.model_dims(22), seed=0)
    predictor = train.make_predictor(params, cfg.use_quotient, cfg.input_gain)
    lengths = []
    forward = network.forward_backbone

    def recording(features, *args, **kwargs):
        lengths.append(len(features))
        return forward(features, *args, **kwargs)

    monkeypatch.setattr(network, "forward_backbone", recording)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.in_phase("eval"):
        evaluate.evaluate(tracer.wrap(predictor, "predictor"), data)
    spans = [s for s in tracer.spans if s[tracing.NAME] == "network.forward_backbone"]
    assert lengths == [20, 20, 20, 4]
    assert [(s[tracing.PHASE], s[tracing.ATTRS]["grad"]) for s in spans] == [("eval", False)] * 4
    assert all(tracer.spans[s[tracing.PARENT]][tracing.NAME] == "predictor" for s in spans)
    assert tracing.layer_metrics(tracer, windows_per_eval=64)["network.backbone_nograd_ms"] > 0
