"""Optimizer fixtures, alternating-update bookkeeping, checkpoint format,
and the bitwise determinism / resume contract."""
import dataclasses
import gc
import json
import os
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mqmotion._kernels as _kernels
import mqmotion.autodiff as ad
import mqmotion.losses as lo
import mqmotion.network as net
import mqmotion.train as tr
from mqmotion.core import MotionSequence, Skeleton
from mqmotion.dataio import make_windows, synth_generate
from mqmotion.errors import (AbortStep, DimsMismatch, FormatError, MaskTermSkipped, MotionError,
                             NumericalInstability, SkeletonMismatch)

EPS = 1e-8


def small_cfg(**over):
    base = dict(lr=0.01, epochs=1, batch_size=4, p_m=0.3, p_n=0.3,
                critic_steps=1, seed=0, d_model=8, rank=2, heads=2, layers=1,
                obs_frames=4, future_frames=3, critic_width=8)
    base.update(over)
    return tr.TrainConfig(**base)


def small_dataset(frames=20, joints=3, seed=0):
    seq = synth_generate("sinusoid", joints=joints, frames=frames, fps=25.0,
                         seed=seed)
    return make_windows([seq], n_observed=4, n_future=3, stride=2)


def rewrite_header(path, edit):
    """Apply edit(header) to a checkpoint's JSON header, keeping the blobs."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + hlen])
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + hlen :])


def swap_manifest_entries(header, a, b):
    """Exchange two same-shape entries of a header's parameter manifest."""
    entries = header["params"]
    i, j = (next(k for k, (name, _) in enumerate(entries) if name == n) for n in (a, b))
    assert entries[i][1] == entries[j][1]
    entries[i], entries[j] = entries[j], entries[i]


class TestTrainConfig:
    def test_defaults(self):
        cfg = tr.TrainConfig()
        assert (cfg.lr, cfg.epochs, cfg.batch_size) == (0.001, 15, 16)
        assert (cfg.beta1, cfg.beta2, cfg.gp_lambda) == (0.9, 0.1, 10.0)
        assert cfg.use_quotient and cfg.use_perturbation and cfg.use_lowrank
        assert cfg.sigma is None and cfg.grad_clip == 10.0

    @pytest.mark.parametrize("bad", [
        dict(epochs=-1), dict(batch_size=0), dict(critic_steps=0),
        dict(obs_frames=1), dict(future_frames=0), dict(grad_clip=0.0),
        dict(seed=-1), dict(gp_lambda=-1.0), dict(lr=float("nan")), dict(lr=0.0),
        dict(max_steps=-1), dict(input_gain=float("nan")), dict(head_gain=0.0),
        dict(p_m=2.0), dict(p_n=-0.1), dict(sigma=0.0), dict(grad_clip=float("inf")),
        dict(lr="fast"), dict(epochs=1.5), dict(use_quotient=1), dict(seed=True),
        dict(heads=3), dict(critic_steps=tr._MAX_CRITIC_STEPS + 1), dict(critic_steps=10**12),
        dict(grad_clip=None),
    ])
    def test_validation(self, bad):
        (name,) = bad
        with pytest.raises(FormatError, match=name if name != "heads" else "divisible"):
            small_cfg(**bad)

    def test_critic_steps_limit_is_inclusive(self):
        assert small_cfg(critic_steps=tr._MAX_CRITIC_STEPS).critic_steps == 100

    def test_model_dims_quotient(self):
        dims = small_cfg().model_dims(5)
        assert (dims.joints, dims.window, dims.future) == (5, 3, 3)
        assert dims.in_channels == net.QUOTIENT_CHANNELS
        assert dims.lowrank

    def test_model_dims_raw(self):
        dims = small_cfg(use_quotient=False, use_lowrank=False).model_dims(5)
        assert dims.window == 4
        assert dims.in_channels == net.RAW_CHANNELS
        assert not dims.lowrank

    def test_parse_value_types(self):
        pv = tr.TrainConfig.parse_value
        assert pv("epochs", "16") == 16 and isinstance(pv("epochs", "16"), int)
        assert pv("lr", "0.5") == 0.5
        assert pv("use_quotient", "yes") is True
        assert pv("use_lowrank", "off") is False
        assert pv("sigma", "none") is None
        assert pv("grad_clip", "2.5") == 2.5
        assert pv("max_steps", "100") == 100

    @pytest.mark.parametrize("key,raw", [
        ("nonsense", "1"), ("use_quotient", "maybe"), ("epochs", "ten"),
        ("lr", "fast"), ("grad_clip", "none"), ("grad_clip", ""),
    ])
    def test_parse_value_rejects(self, key, raw):
        with pytest.raises(FormatError):
            tr.TrainConfig.parse_value(key, raw)


class TestAdam:
    def test_first_step_closed_form(self):
        g = np.array([1.0, -2.0, 0.5])
        p = np.zeros(3)
        state = tr.Adam(0.1, np.zeros(3), np.zeros(3))
        state.step(p, g)
        want = -0.1 * g / (np.abs(g) + EPS)
        assert np.allclose(p, want, rtol=1e-12)
        assert state.t == 1

    def test_updates_in_place(self):
        p = np.zeros(2)
        out = tr.Adam(0.1, np.zeros(2), np.zeros(2)).step(p, np.ones(2))
        assert out is p
        assert np.all(p != 0.0)

    def test_aborts_on_nonfinite_gradient(self):
        state = tr.Adam(0.1, np.zeros(3), np.zeros(3))
        p = np.ones(3)
        before = p.copy()
        with pytest.raises(AbortStep):
            state.step(p, np.array([1.0, np.nan, 2.0]))
        assert state.t == 0
        assert np.array_equal(p, before)

    def test_step_on_critic_view_writes_only_critic_tensors(self):
        params = net.ModelParams.init(small_cfg().model_dims(3), seed=0)
        before = {n: params.t(n).data.copy() for n in params.names}
        size = params.critic.size
        tr.Adam(0.1, np.zeros(size), np.zeros(size)).step(params.critic, np.ones(size))
        assert not np.array_equal(params.t("critic.fidelity.w1").data,
                                  before["critic.fidelity.w1"])
        for n in params.generator_names:
            assert np.array_equal(params.t(n).data, before[n]), n

    def test_clip_global_norm(self):
        g = np.array([3.0, 4.0])
        assert tr._clip_global_norm(g, 10.0) is g
        clipped = tr._clip_global_norm(g, 1.0)
        assert abs(np.linalg.norm(clipped) - 1.0) < 1e-12
        assert np.allclose(clipped, g / 5.0, rtol=1e-12)

    def test_aborts_when_a_float32_square_overflows(self):
        # unclipped, 1e20 is a finite float32 gradient whose square is not:
        # v would turn inf and stop the weight for good
        p = np.ones(3, np.float32)
        state = tr.Adam(0.1, np.zeros(3, np.float32), np.zeros(3, np.float32))
        before = p.copy()
        with pytest.raises(AbortStep):
            state.step(p, np.array([1.0, 1e20, 2.0], np.float32))
        assert state.t == 0
        assert np.array_equal(p, before)
        assert not state.m.any() and not state.v.any()

    def test_clip_of_a_huge_float32_gradient(self):
        # its squared norm, 4e40, overflows float32: the step must be
        # clipped, not zeroed
        g = np.full(4, 1e20, np.float32)
        clipped = tr._clip_global_norm(g, 10.0)
        assert clipped.dtype == np.float32
        assert np.isclose(np.linalg.norm(clipped), 10.0, rtol=1e-6)


class TestTrainerSetup:
    def test_window_shape_must_match_config(self):
        with pytest.raises(DimsMismatch):
            tr.Trainer(small_dataset(), small_cfg(obs_frames=5))

    def test_empty_dataset_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ds = make_windows([synth_generate("constant", 2, 5, 25.0, 0)],
                              n_observed=4, n_future=3)
        with pytest.raises(ValueError):
            tr.Trainer(ds, small_cfg())

    def test_foreign_params_rejected(self, tmp_path):
        ckpt = tmp_path / "seven.mqck"
        tr.Trainer(small_dataset(joints=7), small_cfg()).save(ckpt)
        with pytest.raises(DimsMismatch, match="joints 7 vs 3"):
            tr.Trainer(small_dataset(), small_cfg(), state=tr.load_checkpoint(ckpt))

    def test_explicit_sigma_honored(self):
        t = tr.Trainer(small_dataset(), small_cfg(sigma=0.25))
        assert t.sigma == 0.25

    def test_auto_sigma_is_feature_std(self):
        ds = small_dataset()
        t = tr.Trainer(ds, small_cfg())
        obs = np.stack([w.observed for w in ds.windows])
        feats, _ = net.build_features(obs, 0, True, t.cfg.input_gain)
        assert t.sigma == 0.05 * float(feats.std())

    def test_auto_sigma_floor_on_degenerate_data(self):
        skel = Skeleton(joint_count=2)
        seq = MotionSequence(np.zeros((12, 2, 3)), fps=25.0, skeleton=skel)
        ds = make_windows([seq], n_observed=4, n_future=3)
        t = tr.Trainer(ds, small_cfg())
        assert t.sigma == 1e-8


IDXS = np.array([0, 1, 2, 3])


def without_critic_update(t, gp_term=0.0):
    """t's steps make no critic update, and report gp_term."""
    t.critic_update = lambda real_rows, fake_rows, substep=0: (0.0, gp_term)
    return t


class TestUpdates:
    def setup_method(self):
        self.ds = small_dataset()
        self.trainer = tr.Trainer(self.ds, small_cfg())
        self.batch = self.trainer._prepare_batch(IDXS, 0)

    def test_critic_update_touches_only_critic_params(self):
        t = self.trainer
        gen_before = t.params.flat(t.gen_names).copy()
        critic_before = t.params.flat(t.critic_names).copy()
        t.critic_update(self.batch["real_rows"], t._prediction(self.batch)[1])
        assert np.array_equal(t.params.flat(t.gen_names), gen_before)
        assert not np.array_equal(t.params.flat(t.critic_names), critic_before)
        assert t.adam_critic.t == 1 and t.adam_gen.t == 0

    def test_generator_update_touches_only_generator_params(self):
        t = self.trainer
        gen_before = t.params.flat(t.gen_names).copy()
        critic_before = t.params.flat(t.critic_names).copy()
        without_critic_update(t).step(IDXS, 0)
        assert not np.array_equal(t.params.flat(t.gen_names), gen_before)
        assert np.array_equal(t.params.flat(t.critic_names), critic_before)
        assert t.adam_gen.t == 1 and t.adam_critic.t == 0

    def test_report_identities(self):
        t = self.trainer
        report = without_critic_update(t, gp_term=1.5).step(IDXS, 0)
        w = t.cfg
        comp = report.l_pred + w.alpha1 * report.l_mask + \
            w.alpha2 * report.l_denoise
        assert abs(report.l_composite - comp) < 1e-12
        total = w.beta1 * report.l_composite + w.beta2 * report.l_adv
        assert abs(report.l_total - total) < 1e-12
        assert report.gp_term == 1.5

    def test_perturbation_off_zeroes_reconstruction_terms(self):
        t = tr.Trainer(self.ds, small_cfg(use_perturbation=False))
        batch = t._prepare_batch(np.array([0, 1]), 0)
        assert not {"masked", "noised", "token_mask"} & batch.keys()
        report = t.step(np.array([0, 1]), 0)
        assert report.l_mask == 0.0 and report.l_denoise == 0.0
        assert report.l_pred > 0.0

    def test_mask_probability_zero_warns_and_zeroes_term(self):
        t = tr.Trainer(self.ds, small_cfg(p_m=0.0))
        with pytest.warns(MaskTermSkipped):
            report = t.step(np.array([0, 1]), 0)
        assert report.l_mask == 0.0

    @pytest.mark.parametrize("bad", ["mask_recon", "denoise_recon"])
    def test_a_non_finite_pass_stops_before_its_backward(self, monkeypatch, bad):
        # before the critic update too, and with no weight written
        t = self.trainer
        heads, gradients, backwards = net.heads, net.parameter_gradients, []
        monkeypatch.setattr(net, "heads", lambda act, params, name: (
            ad.add(heads(act, params, name), np.inf) if name == bad else heads(act, params, name)))
        monkeypatch.setattr(net, "parameter_gradients",
                            lambda *args: backwards.append(1) or gradients(*args))
        vec = t.params.vec.copy()
        with pytest.raises(NumericalInstability, match="non-finite generator loss at step 0"), \
                np.errstate(invalid="ignore"):  # inf x 0 off the token mask
            t.step(IDXS, 0)
        assert len(backwards) == (bad == "denoise_recon")  # the masked pass's own
        assert np.array_equal(t.params.vec, vec)
        assert t.adam_gen.t == t.adam_critic.t == 0

    def test_huge_clip_matches_no_clip(self, monkeypatch):
        a = tr.Trainer(self.ds, small_cfg(grad_clip=1e12))
        b = tr.Trainer(self.ds, small_cfg())
        a.step(IDXS, 0)
        monkeypatch.setattr(tr, "_clip_global_norm", lambda g, clip: g)
        b.step(IDXS, 0)
        assert np.array_equal(a.params.flat(), b.params.flat())

    def test_one_clean_forward_per_step(self, monkeypatch):
        calls = []
        real = net.forward_backbone

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(net, "forward_backbone", counting)
        for critic_steps in (1, 2):
            calls.clear()
            tr.Trainer(self.ds, small_cfg(max_steps=1, critic_steps=critic_steps)).run()
            assert len(calls) == 3  # clean (shared by every critic step), masked, noised

    def test_critic_rows_match_the_separate_forms(self):
        t = self.trainer
        obs, fut = self.batch["obs"], self.batch["fut"]
        fid, cont = t._critic_rows(obs[:, -1], fut)
        gain = t.cfg.input_gain
        assert np.array_equal(fid.data, net.fidelity_inputs(fut * gain).data)
        window = np.concatenate([obs[:, -1:], fut], axis=1)
        assert np.array_equal(cont.data, net.continuity_inputs(window * gain).data)
        assert all(np.array_equal(r, c.data) for r, c in zip(self.batch["real_rows"], (fid, cont)))


class TestRun:
    @pytest.mark.parametrize("over", [{}, dict(use_perturbation=False), dict(use_quotient=False),
                                      dict(use_lowrank=False)],
                             ids=["default", "no_perturbation", "no_quotient", "full_rank"])
    def test_a_step_builds_only_float32(self, tmp_path, monkeypatch, over):
        t = tr.Trainer(small_dataset(), small_cfg(max_steps=1, **over))
        dtypes = []
        init, gradients = ad.Tensor.__init__, net.parameter_gradients

        def counting_init(self, data, requires_grad=False):
            init(self, data, requires_grad)
            dtypes.append(self.data.dtype)

        def counting_gradients(*args, **kwargs):
            g = gradients(*args, **kwargs)
            dtypes.append(g.dtype)
            return g

        def recording(kernel):
            def run(*args, **kwargs):
                out = kernel(*args, **kwargs)
                dtypes.extend(a.dtype for a in (*args, *(out if isinstance(out, tuple) else (out,)))
                              if isinstance(a, np.ndarray))
                return out
            return run

        monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
        monkeypatch.setattr(net, "parameter_gradients", counting_gradients)
        for name in ("softmax", "layer_norm", "gelu"):
            for kernel in (f"{name}_forward", f"{name}_backward"):
                monkeypatch.setattr(ad, kernel, recording(getattr(ad, kernel)))
        monkeypatch.setattr(_kernels, "adam_update", recording(_kernels.adam_update))
        vec = t.params.vec.copy()
        t.run(checkpoint_path=tmp_path / "run.mqck")
        assert t.global_step == 1 and len(dtypes) > 100
        assert set(dtypes) == {np.dtype(np.float32)}
        # the one parameter vector and Adam's moments are float32, and the
        # checkpoint gives them back exactly
        adam = (t.adam_gen.m, t.adam_gen.v, t.adam_critic.m, t.adam_critic.v)
        assert {a.dtype for a in (t.params.vec, *adam)} == {np.dtype(np.float32)}
        assert not np.array_equal(t.params.vec, vec)
        state = tr.load_checkpoint(tmp_path / "run.mqck")
        assert state.params.vec.dtype == np.float32
        assert np.array_equal(state.params.vec, t.params.vec)
        assert all(a.dtype == np.float32 and np.array_equal(a, b) for a, b in zip(
            (state.adam_gen.m, state.adam_gen.v, state.adam_critic.m, state.adam_critic.v), adam))

    @pytest.mark.parametrize("joints", [5, 22])
    @pytest.mark.parametrize("lowrank", [True, False], ids=["lowrank", "full"])
    def test_float32_gradients_match_float64(self, monkeypatch, joints, lowrank):
        # one step's gradients at the same weights: the trainer's float32
        # params and batch against a float64 copy and the float64 arrays the
        # batch is cast from, so the bound covers the cast of the inputs too
        cfg = tr.TrainConfig(use_lowrank=lowrank, batch_size=8, grad_clip=1e30)
        seqs = [synth_generate("sinusoid", joints=joints, frames=50, fps=25.0, seed=s)
                for s in range(2)]
        ds = make_windows(seqs, n_observed=cfg.obs_frames, n_future=cfg.future_frames,
                          stride=2)
        t = tr.Trainer(ds, cfg)
        params64 = net.ModelParams(t.params.dims, t.params.vec + np.random.default_rng(2).normal(
            scale=0.05, size=t.params.vec.size))
        params32 = net.ModelParams(t.params.dims, params64.vec.astype(np.float32))
        built = {}

        def capture(name, fn):
            def run(*args, **kwargs):
                built[name] = out = fn(*args, **kwargs)
                return out
            return run

        monkeypatch.setattr(tr.net, "build_features", capture("features", net.build_features))
        monkeypatch.setattr(tr.perturb, "build_batch", capture("perturb", tr.perturb.build_batch))
        batch32 = t._prepare_batch(np.arange(cfg.batch_size), 0)
        ws = ds.windows[:cfg.batch_size]
        feats, recon_targets = built["features"]
        flags, noised = built["perturb"]
        batch64 = {"obs": np.stack([w.observed for w in ws]),
                   "fut": np.stack([w.future for w in ws]),
                   "features": feats, "recon_targets": recon_targets,
                   "noised": noised, "token_mask": flags.any(axis=-1)}
        assert {a.dtype for a in batch64.values()} == {np.dtype(np.float64), np.dtype(bool)}
        assert batch64.keys() == batch32.keys() - {"real_rows"}
        batch64["real_rows"] = tuple(r.data for r in t._critic_rows(batch64["obs"][:, -1],
                                                                     batch64["fut"]))
        grads = []
        monkeypatch.setattr(tr.Adam, "step", lambda adam, p, g: grads.append(g))
        for params, batch in ((params32, batch32), (params64, batch64)):
            # the same critic interpolation draws, at step 0, for both
            t.params, t.global_step = params, 0
            t._prepare_batch = lambda idxs, epoch, batch=batch: batch
            t.step(np.arange(cfg.batch_size), 0)
        critic32, gen32, critic64, gen64 = grads
        for got, want in ((critic32, critic64), (gen32, gen64)):
            assert got.dtype == np.float32 and want.dtype == np.float64
            assert not np.array_equal(got, want)
            assert np.abs(got - want).max() <= 1e-4 * np.abs(want).max()

    @staticmethod
    def _one_graph_gradient(t, batch, pred, fake_rows):
        """The generator gradient of one backward over all three passes'
        graphs, the objective built as one expression."""
        cfg, params = t.cfg, t.params
        l_pred = lo.mean_joint_error(pred, batch["fut"])
        if cfg.use_perturbation:
            act_m = net.forward_backbone(batch["features"], batch["token_mask"], params)
            l_mask = lo.masked_reconstruction_loss(net.heads(act_m, params, "mask_recon"),
                                                   batch["recon_targets"], batch["token_mask"])
            act_d = net.forward_backbone(batch["noised"], None, params)
            l_denoise = lo.mean_joint_error(net.heads(act_d, params, "denoise_recon"),
                                            batch["recon_targets"])
        else:
            l_mask = l_denoise = ad.Tensor(np.zeros((), pred.data.dtype))
        fake_fid, fake_cont = fake_rows
        adv = ad.add(ad.neg(ad.tmean(net.discriminate_fidelity(fake_fid, params))),
                     ad.neg(ad.tmean(net.discriminate_continuity(fake_cont, params))))
        total = lo.loss_total(lo.loss_composite(l_pred, l_mask, l_denoise, cfg), adv, cfg)
        return net.parameter_gradients(total, params, t.gen_names)

    @pytest.mark.parametrize("joints", [5, 22])
    @pytest.mark.parametrize("over", [
        {}, dict(use_perturbation=False), dict(p_m=0.0), dict(use_lowrank=False),
        dict(use_quotient=False), dict(critic_steps=2), dict(alpha1=0.0), dict(beta2=0.0),
    ], ids=["default", "no_perturbation", "nothing_masked", "full_rank", "no_quotient",
            "two_critic_steps", "no_mask_weight", "no_adversarial_weight"])
    def test_pass_gradients_add_to_one_graphs_bytes(self, monkeypatch, joints, over):
        # the gradient a step hands to Adam, (masked + noised) + clean, one
        # backward per pass, against one backward over the three graphs
        cfg = tr.TrainConfig(max_steps=1, **over)
        seqs = [synth_generate("sinusoid", joints=joints, frames=60, fps=25.0, seed=s)
                for s in range(2)]
        ds = make_windows(seqs, n_observed=cfg.obs_frames, n_future=cfg.future_frames,
                          stride=2)
        t, oracle = tr.Trainer(ds, cfg), tr.Trainer(ds, cfg)
        handed = []
        step = tr.Adam.step

        def recording(adam, p, g):
            if adam is t.adam_gen:
                handed.append(g.copy())
            return step(adam, p, g)

        monkeypatch.setattr(tr.Adam, "step", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MaskTermSkipped)
            t.run()
            batch = oracle._prepare_batch(oracle._batches(0)[0], 0)
            pred, fake_rows = oracle._prediction(batch)
            for k in range(cfg.critic_steps):
                oracle.critic_update(batch["real_rows"], fake_rows, k)
            want = tr._clip_global_norm(self._one_graph_gradient(oracle, batch, pred, fake_rows),
                                        cfg.grad_clip)
        [got] = handed
        assert got.dtype == want.dtype == np.float32
        assert got.tobytes() == want.tobytes()

    # the activation estimate's bytes per layer and entry as first fitted, to
    # the step when it held all three passes' graphs until one backward
    THREE_GRAPH_BYTES_PER_ENTRY = (280, 37)

    def three_graph_bytes(self, dims, batch: int) -> int:
        a, b = self.THREE_GRAPH_BYTES_PER_ENTRY
        return batch * dims.window * dims.joints * dims.d_model * dims.layers * (a + b * dims.ffn_mult)

    def test_a_step_holds_one_pass_at_a_time(self):
        """A default J=22 step on 16 windows peaks under 0.6 of the activation
        estimate fitted to the step when it held all three passes' graphs
        until one backward (traced peaks: 78.7 MB then, 110% of that
        estimate; 31.8 MB, 44%, one pass at a time)."""
        cfg = tr.TrainConfig(max_steps=1)
        seqs = [synth_generate("sinusoid", joints=22, frames=60, fps=25.0, seed=s)
                for s in range(2)]
        ds = make_windows(seqs, n_observed=cfg.obs_frames, n_future=cfg.future_frames,
                          stride=2)
        t = tr.Trainer(ds, cfg)
        assert len(ds) >= cfg.batch_size == 16
        tracemalloc.start()
        try:
            t.run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.global_step == 1
        assert peak <= 0.6 * self.three_graph_bytes(t.params.dims, cfg.batch_size)

    def test_no_step_outlives_its_call(self):
        """Three default J=22 steps keep one step's peak: a run once held
        the last clean pass's graph through the next step's restorative
        passes (traced peak over steps 2-4: 53.2 MB then, 31.8 MB since)."""
        cfg = tr.TrainConfig(max_steps=3)
        seqs = [synth_generate("sinusoid", joints=22, frames=60, fps=25.0, seed=s)
                for s in range(3)]
        ds = make_windows(seqs, n_observed=cfg.obs_frames, n_future=cfg.future_frames,
                          stride=1)
        t = tr.Trainer(ds, cfg)
        tracemalloc.start()
        try:
            t.run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.global_step == 3 and t.epoch == 0
        assert peak <= 0.6 * self.three_graph_bytes(t.params.dims, cfg.batch_size)

    @pytest.mark.parametrize("edit", ["set_flat", "vec"])
    def test_a_step_trains_on_edited_params(self, edit):
        # an in-place edit of params between steps is what the next step reads
        t = tr.Trainer(small_dataset(), small_cfg())
        t.step(IDXS, 0)
        batch = t._prepare_batch(IDXS, 0)
        edited = np.random.default_rng(3).normal(scale=0.1, size=t.params.vec.size)
        if edit == "set_flat":
            t.params.set_flat(edited)
        else:
            t.params.vec[...] = edited
        pred, fake_rows = t._prediction(batch)
        cast = net.ModelParams(t.params.dims, edited.astype(np.float32))
        assert np.array_equal(t.params.vec, cast.vec)
        act = net.forward_backbone(batch["features"], None, cast, last_frame=True)
        assert np.array_equal(pred.data, net.heads(act, cast, "pred").data)
        # the critic update steps the edited critic in place, where the
        # generator step's critic terms read it, and leaves the generator
        t.critic_update(batch["real_rows"], fake_rows)
        assert not np.array_equal(t.params.critic, cast.critic)
        assert np.array_equal(t.params.generator, cast.generator)

    def test_graph_sizes_per_step(self, monkeypatch):
        # every tensor reachable from each loss handed to parameter_gradients
        # in one default step at J=5, parameters included: the masked, the
        # noised and the clean pass's generator graphs, then the critic's
        seq = synth_generate("sinusoid", joints=5, frames=40, fps=25.0, seed=0)
        t = tr.Trainer(make_windows([seq], n_observed=10, n_future=25, stride=2),
                       tr.TrainConfig(max_steps=1))
        nodes = {}
        gradients = net.parameter_gradients

        def counting(loss, params, names=None):
            seen, stack = {id(loss)}, [loss]
            while stack:
                for p in stack.pop()._parents:
                    if id(p) not in seen:
                        seen.add(id(p))
                        stack.append(p)
            nodes.setdefault("critic" if names == t.critic_names else "generator",
                             []).append(len(seen))
            return gradients(loss, params, names)

        monkeypatch.setattr(net, "parameter_gradients", counting)
        t.run()
        assert nodes == {"generator": [98, 93, 124], "critic": [13]}

    def test_zero_epochs_writes_initial_checkpoint(self, tmp_path):
        ckpt = tmp_path / "run.mqck"
        log = tmp_path / "run.csv"
        result = tr.train(small_dataset(), small_cfg(epochs=0),
                          log_path=log, checkpoint_path=ckpt)
        assert result.reports == []
        assert log.read_text() == ",".join(tr.LOG_COLUMNS) + "\n"
        state = tr.load_checkpoint(ckpt)
        assert state.global_step == 0
        init = net.ModelParams.init(small_cfg().model_dims(3), seed=0)
        assert np.array_equal(state.params.flat(), init.flat().astype(np.float32))

    @pytest.mark.parametrize("over, saved", [
        (dict(epochs=2), [(1, 0, 2), (2, 0, 4)]),
        (dict(epochs=3, max_steps=3), [(1, 0, 2), (1, 1, 3)]),
        (dict(epochs=3, max_steps=2), [(0, 2, 2)]),  # the epoch stays open at its last batch
        (dict(epochs=0), [(0, 0, 0)]),
    ], ids=["two_epochs", "max_steps", "max_steps_at_last_batch", "zero_epochs"])
    def test_each_state_is_saved_once(self, tmp_path, monkeypatch, over, saved):
        states = []
        save = tr.save_checkpoint

        def recording(path, trainer):
            states.append((trainer.epoch, trainer.batch_index, trainer.global_step))
            save(path, trainer)

        monkeypatch.setattr(tr, "save_checkpoint", recording)
        tr.train(small_dataset(), small_cfg(**over), checkpoint_path=tmp_path / "run.mqck")
        assert states == saved

    def test_run_is_the_loop_over_step(self):
        by_hand, looped = (tr.Trainer(small_dataset(), small_cfg(epochs=2)) for _ in range(2))
        reports = []
        for epoch in (0, 1):
            for idxs in by_hand._batches(epoch):
                reports.append((by_hand.global_step, by_hand.step(idxs, epoch)))
        assert (by_hand.epoch, by_hand.batch_index, by_hand.global_step) == (0, 0, 4)
        result = looped.run()
        assert tr.log_to_csv(reports) == tr.log_to_csv(result.reports)
        hand, loop = ([a.tobytes() for a in (t.params.vec, t.adam_gen.m, t.adam_gen.v,
                                             t.adam_critic.m, t.adam_critic.v)]
                      for t in (by_hand, looped))
        assert hand == loop

    def test_step_and_batch_accounting(self):
        t = tr.Trainer(small_dataset(), small_cfg(epochs=2))
        result = t.run()
        assert len(result.reports) == 4
        assert [step for step, _ in result.reports] == [0, 1, 2, 3]
        assert t.epoch == 2

    def test_max_steps_cuts_run_short(self):
        result = tr.train(small_dataset(), small_cfg(epochs=10, max_steps=3))
        assert len(result.reports) == 3

    def test_log_csv_round_trips_floats(self, tmp_path):
        log = tmp_path / "t.csv"
        result = tr.train(small_dataset(), small_cfg(), log_path=log)
        lines = log.read_text().splitlines()
        assert lines[0] == "step,l_pred,l_mask,l_denoise,l_adv,gp_term,l_total"
        assert len(lines) == 1 + len(result.reports)
        step, report = result.reports[0]
        cells = lines[1].split(",")
        assert int(cells[0]) == step
        assert float(cells[1]) == report.l_pred
        assert float(cells[6]) == report.l_total

    def test_training_step_leaves_no_reference_cycles(self):
        # a graph with a cycle (say, a VJP holding its own output Tensor)
        # outlives its step until the cyclic collector runs
        cfg = tr.TrainConfig(max_steps=1)
        seqs = [synth_generate("sinusoid", joints=5, frames=60, fps=25.0, seed=s)
                for s in range(3)]
        ds = make_windows(seqs, n_observed=cfg.obs_frames, n_future=cfg.future_frames,
                          stride=1)
        trainer = tr.Trainer(ds, cfg)
        gc.collect()
        gc.disable()
        try:
            result = trainer.run()
            assert len(result.reports) == 1
            del result
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0

    def test_bitwise_deterministic_in_seed(self):
        a = tr.train(small_dataset(), small_cfg(epochs=1))
        b = tr.train(small_dataset(), small_cfg(epochs=1))
        c = tr.train(small_dataset(), small_cfg(epochs=1, seed=1))
        assert np.array_equal(a.params.flat(), b.params.flat())
        assert not np.array_equal(a.params.flat(), c.params.flat())


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """The bytes of one small checkpoint, and a path to write variants to."""
    path = tmp_path_factory.mktemp("tiny") / "tiny.mqck"
    tr.train(small_dataset(), small_cfg(epochs=0), checkpoint_path=path)
    return path.read_bytes(), path.with_name("damaged.mqck")


class TestCheckpoint:
    def run_short(self, tmp_path, **over):
        ckpt = tmp_path / "state.mqck"
        cfg = small_cfg(**over)
        tr.train(small_dataset(), cfg, checkpoint_path=ckpt)
        return ckpt, cfg

    def test_round_trip_is_bitwise(self, tmp_path):
        ckpt, cfg = self.run_short(tmp_path)
        ds = small_dataset()
        state = tr.load_checkpoint(ckpt)
        assert state.cfg == cfg
        trainer = tr.Trainer(ds, cfg, state)
        assert trainer.epoch == 1 and trainer.batch_index == 0
        assert trainer.global_step == 2
        assert trainer.adam_gen.t == 2 and trainer.adam_critic.t == 2
        resaved = tmp_path / "again.mqck"
        trainer.save(resaved)
        assert resaved.read_bytes() == ckpt.read_bytes()

    @pytest.mark.parametrize("fail", ["fsync", "replace"])
    def test_interrupted_save_keeps_the_old_file(self, tmp_path, monkeypatch, fail):
        ckpt, cfg = self.run_short(tmp_path)
        old = ckpt.read_bytes()
        trainer = tr.Trainer(small_dataset(), cfg, tr.load_checkpoint(ckpt))
        trainer.global_step += 1

        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, fail, interrupt)
        with pytest.raises(KeyboardInterrupt):
            trainer.save(ckpt)
        monkeypatch.undo()
        assert ckpt.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == [ckpt.name]
        trainer.save(ckpt)
        assert tr.load_checkpoint(ckpt).global_step == trainer.global_step

    def test_save_syncs_the_directory_after_the_rename(self, tmp_path, monkeypatch):
        # the rename survives a power loss only once its directory is synced
        ckpt, cfg = self.run_short(tmp_path)
        trainer = tr.Trainer(small_dataset(), cfg, tr.load_checkpoint(ckpt))
        events = []
        fsync, replace = os.fsync, os.replace

        def record_fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            fsync(fd)

        def record_replace(src, dst):
            events.append(("replace", None))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", record_fsync)
        monkeypatch.setattr(os, "replace", record_replace)
        trainer.save(ckpt)
        assert events == [("fsync", ckpt.stat().st_ino), ("replace", None),
                          ("fsync", tmp_path.stat().st_ino)]

    def test_bad_magic_rejected(self, tmp_path):
        ckpt, _ = self.run_short(tmp_path)
        raw = bytearray(ckpt.read_bytes())
        raw[:4] = b"XQCK"
        ckpt.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            tr.load_checkpoint(ckpt)

    def test_unknown_version_rejected(self, tmp_path):
        ckpt, _ = self.run_short(tmp_path)
        raw = ckpt.read_bytes()
        # version 1 stored the key and critic output biases that version 2 dropped
        for version in (1, 99):
            ckpt.write_bytes(raw[:4] + struct.pack("<I", version) + raw[8:])
            with pytest.raises(FormatError, match=f"version {version}"):
                tr.load_checkpoint(ckpt)

    def test_truncation_rejected(self, tmp_path):
        ckpt, _ = self.run_short(tmp_path)
        raw = ckpt.read_bytes()
        ckpt.write_bytes(raw[:-8])
        with pytest.raises(FormatError):
            tr.load_checkpoint(ckpt)

    def test_garbage_header_rejected(self, tmp_path):
        ckpt, _ = self.run_short(tmp_path)
        raw = bytearray(ckpt.read_bytes())
        raw[20:40] = b"\xff" * 20
        ckpt.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            tr.load_checkpoint(ckpt)

    @settings(max_examples=50, deadline=None, database=None)
    @given(data=st.data())
    def test_damaged_bytes_load_or_raise_motion_error(self, tiny_checkpoint, data):
        # truncation anywhere, or one flipped bit or replaced byte in the
        # magic, version, header length or JSON header
        raw, path = tiny_checkpoint
        head = 16 + struct.unpack("<Q", raw[8:16])[0]
        kind = data.draw(st.sampled_from(["truncate", "flip", "replace"]))
        if kind == "truncate":
            damaged = raw[:data.draw(st.integers(0, len(raw) - 1))]
        else:
            i = data.draw(st.integers(0, head - 1))
            byte = (raw[i] ^ 1 << data.draw(st.integers(0, 7)) if kind == "flip"
                    else data.draw(st.integers(0, 255)))
            damaged = raw[:i] + bytes([byte]) + raw[i + 1:]
        path.write_bytes(damaged)
        try:
            tr.load_checkpoint(path)
        except MotionError:
            return
        assert kind != "truncate"

    @pytest.mark.parametrize("edit", [
        lambda h: h.pop("config"),
        lambda h: h.update(config=[1, 2]),
        lambda h: h.pop("dims"),
        lambda h: h.pop("counts"),
        lambda h: h["counts"].pop("critic"),
        lambda h: h["config"].update(warp_speed=9),
        lambda h: h["config"].update(batch_size=0),
        lambda h: h["config"].update(lr="fast"),
        lambda h: h["dims"].update(heads=3),
        lambda h: h.pop("sigma"),
        lambda h: h["dims"].update(head_gain=50.0),
        lambda h: swap_manifest_entries(h, "layer0.spatial.bv", "layer0.spatial.ff_b1"),
        lambda h: h["params"][0][1].reverse(),  # embed.w's shape transposed
        lambda h: h.update(params={name: shape for name, shape in h["params"]}),
        lambda h: h["counts"].update(generator=h["counts"]["generator"] + 1,
                                     critic=h["counts"]["critic"] - 1),
        lambda h: h.update(sigma=-1),
        lambda h: h.update(sigma=0),
        lambda h: h.update(sigma=float("nan")),
        lambda h: h.update(sigma=True),
        lambda h: h.update(sigma="0.5"),
        lambda h: h.update(sigma=10**400),
        lambda h: h["config"].update(critic_steps=10**12),
    ], ids=["no_config", "config_not_object", "no_dims", "no_counts",
            "no_critic_count", "unknown_config_key", "bad_config_value",
            "bad_config_type", "bad_dims_value", "no_sigma",
            "dims_disagree_with_config", "manifest_names_swapped",
            "manifest_shape_transposed", "manifest_not_a_list", "counts_disagree_with_dims",
            "sigma_negative", "sigma_zero", "sigma_nan", "sigma_bool", "sigma_string",
            "sigma_huge_int", "critic_steps_over_limit"])
    def test_header_schema_rejected(self, tmp_path, edit):
        ckpt, _ = self.run_short(tmp_path)
        rewrite_header(ckpt, edit)
        with pytest.raises(FormatError):
            tr.load_checkpoint(ckpt)

    @pytest.mark.parametrize("edit", [
        lambda h: h.update(root_index=3),  # the small dataset has 3 joints
        lambda h: h.update(root_index=-1),
        lambda h: h.update(epoch=-1),
        lambda h: h.update(batch_index=-2),
        lambda h: h.update(global_step=-1),
        lambda h: h["adam"]["generator"].update(t=-1),
        lambda h: h["adam"]["critic"].update(t=-1),
    ], ids=["root_index_past_joints", "root_index_negative", "epoch_negative",
            "batch_index_negative", "global_step_negative", "generator_t_negative",
            "critic_t_negative"])
    def test_out_of_range_counters_rejected(self, tmp_path, edit):
        ckpt, _ = self.run_short(tmp_path)
        rewrite_header(ckpt, edit)
        with pytest.raises(FormatError):
            tr.load_checkpoint(ckpt)

    @pytest.mark.parametrize("edit, named", [
        (lambda h: swap_manifest_entries(h, "layer0.spatial.bv", "layer0.spatial.ff_b1"),
         '["layer0.spatial.ff_b1", [8]], its dims lay out ["layer0.spatial.bv", [8]]'),
        (lambda h: h["params"][0][1].reverse(), '["embed.w", [8, 7]]'),
        (lambda h: h["params"].append(["extra.w", [2]]),
         '["extra.w", [2]], its dims lay out nothing'),
    ], ids=["names_swapped", "shape_transposed", "one_extra_entry"])
    def test_manifest_refusal_names_the_first_differing_entry(self, tmp_path, edit, named):
        ckpt, _ = self.run_short(tmp_path)
        rewrite_header(ckpt, edit)
        with pytest.raises(FormatError) as exc:
            tr.load_checkpoint(ckpt)
        assert named in str(exc.value)

    @pytest.mark.parametrize("edit", [
        lambda h: h.update(epoch=-1),
        lambda h: h["adam"]["critic"].update(t=-1),
        lambda h: h["counts"].update(total=-1),
        lambda h: h["counts"].update(critic=-3),
    ], ids=["counter", "adam_t", "total_count", "critic_count"])
    def test_negative_header_integers_share_one_rule(self, tmp_path, edit):
        ckpt, _ = self.run_short(tmp_path)
        rewrite_header(ckpt, edit)
        with pytest.raises(FormatError, match="must be an integer >= 0, got -"):
            tr.load_checkpoint(ckpt)

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        cfg_full = small_cfg(epochs=2)
        straight = tr.train(small_dataset(), cfg_full)

        ckpt = tmp_path / "mid.mqck"
        cfg_cut = dataclasses.replace(cfg_full, max_steps=3)
        tr.train(small_dataset(), cfg_cut, checkpoint_path=ckpt)
        resumed = tr.Trainer(small_dataset(), cfg_full, tr.load_checkpoint(ckpt))
        assert resumed.epoch == 1 and resumed.batch_index == 1
        result = resumed.run()
        assert [step for step, _ in result.reports] == [3]
        assert np.array_equal(result.params.flat(), straight.params.flat())
        assert np.array_equal(resumed.adam_gen.m, np.zeros(0)) is False
        assert resumed.adam_gen.t == 4

    def test_resume_skips_the_sigma_pass(self, tmp_path, monkeypatch):
        ckpt, _ = self.run_short(tmp_path)

        def no_pass(self):
            raise AssertionError("a resumed run takes sigma from its checkpoint")

        monkeypatch.setattr(tr.Trainer, "_auto_sigma", no_pass)
        state = tr.load_checkpoint(ckpt)
        assert tr.Trainer(small_dataset(), state.cfg, state).sigma == state.sigma

    def test_resume_with_differing_config_is_error(self, tmp_path):
        ckpt, cfg = self.run_short(tmp_path)
        other = dataclasses.replace(cfg, lr=0.5, seed=3, epochs=4)
        with pytest.raises(FormatError, match=r"lr 0\.01 vs 0\.5, seed 0 vs 3; "
                                              r"a resume may change only epochs and max_steps"):
            tr.train(small_dataset(), other, resume_from=ckpt)

    def test_resume_appends_to_its_log(self, tmp_path):
        cfg_full = small_cfg(epochs=2)
        straight = tmp_path / "straight.csv"
        tr.train(small_dataset(), cfg_full, log_path=straight)
        ckpt, log = tmp_path / "mid.mqck", tmp_path / "mid.csv"
        tr.train(small_dataset(), dataclasses.replace(cfg_full, max_steps=3),
                 log_path=log, checkpoint_path=ckpt)
        tr.train(small_dataset(), cfg_full, log_path=log, resume_from=ckpt)
        assert log.read_text() == straight.read_text()


class TestPredictor:
    def test_shapes_and_batching(self):
        ds = small_dataset()
        t = tr.Trainer(ds, small_cfg())
        predict = tr.make_predictor(t.params, use_quotient=True,
                                    input_gain=0.01)
        obs = ds.windows[0].observed
        single = predict(obs)
        assert single.shape == (3, 3, 3)
        batched = predict(np.stack([obs, obs]))
        assert batched.shape == (2, 3, 3, 3)
        assert np.array_equal(batched[0], single)
        assert np.array_equal(batched[1], single)

    @pytest.mark.parametrize("quotient", [True, False], ids=["quotient", "raw"])
    @pytest.mark.parametrize("layers", [0, 1])
    def test_window_of_another_shape_is_refused(self, layers, quotient):
        """Each window must be (observed frames, joints, 3) for the model,
        with or without sublayers to trip over another shape."""
        params = net.ModelParams.init(small_cfg(layers=layers,
                                                use_quotient=quotient).model_dims(3), 0)
        predict = tr.make_predictor(params, quotient, 0.01)
        obs = small_dataset().windows[0].observed  # (4, 3, 3)
        assert predict(obs).shape == (3, 3, 3)
        for bad in (obs[1:], np.concatenate([obs, obs[:1]]), obs[..., :2], obs[0],
                    np.stack([obs[1:]] * 2)):
            with pytest.raises(DimsMismatch, match=r"must be \(4, 3, 3\)"):
                predict(bad)
        for bad in (obs[:, :2], np.stack([np.concatenate([obs, obs], axis=1)] * 2)):
            with pytest.raises(SkeletonMismatch, match="has 3 joints"):
                predict(bad)

    def test_matches_manual_forward(self):
        ds = small_dataset()
        t = tr.Trainer(ds, small_cfg())
        predict = tr.make_predictor(t.params, True, 0.01)
        obs = np.stack([w.observed for w in ds.windows[:2]])
        feats, _ = net.build_features(obs, 0, True, 0.01)
        p32 = net.ModelParams(t.params.dims, t.params.vec.astype(np.float32))
        with ad.no_grad():
            act = net.forward_backbone(feats.astype(np.float32), None, p32, last_frame=True)
            want = net.heads(act, p32, "pred").data.astype(np.float64)
        assert np.array_equal(predict(obs), want)

    @pytest.mark.parametrize("joints", [5, 22])
    @pytest.mark.parametrize("lowrank", [True, False], ids=["lowrank", "full"])
    def test_float32_pass_is_close_to_float64(self, joints, lowrank):
        cfg = tr.TrainConfig(use_lowrank=lowrank)
        params = net.ModelParams.init(cfg.model_dims(joints), seed=1)
        params.vec += np.random.default_rng(2).normal(scale=0.05, size=params.vec.size)
        seq = synth_generate("sinusoid", joints=joints, frames=40, fps=25.0, seed=3)
        ds = make_windows([seq], n_observed=cfg.obs_frames, n_future=cfg.future_frames,
                          stride=2)
        obs = np.stack([w.observed for w in ds.windows])
        feats, _ = net.build_features(obs, 0, True, cfg.input_gain)
        with ad.no_grad():
            act = net.forward_backbone(feats, None, params, last_frame=True)
            want = net.heads(act, params, "pred").data
        got = tr.make_predictor(params, True, cfg.input_gain)(obs)
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()

    def test_is_a_snapshot_of_the_weights(self):
        ds = small_dataset()
        t = tr.Trainer(ds, small_cfg(epochs=2))
        predict = tr.make_predictor(t.params, True, 0.01)
        obs = ds.windows[0].observed
        before = predict(obs)
        vec = t.params.vec.copy()
        t.run()
        assert not np.array_equal(t.params.vec, vec)
        assert np.array_equal(predict(obs), before)

    @staticmethod
    def _model_and_windows(joints, count, lowrank=True, quotient=True, layers=2):
        """Default-size weights moved off the init point, and count J-joint windows."""
        cfg = tr.TrainConfig(use_lowrank=lowrank, use_quotient=quotient, layers=layers)
        params = net.ModelParams.init(cfg.model_dims(joints), seed=1)
        params.vec += np.random.default_rng(2).normal(scale=0.05, size=params.vec.size)
        span = cfg.obs_frames + cfg.future_frames
        seq = synth_generate("sinusoid", joints=joints, frames=span + count - 1, fps=25.0,
                             seed=3)
        ds = make_windows([seq], n_observed=cfg.obs_frames, n_future=cfg.future_frames,
                          stride=1)
        return cfg, params, np.stack([w.observed for w in ds.windows])

    @staticmethod
    def _one_pass(params, obs, cfg):
        feats, _ = net.build_features(obs, 0, cfg.use_quotient, cfg.input_gain)
        p32 = net.ModelParams(params.dims, params.vec.astype(np.float32))
        with ad.no_grad():
            act = net.forward_backbone(feats.astype(np.float32), None, p32, last_frame=True)
            return net.heads(act, p32, "pred").data.astype(np.float64)

    @staticmethod
    def _slice_lengths(monkeypatch):
        """The window counts of every backbone pass from here on."""
        lengths = []
        forward = net.forward_backbone

        def recording(features, *args, **kwargs):
            lengths.append(len(features))
            return forward(features, *args, **kwargs)

        monkeypatch.setattr(net, "forward_backbone", recording)
        return lengths

    @pytest.mark.parametrize("joints", [5, 22])
    @pytest.mark.parametrize("lowrank", [True, False], ids=["lowrank", "full"])
    @pytest.mark.parametrize("quotient", [True, False], ids=["quotient", "raw"])
    def test_slices_give_the_one_pass_bytes(self, monkeypatch, joints, lowrank, quotient):
        """Several slices and a remainder at the real budget: the bytes of one
        unsliced pass, and of each window predicted alone at the slices' edges."""
        dims = tr.TrainConfig(use_lowrank=lowrank, use_quotient=quotient).model_dims(joints)
        per = max(1, tr._SLICE_ENTRIES // (dims.window * dims.joints * dims.d_model))
        cfg, params, obs = self._model_and_windows(joints, 2 * per + 3, lowrank, quotient)
        predict = tr.make_predictor(params, quotient, cfg.input_gain)
        lengths = self._slice_lengths(monkeypatch)
        got = predict(obs)
        assert lengths == [per, per, 3]
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.tobytes() == self._one_pass(params, obs, cfg).tobytes()
        for i in (0, per - 1, per, 2 * per, len(obs) - 1):
            assert predict(obs[i]).tobytes() == got[i].tobytes(), i

    @pytest.mark.parametrize("layers", [0, 1, 2])
    @pytest.mark.parametrize("joints", [5, 22])
    @pytest.mark.parametrize("lowrank", [True, False], ids=["lowrank", "full"])
    @pytest.mark.parametrize("quotient", [True, False], ids=["quotient", "raw"])
    def test_no_grad_pass_gives_the_graph_pass_bytes(self, layers, joints, lowrank, quotient):
        """The predictor's no-grad pass, whose rank folds are made once per
        snapshot, against forward_backbone then the pred head with gradients
        on, on the same float32 snapshot: 1 window, one slice, one slice + 1."""
        dims = tr.TrainConfig(use_lowrank=lowrank, use_quotient=quotient,
                              layers=layers).model_dims(joints)
        per = max(1, tr._SLICE_ENTRIES // (dims.window * dims.joints * dims.d_model))
        cfg, params, obs = self._model_and_windows(joints, per + 1, lowrank, quotient, layers)
        predict = tr.make_predictor(params, quotient, cfg.input_gain)
        p32 = net.ModelParams(params.dims, params.vec.astype(np.float32))
        feats, _ = net.build_features(obs, 0, quotient, cfg.input_gain)
        for n in (1, per, per + 1):
            act = net.forward_backbone(feats[:n].astype(np.float32), None, p32, last_frame=True)
            want = net.heads(act, p32, "pred")
            assert want.requires_grad  # the graph pass
            assert predict(obs[:n]).tobytes() == want.data.astype(np.float64).tobytes(), n

    @pytest.mark.parametrize("count, lengths", [
        (1, [1]), (4, [4]), (5, [4, 1]), (14, [4, 4, 4, 2])])
    def test_batch_sizes_around_a_slice(self, monkeypatch, count, lengths):
        """A batch that fits one slice runs as one pass; a larger one in order."""
        cfg, params, obs = self._model_and_windows(22, count)
        dims = params.dims
        per_window = dims.window * dims.joints * dims.d_model
        monkeypatch.setattr(tr, "_SLICE_ENTRIES", 4 * per_window + 7)
        predict = tr.make_predictor(params, True, cfg.input_gain)
        seen = self._slice_lengths(monkeypatch)
        got = predict(obs)
        assert seen == lengths
        assert got.tobytes() == self._one_pass(params, obs, cfg).tobytes()

    def test_a_window_over_the_budget_runs_alone(self, monkeypatch):
        cfg, params, obs = self._model_and_windows(5, 3)
        monkeypatch.setattr(tr, "_SLICE_ENTRIES", 1)
        predict = tr.make_predictor(params, True, cfg.input_gain)
        seen = self._slice_lengths(monkeypatch)
        got = predict(obs)
        assert seen == [1, 1, 1]
        assert got.tobytes() == self._one_pass(params, obs, cfg).tobytes()

    def test_memory_is_bounded_by_the_slice(self):
        """A 256-window J=22 call peaks near one slice's activations, plus the
        features and the output, not near the whole batch's activations (119
        slice activations at the default budget before the slicing)."""
        cfg, params, obs = self._model_and_windows(22, 256)
        predict = tr.make_predictor(params, True, cfg.input_gain)
        predict(obs[:1])
        tracemalloc.start()
        try:
            out = predict(obs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the float64 features and targets and the float32 features take
        # about 3.3 obs-sizes; a pass holds about 9 slice activations at once
        assert peak <= out.nbytes + 4 * obs.nbytes + 16 * 4 * tr._SLICE_ENTRIES

    @pytest.mark.parametrize("layers", [1, 0])
    @pytest.mark.parametrize("lowrank", [True, False], ids=["lowrank", "full"])
    def test_pass_builds_only_float32(self, monkeypatch, layers, lowrank):
        """Every array of the no-grad pass seen here is float32: each Tensor,
        the kernels' operands and outputs, each sublayer's input and output,
        each einsum's operands and result, and the backbone's and the pred
        head's inputs and outputs. So a float64 operand that promotes the
        pass fails here, with or without sublayers, whether the head builds
        Tensors or plain arrays."""
        ds = small_dataset()
        params = net.ModelParams.init(small_cfg(layers=layers, use_lowrank=lowrank).model_dims(3), 0)
        predict = tr.make_predictor(params, True, 0.01)
        dtypes = {kind: [] for kind in ("tensor", "kernel", "sublayer", "einsum", "backbone",
                                        "heads")}
        init = ad.Tensor.__init__

        def counting_init(self, data, requires_grad=False):
            init(self, data, requires_grad)
            dtypes["tensor"].append(self.data.dtype)

        def recording(kind, fn):
            def run(*args, **kwargs):
                out = fn(*args, **kwargs)
                for a in (*args, *(out if isinstance(out, tuple) else (out,))):
                    a = a.data if isinstance(a, ad.Tensor) else a
                    if isinstance(a, np.ndarray):
                        dtypes[kind].append(a.dtype)
                return out
            return run

        monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
        for name in ("softmax_forward", "layer_norm_forward", "gelu_forward"):
            monkeypatch.setattr(ad, name, recording("kernel", getattr(ad, name)))
        monkeypatch.setattr(net, "_sublayer_forward", recording("sublayer", net._sublayer_forward))
        monkeypatch.setattr(np, "einsum", recording("einsum", np.einsum))
        monkeypatch.setattr(net, "forward_backbone", recording("backbone", net.forward_backbone))
        monkeypatch.setattr(net, "heads", recording("heads", net.heads))
        out = predict(np.stack([w.observed for w in ds.windows[:2]]))
        assert out.dtype == np.float64
        # one slice: the features in, the activation out, and on to the head
        assert len(dtypes["backbone"]) == len(dtypes["heads"]) == 2
        assert len(dtypes["sublayer"]) == 2 * 3 * layers
        # each layer norm's row sum and sum of squares: 5 arrays, 3 a layer
        assert len(dtypes["einsum"]) >= 15 * layers
        assert sum(map(len, dtypes.values())) > (10 if layers else 5)
        assert {d for seen in dtypes.values() for d in seen} == {np.dtype(np.float32)}
