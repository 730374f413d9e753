"""Optimizer fixtures, alternating-update bookkeeping, checkpoint format,
and the bitwise determinism / resume contract."""
import dataclasses
import json
import struct
import warnings

import numpy as np
import pytest

import mqmotion.network as net
import mqmotion.train as tr
from mqmotion.core import MotionSequence, Skeleton
from mqmotion.dataio import make_windows, synth_generate
from mqmotion.errors import AbortStep, FormatError, MaskTermSkipped

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
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            small_cfg(**bad)

    def test_weights_mapping(self):
        cfg = small_cfg(alpha1=0.5, alpha2=2.0, beta1=0.8, beta2=0.2,
                        gp_lambda=5.0)
        w = cfg.weights()
        assert (w.alpha1, w.alpha2, w.beta1, w.beta2, w.gp_lambda) == \
            (0.5, 2.0, 0.8, 0.2, 5.0)

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
        assert pv("grad_clip", "") is None
        assert pv("grad_clip", "2.5") == 2.5
        assert pv("max_steps", "100") == 100

    @pytest.mark.parametrize("key,raw", [
        ("nonsense", "1"), ("use_quotient", "maybe"), ("epochs", "ten"),
        ("lr", "fast"),
    ])
    def test_parse_value_rejects(self, key, raw):
        with pytest.raises(FormatError):
            tr.TrainConfig.parse_value(key, raw)


class TestAdam:
    def test_first_step_closed_form(self):
        g = np.array([1.0, -2.0, 0.5])
        p = np.zeros(3)
        state = tr.Adam(3, lr=0.1)
        state.step(p, g)
        want = -0.1 * g / (np.abs(g) + EPS)
        assert np.allclose(p, want, rtol=1e-12)
        assert state.t == 1

    def test_updates_in_place(self):
        p = np.zeros(2)
        out = tr.Adam(2, lr=0.1).step(p, np.ones(2))
        assert out is p
        assert np.all(p != 0.0)

    def test_aborts_on_nonfinite_gradient(self):
        state = tr.Adam(3, lr=0.1)
        p = np.ones(3)
        before = p.copy()
        with pytest.raises(AbortStep):
            state.step(p, np.array([1.0, np.nan, 2.0]))
        assert state.t == 0
        assert np.array_equal(p, before)

    def test_clip_global_norm(self):
        g = np.array([3.0, 4.0])
        assert tr._clip_global_norm(g, None) is g
        assert tr._clip_global_norm(g, 10.0) is g
        clipped = tr._clip_global_norm(g, 1.0)
        assert abs(np.linalg.norm(clipped) - 1.0) < 1e-12
        assert np.allclose(clipped, g / 5.0, rtol=1e-12)


class TestTrainerSetup:
    def test_window_shape_must_match_config(self):
        with pytest.raises(ValueError):
            tr.Trainer(small_dataset(), small_cfg(obs_frames=5))

    def test_empty_dataset_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ds = make_windows([synth_generate("constant", 2, 5, 25.0, 0)],
                              n_observed=4, n_future=3)
        with pytest.raises(ValueError):
            tr.Trainer(ds, small_cfg())

    def test_foreign_params_rejected(self):
        params = net.ModelParams.init(small_cfg().model_dims(7), seed=0)
        with pytest.raises(ValueError):
            tr.Trainer(small_dataset(), small_cfg(), params=params)

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


class TestUpdates:
    def setup_method(self):
        self.ds = small_dataset()
        self.trainer = tr.Trainer(self.ds, small_cfg())
        self.batch = self.trainer._prepare_batch(np.array([0, 1, 2, 3]), 0)

    def test_critic_update_touches_only_critic_params(self):
        t = self.trainer
        gen_before = t.params.flat(t.gen_names).copy()
        critic_before = t.params.flat(t.critic_names).copy()
        t.critic_update(self.batch)
        assert np.array_equal(t.params.flat(t.gen_names), gen_before)
        assert not np.array_equal(t.params.flat(t.critic_names), critic_before)
        assert t.adam_critic.t == 1 and t.adam_gen.t == 0

    def test_generator_update_touches_only_generator_params(self):
        t = self.trainer
        gen_before = t.params.flat(t.gen_names).copy()
        critic_before = t.params.flat(t.critic_names).copy()
        t.generator_update(self.batch, gp_term=0.0)
        assert not np.array_equal(t.params.flat(t.gen_names), gen_before)
        assert np.array_equal(t.params.flat(t.critic_names), critic_before)
        assert t.adam_gen.t == 1 and t.adam_critic.t == 0

    def test_report_identities(self):
        report = self.trainer.generator_update(self.batch, gp_term=1.5)
        w = self.trainer.weights
        comp = report.l_pred + w.alpha1 * report.l_mask + \
            w.alpha2 * report.l_denoise
        assert abs(report.l_composite - comp) < 1e-12
        total = w.beta1 * report.l_composite + w.beta2 * report.l_adv
        assert abs(report.l_total - total) < 1e-12
        assert report.gp_term == 1.5

    def test_perturbation_off_zeroes_reconstruction_terms(self):
        t = tr.Trainer(self.ds, small_cfg(use_perturbation=False))
        batch = t._prepare_batch(np.array([0, 1]), 0)
        assert not batch["token_mask"].any()
        assert np.array_equal(batch["masked"], batch["features"])
        report = t.generator_update(batch, gp_term=0.0)
        assert report.l_mask == 0.0 and report.l_denoise == 0.0
        assert report.l_pred > 0.0

    def test_mask_probability_zero_warns_and_zeroes_term(self):
        t = tr.Trainer(self.ds, small_cfg(p_m=0.0))
        batch = t._prepare_batch(np.array([0, 1]), 0)
        with pytest.warns(MaskTermSkipped):
            report = t.generator_update(batch, gp_term=0.0)
        assert report.l_mask == 0.0

    def test_huge_clip_matches_no_clip(self):
        a = tr.Trainer(self.ds, small_cfg(grad_clip=1e12))
        b = tr.Trainer(self.ds, small_cfg(grad_clip=None))
        ba = a._prepare_batch(np.array([0, 1, 2, 3]), 0)
        bb = b._prepare_batch(np.array([0, 1, 2, 3]), 0)
        a.critic_update(ba)
        b.critic_update(bb)
        a.generator_update(ba, 0.0)
        b.generator_update(bb, 0.0)
        assert np.array_equal(a.params.flat(), b.params.flat())


    def test_one_clean_forward_per_step(self, monkeypatch):
        calls = []
        real = net.forward_backbone

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(net, "forward_backbone", counting)
        tr.Trainer(self.ds, small_cfg(max_steps=1)).run()
        assert len(calls) == 3  # clean (shared by critic and generator), masked, noised

    def test_reused_batch_recomputes_prediction(self):
        idxs = np.array([0, 1, 2, 3])
        a = tr.Trainer(self.ds, small_cfg())
        b = tr.Trainer(self.ds, small_cfg())
        batch = a._prepare_batch(idxs, 0)
        a.critic_update(batch)
        a.generator_update(batch, 0.0)
        reused = a.generator_update(batch, 0.0)
        b.critic_update(b._prepare_batch(idxs, 0))
        b.generator_update(b._prepare_batch(idxs, 0), 0.0)
        fresh = b.generator_update(b._prepare_batch(idxs, 0), 0.0)
        assert reused == fresh
        assert np.array_equal(a.params.flat(), b.params.flat())


class TestRun:
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
        assert np.array_equal(state.params.flat(), init.flat())

    def test_step_and_batch_accounting(self):
        result = tr.train(small_dataset(), small_cfg(epochs=2))
        assert len(result.reports) == 4
        assert [step for step, _ in result.reports] == [0, 1, 2, 3]
        assert result.epochs_run == 2

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

    def test_bitwise_deterministic_in_seed(self):
        a = tr.train(small_dataset(), small_cfg(epochs=1))
        b = tr.train(small_dataset(), small_cfg(epochs=1))
        c = tr.train(small_dataset(), small_cfg(epochs=1, seed=1))
        assert np.array_equal(a.params.flat(), b.params.flat())
        assert not np.array_equal(a.params.flat(), c.params.flat())


class TestCheckpoint:
    def run_short(self, tmp_path, **over):
        ckpt = tmp_path / "state.mqck"
        cfg = small_cfg(**over)
        tr.train(small_dataset(), cfg, checkpoint_path=ckpt)
        return ckpt, cfg

    def test_round_trip_is_bitwise(self, tmp_path):
        ckpt, cfg = self.run_short(tmp_path)
        ds = small_dataset()
        trainer = tr.load_trainer(ckpt, ds)
        assert trainer.cfg == cfg
        assert trainer.epoch == 1 and trainer.batch_index == 0
        assert trainer.global_step == 2
        assert trainer.adam_gen.t == 2 and trainer.adam_critic.t == 2
        resaved = tmp_path / "again.mqck"
        trainer.save(resaved)
        assert resaved.read_bytes() == ckpt.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        ckpt, _ = self.run_short(tmp_path)
        raw = bytearray(ckpt.read_bytes())
        raw[:4] = b"XQCK"
        ckpt.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            tr.load_checkpoint(ckpt)

    def test_unknown_version_rejected(self, tmp_path):
        ckpt, _ = self.run_short(tmp_path)
        raw = bytearray(ckpt.read_bytes())
        raw[4] = 99
        ckpt.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
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
    ], ids=["no_config", "config_not_object", "no_dims", "no_counts",
            "no_critic_count", "unknown_config_key", "bad_config_value",
            "bad_config_type", "bad_dims_value", "no_sigma"])
    def test_header_schema_rejected(self, tmp_path, edit):
        ckpt, _ = self.run_short(tmp_path)
        rewrite_header(ckpt, edit)
        with pytest.raises(FormatError):
            tr.load_checkpoint(ckpt)

    @pytest.mark.parametrize("threads", [1, 0])
    def test_legacy_threads_key_loads_and_resumes(self, tmp_path, threads):
        # older versions wrote a "threads" config entry that nothing read
        cfg_full = small_cfg(epochs=2)
        straight = tmp_path / "straight.mqck"
        tr.train(small_dataset(), cfg_full, checkpoint_path=straight)
        ckpt = tmp_path / "mid.mqck"
        tr.train(small_dataset(), dataclasses.replace(cfg_full, max_steps=3),
                 checkpoint_path=ckpt)
        rewrite_header(ckpt, lambda h: h["config"].update(threads=threads,
                                                          max_steps=None))
        assert tr.load_checkpoint(ckpt).cfg == cfg_full
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr.train(small_dataset(), cfg_full, checkpoint_path=ckpt, resume_from=ckpt)
        assert ckpt.read_bytes() == straight.read_bytes()

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        cfg_full = small_cfg(epochs=2)
        straight = tr.train(small_dataset(), cfg_full)

        ckpt = tmp_path / "mid.mqck"
        cfg_cut = dataclasses.replace(cfg_full, max_steps=3)
        tr.train(small_dataset(), cfg_cut, checkpoint_path=ckpt)
        resumed = tr.load_trainer(ckpt, small_dataset())
        assert resumed.epoch == 1 and resumed.batch_index == 1
        resumed.cfg = dataclasses.replace(resumed.cfg, max_steps=None)
        result = resumed.run()
        assert [step for step, _ in result.reports] == [3]
        assert np.array_equal(result.params.flat(), straight.params.flat())
        assert np.array_equal(resumed.adam_gen.m, np.zeros(0)) is False
        assert resumed.adam_gen.t == 4

    def test_resume_with_differing_config_warns(self, tmp_path):
        ckpt, cfg = self.run_short(tmp_path)
        other = dataclasses.replace(cfg, lr=0.5)
        with pytest.warns(UserWarning, match="checkpoint's config wins"):
            tr.train(small_dataset(), other, resume_from=ckpt)


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

    def test_matches_manual_forward(self):
        ds = small_dataset()
        t = tr.Trainer(ds, small_cfg())
        predict = tr.make_predictor(t.params, True, 0.01)
        obs = np.stack([w.observed for w in ds.windows[:2]])
        feats, _ = net.build_features(obs, 0, True, 0.01)
        want = net.heads(net.forward_backbone(feats, None, t.params),
                         t.params)["pred"].data
        assert np.array_equal(predict(obs), want)
