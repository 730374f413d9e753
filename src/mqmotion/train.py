"""Training loop: alternating critic/generator Adam updates, checkpoints.

Determinism contract: given the same dataset, config, and seed, every run
produces bitwise-identical parameters and logs. All randomness is drawn
from counter-derived Philox streams named by (seed, label, epoch/step/
window ids), never from advancing shared state, so a checkpoint only
needs the loop counters to resume exactly.

Checkpoint container (little-endian):
    bytes 0..3    magic ``MQCK``
    bytes 4..7    u32 format version, currently 1
    bytes 8..15   u64 byte length H of the JSON header
    bytes 16..16+H UTF-8 JSON header with fields:
        dims         ModelDims fields (joints, window, future, in_channels,
                     d_model, rank, heads, layers, critic_width, ffn_mult,
                     head_gain, lowrank)
        config       TrainConfig fields by name
        sigma        resolved noise std actually used
        root_index   skeleton root used for feature building
        epoch        next epoch index to run
        batch_index  next batch index within that epoch
        global_step  generator steps completed
        adam         {"generator": {"t": int}, "critic": {"t": int}}
        params       [[name, [shape...]], ...] in flat-index order
        counts       {"total": N, "generator": n, "critic": m}
    then five raw float64 blobs, in order:
        full flat parameter vector (N), generator Adam m (n), v (n),
        critic Adam m (m), v (m)
"""
from __future__ import annotations

import json
import struct
import warnings
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import _kernels
from . import autodiff as ad
from . import losses as lo
from . import network as net
from . import perturb
from . import streams
from .autodiff import Tensor
from .dataio import WindowedDataset
from .errors import AbortStep, DimsMismatch, FormatError, NumericalInstability
from .losses import LossReport, LossWeights

CHECKPOINT_MAGIC = b"MQCK"
CHECKPOINT_VERSION = 1

LOG_COLUMNS = ("step", "l_pred", "l_mask", "l_denoise", "l_adv", "gp_term", "l_total")


@dataclass(frozen=True)
class TrainConfig:
    """Every tunable of a training run. Flat key=value config files and CLI
    flags both resolve into this; precedence is flag > file > default."""

    lr: float = 0.001
    epochs: int = 15
    batch_size: int = 16
    alpha1: float = 1.0
    alpha2: float = 1.0
    beta1: float = 0.9
    beta2: float = 0.1
    gp_lambda: float = 10.0
    p_m: float = 0.1
    p_n: float = 0.1
    sigma: float | None = None  # None: 0.05 * global feature std
    critic_steps: int = 1
    seed: int = 0
    use_quotient: bool = True      # ablation flag D
    use_perturbation: bool = True  # ablation flag E
    use_lowrank: bool = True       # ablation flag L
    d_model: int = 32
    rank: int = 8
    heads: int = 4
    layers: int = 2
    obs_frames: int = 10
    future_frames: int = 25
    critic_width: int = 64
    ffn_mult: int = 2
    head_gain: float = 100.0
    input_gain: float = 0.01
    grad_clip: float | None = 10.0
    max_steps: int | None = None

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1 or self.critic_steps < 1:
            raise ValueError("epochs >= 0, batch_size >= 1, critic_steps >= 1 required")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        self.weights()  # LossWeights validates the loss weights
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.obs_frames < 2 or self.future_frames < 1:
            raise ValueError("obs_frames >= 2 and future_frames >= 1 required")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ValueError(f"grad_clip must be positive or None, got {self.grad_clip}")

    def weights(self) -> LossWeights:
        return LossWeights(self.alpha1, self.alpha2, self.beta1, self.beta2, self.gp_lambda)

    def model_dims(self, joints: int) -> net.ModelDims:
        return net.ModelDims(
            joints=joints,
            window=net.token_count(self.obs_frames, self.use_quotient),
            future=self.future_frames,
            in_channels=net.QUOTIENT_CHANNELS if self.use_quotient else net.RAW_CHANNELS,
            d_model=self.d_model,
            rank=self.rank,
            heads=self.heads,
            layers=self.layers,
            critic_width=self.critic_width,
            ffn_mult=self.ffn_mult,
            head_gain=self.head_gain,
            lowrank=self.use_lowrank,
        )

    _OPTIONAL_FLOATS = ("sigma", "grad_clip")
    _OPTIONAL_INTS = ("max_steps",)
    _BOOLS = ("use_quotient", "use_perturbation", "use_lowrank")
    _INTS = (
        "epochs", "batch_size", "critic_steps", "seed", "d_model", "rank", "heads",
        "layers", "obs_frames", "future_frames", "critic_width", "ffn_mult",
    )

    @classmethod
    def parse_value(cls, key: str, raw: str):
        """Parse one key=value pair from a flat config file."""
        if key not in cls.__dataclass_fields__:
            raise FormatError(f"unknown config key {key!r}")
        low = raw.strip().lower()
        if key in cls._OPTIONAL_FLOATS or key in cls._OPTIONAL_INTS:
            if low in ("none", ""):
                return None
        try:
            if key in cls._BOOLS:
                if low in ("1", "true", "yes", "on"):
                    return True
                if low in ("0", "false", "no", "off"):
                    return False
                raise ValueError(f"not a boolean: {raw!r}")
            if key in cls._INTS or key in cls._OPTIONAL_INTS:
                return int(raw)
            return float(raw)
        except ValueError as exc:
            raise FormatError(f"bad value for {key!r}: {exc}") from None


class Adam:
    """Bias-corrected Adam over a flat vector; state is (m, v, t)."""

    def __init__(self, n: int, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0

    def step(self, p: np.ndarray, g: np.ndarray) -> np.ndarray:
        """One in-place update of p; raises AbortStep on non-finite grads."""
        bad = ~np.isfinite(g)
        if bad.any():
            raise AbortStep(
                f"{int(bad.sum())} non-finite gradient entries "
                f"(first at flat index {int(np.argmax(bad))}); step aborted"
            )
        self.t += 1
        _kernels.adam_update(p, g, self.m, self.v, self.t, self.lr, self.beta1,
                             self.beta2, self.eps)
        return p


def _clip_global_norm(g: np.ndarray, clip: float | None) -> np.ndarray:
    if clip is None:
        return g
    norm = float(np.sqrt(g @ g))
    if norm > clip:
        g = g * (clip / norm)
    return g


@dataclass
class TrainResult:
    params: net.ModelParams
    reports: list[tuple[int, LossReport]]
    sigma: float
    epochs_run: int


class Trainer:
    """Owns parameters, optimizer states, and the deterministic schedule."""

    def __init__(self, dataset: WindowedDataset, cfg: TrainConfig,
                 params: net.ModelParams | None = None):
        if len(dataset) == 0:
            raise ValueError("dataset has no windows")
        if dataset.n_observed != cfg.obs_frames or dataset.n_future != cfg.future_frames:
            raise ValueError(
                f"dataset windows ({dataset.n_observed}, {dataset.n_future}) disagree "
                f"with config ({cfg.obs_frames}, {cfg.future_frames})"
            )
        self.dataset = dataset
        self.cfg = cfg
        self.root_index = dataset.skeleton.root_index
        dims = cfg.model_dims(dataset.skeleton.joint_count)
        self.params = params if params is not None else net.ModelParams.init(dims, cfg.seed)
        if self.params.dims != dims:
            raise ValueError("provided parameters disagree with the config dims")
        self.gen_names = self.params.generator_names
        self.critic_names = self.params.critic_names
        self.adam_gen = Adam(sum(self.params.tensors[n].size for n in self.gen_names), cfg.lr)
        self.adam_critic = Adam(
            sum(self.params.tensors[n].size for n in self.critic_names), cfg.lr
        )
        self.sigma = cfg.sigma if cfg.sigma is not None else self._auto_sigma()
        self.epoch = 0
        self.batch_index = 0
        self.global_step = 0
        self.weights = cfg.weights()

    def _auto_sigma(self) -> float:
        obs = np.stack([w.observed for w in self.dataset.windows])
        feats, _ = net.build_features(obs, self.root_index, self.cfg.use_quotient,
                                      self.cfg.input_gain)
        std = float(feats.std())
        return 0.05 * std if std > 0 else 1e-8

    # deterministic schedule helpers

    def _epoch_order(self, epoch: int) -> np.ndarray:
        return streams.stream(self.cfg.seed, streams.SHUFFLE, epoch).permutation(
            len(self.dataset)
        )

    def _batches(self, epoch: int) -> list[np.ndarray]:
        order = self._epoch_order(epoch)
        bs = self.cfg.batch_size
        return [order[i : i + bs] for i in range(0, len(order), bs)]

    def _prepare_batch(self, idxs: np.ndarray, epoch: int) -> dict:
        ws = [self.dataset.windows[int(i)] for i in idxs]
        obs = np.stack([w.observed for w in ws])
        fut = np.stack([w.future for w in ws])
        feats, recon_targets = net.build_features(
            obs, self.root_index, self.cfg.use_quotient, self.cfg.input_gain
        )
        masked = np.empty_like(feats)
        noised = np.empty_like(feats)
        mask_flags = np.zeros(feats.shape, dtype=np.bool_)
        for i, w in enumerate(ws):
            wseed = streams.derive_seed(
                self.cfg.seed, streams.CORRUPT, epoch, w.seq_index, w.start
            )
            pb = perturb.build_batch(
                feats[i], self.cfg.p_m, self.cfg.p_n, self.sigma, wseed,
                enabled=self.cfg.use_perturbation,
            )
            masked[i] = pb.masked
            noised[i] = pb.noised
            mask_flags[i] = pb.mask.flags
        return {
            "obs": obs,
            "fut": fut,
            "features": feats,
            "masked": masked,
            "noised": noised,
            "token_mask": mask_flags.any(axis=-1),
            "recon_targets": recon_targets,
        }

    def _clean_prediction(self, batch: dict) -> Tensor:
        """The batch's clean-feature prediction, with its graph, built once.

        Critic steps write only critic tensors, so the critic steps and the
        generator step of one batch all see the same generator weights. The
        prediction is kept in the batch under "pred" until generator_update
        takes it out.
        """
        pred = batch.get("pred")
        if pred is None:
            act = net.forward_backbone(batch["features"], None, self.params)
            pred = batch["pred"] = net.heads(act, self.params)["pred"]
        return pred

    # critic side

    def _fidelity_rows(self, frames) -> Tensor:
        scaled = ad.mul(ad.as_tensor(frames), self.cfg.input_gain)
        return net.fidelity_inputs(scaled)

    def _continuity_rows(self, window) -> Tensor:
        scaled = ad.mul(ad.as_tensor(window), self.cfg.input_gain)
        return net.continuity_inputs(scaled)

    def _seam_window(self, obs_last, future) -> Tensor:
        """Last observed frame concatenated ahead of the future frames."""
        last = ad.as_tensor(obs_last)
        last = ad.reshape(last, (last.shape[0], 1) + tuple(last.shape[1:]))
        return ad.concat([last, ad.as_tensor(future)], axis=1)

    def critic_update(self, batch: dict, substep: int = 0) -> tuple[float, float]:
        """One critic Adam step; returns (critic loss, summed gp term)."""
        cfg = self.cfg
        fake = self._clean_prediction(batch).data
        real_fid = self._fidelity_rows(batch["fut"]).data
        fake_fid = self._fidelity_rows(fake).data
        real_win = self._seam_window(batch["obs"][:, -1], batch["fut"]).data
        fake_win = self._seam_window(batch["obs"][:, -1], fake).data
        real_cont = self._continuity_rows(real_win).data
        fake_cont = self._continuity_rows(fake_win).data

        seed_f = streams.derive_seed(cfg.seed, streams.INTERP, self.global_step, substep, 0)
        seed_c = streams.derive_seed(cfg.seed, streams.INTERP, self.global_step, substep, 1)
        fid_fn = lambda x: net.discriminate_fidelity(x, self.params)
        cont_fn = lambda x: net.discriminate_continuity(x, self.params)
        closs_f, gp_f, _ = lo.loss_adversarial(fid_fn, real_fid, fake_fid,
                                               cfg.gp_lambda, seed_f)
        closs_c, gp_c, _ = lo.loss_adversarial(cont_fn, real_cont, fake_cont,
                                               cfg.gp_lambda, seed_c)
        closs = ad.add(closs_f, closs_c)
        grads = net.parameter_gradients(closs, self.params, self.critic_names)
        grads = _clip_global_norm(grads, cfg.grad_clip)
        vec = self.params.flat(self.critic_names)
        self.adam_critic.step(vec, grads)
        self.params.set_flat(vec, self.critic_names)
        return closs.item(), gp_f.item() + gp_c.item()

    # generator side

    def generator_update(self, batch: dict, gp_term: float) -> LossReport:
        """One generator Adam step; returns the logged LossReport."""
        cfg = self.cfg
        pred = self._clean_prediction(batch)
        del batch["pred"]  # this step changes the weights it was computed with
        l_pred = lo.prediction_loss(pred, batch["fut"])
        if cfg.use_perturbation:
            act_m = net.forward_backbone(batch["masked"], batch["token_mask"], self.params)
            recon_m = net.heads(act_m, self.params)["mask_recon"]
            l_mask = lo.masked_reconstruction_loss(
                recon_m, batch["recon_targets"], batch["token_mask"]
            )
            act_d = net.forward_backbone(batch["noised"], None, self.params)
            recon_d = net.heads(act_d, self.params)["denoise_recon"]
            l_denoise = lo.denoise_reconstruction_loss(recon_d, batch["recon_targets"])
        else:
            l_mask = Tensor(0.0)
            l_denoise = Tensor(0.0)
        composite = lo.loss_composite(l_pred, l_mask, l_denoise, self.weights)

        fake_fid = net.fidelity_inputs(ad.mul(pred, cfg.input_gain))
        fake_win = self._seam_window(batch["obs"][:, -1], pred)
        fake_cont = net.continuity_inputs(ad.mul(fake_win, cfg.input_gain))
        adv = ad.add(
            ad.neg(ad.tmean(net.discriminate_fidelity(fake_fid, self.params))),
            ad.neg(ad.tmean(net.discriminate_continuity(fake_cont, self.params))),
        )
        total = lo.loss_total(composite, adv, self.weights)
        if not np.isfinite(total.data).all():
            raise NumericalInstability(f"non-finite generator loss at step {self.global_step}")
        grads = net.parameter_gradients(total, self.params, self.gen_names)
        grads = _clip_global_norm(grads, cfg.grad_clip)
        vec = self.params.flat(self.gen_names)
        self.adam_gen.step(vec, grads)
        self.params.set_flat(vec, self.gen_names)
        return lo.make_report(
            l_pred.item(), l_mask.item(), l_denoise.item(), adv.item(), gp_term,
            self.weights,
        )

    # loop

    def run(self, log_path: str | Path | None = None,
            checkpoint_path: str | Path | None = None) -> TrainResult:
        cfg = self.cfg
        reports: list[tuple[int, LossReport]] = []
        done = cfg.max_steps is not None and self.global_step >= cfg.max_steps
        while self.epoch < cfg.epochs and not done:
            batches = self._batches(self.epoch)
            while self.batch_index < len(batches):
                idxs = batches[self.batch_index]
                batch = self._prepare_batch(idxs, self.epoch)
                gp_term = 0.0
                for k in range(cfg.critic_steps):
                    _, gp_term = self.critic_update(batch, k)
                report = self.generator_update(batch, gp_term)
                reports.append((self.global_step, report))
                self.global_step += 1
                self.batch_index += 1
                if cfg.max_steps is not None and self.global_step >= cfg.max_steps:
                    done = True
                    break
            if not done:
                self.epoch += 1
                self.batch_index = 0
            if checkpoint_path is not None:
                self.save(checkpoint_path)
        if checkpoint_path is not None:
            self.save(checkpoint_path)
        if log_path is not None:
            Path(log_path).write_text(log_to_csv(reports))
        return TrainResult(self.params, reports, self.sigma, self.epoch)

    def save(self, path: str | Path) -> None:
        save_checkpoint(
            path, self.params, self.cfg, sigma=self.sigma, root_index=self.root_index,
            epoch=self.epoch, batch_index=self.batch_index, global_step=self.global_step,
            adam_gen=self.adam_gen, adam_critic=self.adam_critic,
        )


def log_to_csv(reports: list[tuple[int, LossReport]]) -> str:
    rows = [",".join(LOG_COLUMNS)]
    for step, r in reports:
        rows.append(
            ",".join([str(step)] + [repr(getattr(r, f)) for f in LOG_COLUMNS[1:]])
        )
    return "\n".join(rows) + "\n"


def train(dataset: WindowedDataset, cfg: TrainConfig,
          log_path: str | Path | None = None,
          checkpoint_path: str | Path | None = None,
          resume_from: str | Path | None = None) -> TrainResult:
    """Train from scratch or resume; returns final params and the log."""
    if resume_from is not None:
        trainer = load_trainer(resume_from, dataset)
        if trainer.cfg != cfg:
            warnings.warn("resume config differs from checkpoint config; "
                          "the checkpoint's config wins", stacklevel=2)
    else:
        trainer = Trainer(dataset, cfg)
    return trainer.run(log_path=log_path, checkpoint_path=checkpoint_path)


# checkpoint serialization

def save_checkpoint(path, params: net.ModelParams, cfg: TrainConfig, *, sigma: float,
                    root_index: int, epoch: int, batch_index: int, global_step: int,
                    adam_gen: Adam, adam_critic: Adam) -> None:
    header = {
        "dims": asdict(params.dims),
        "config": asdict(cfg),
        "sigma": sigma,
        "root_index": root_index,
        "epoch": epoch,
        "batch_index": batch_index,
        "global_step": global_step,
        "adam": {"generator": {"t": adam_gen.t}, "critic": {"t": adam_critic.t}},
        "params": [[n, list(params.tensors[n].shape)] for n in params.names],
        "counts": {
            "total": params.n_params,
            "generator": int(adam_gen.m.size),
            "critic": int(adam_critic.m.size),
        },
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
        struct.pack("<Q", len(blob)),
        blob,
        params.flat().astype("<f8").tobytes(),
        adam_gen.m.astype("<f8").tobytes(),
        adam_gen.v.astype("<f8").tobytes(),
        adam_critic.m.astype("<f8").tobytes(),
        adam_critic.v.astype("<f8").tobytes(),
    ]
    Path(path).write_bytes(b"".join(parts))


@dataclass
class CheckpointState:
    params: net.ModelParams
    cfg: TrainConfig
    sigma: float
    root_index: int
    epoch: int
    batch_index: int
    global_step: int
    adam_gen: Adam
    adam_critic: Adam


def load_checkpoint(path) -> CheckpointState:
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"not a checkpoint: bad magic in {path}")
    (version,) = struct.unpack("<I", raw[4:8])
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    (hlen,) = struct.unpack("<Q", raw[8:16])
    if len(raw) < 16 + hlen:
        raise FormatError("truncated checkpoint header")
    try:
        header = json.loads(raw[16 : 16 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"corrupt checkpoint header: {exc}") from None

    if not isinstance(header, dict) or not all(
            isinstance(header.get(k), dict) for k in ("config", "dims", "counts")):
        raise FormatError("checkpoint header lacks its config, dims or counts object")
    config = dict(header["config"])
    config.pop("threads", None)  # written by older versions, which never read it
    try:
        cfg = TrainConfig(**config)
        dims = net.ModelDims(**header["dims"])
        counts = {k: int(header["counts"][k]) for k in ("total", "generator", "critic")}
        manifest = [(name, tuple(int(d) for d in shape)) for name, shape in header["params"]]
        steps = {k: int(header["adam"][k]["t"]) for k in ("generator", "critic")}
        counters = {k: int(header[k])
                    for k in ("root_index", "epoch", "batch_index", "global_step")}
        sigma = float(header["sigma"])
    except (KeyError, TypeError, ValueError, DimsMismatch) as exc:
        raise FormatError(f"bad checkpoint header: {type(exc).__name__}: {exc}") from None
    need = 16 + hlen + 8 * (counts["total"] + 2 * counts["generator"] + 2 * counts["critic"])
    if len(raw) != need:
        raise FormatError(
            f"truncated checkpoint: have {len(raw)} bytes, header implies {need}"
        )
    off = 16 + hlen

    def pull(n):
        nonlocal off
        arr = np.frombuffer(raw, dtype="<f8", count=n, offset=off).copy()
        off += 8 * n
        return arr

    flat = pull(counts["total"])
    tensors = {}
    pos = 0
    for name, shape in manifest:
        n = int(np.prod(shape)) if shape else 1
        tensors[name] = Tensor(flat[pos : pos + n].reshape(shape), requires_grad=True)
        pos += n
    if pos != counts["total"]:
        raise FormatError("parameter manifest disagrees with blob length")
    params = net.ModelParams(dims, tensors)

    adams = {}
    for k in ("generator", "critic"):
        adams[k] = Adam(counts[k], cfg.lr)
        adams[k].m = pull(counts[k])
        adams[k].v = pull(counts[k])
        adams[k].t = steps[k]
    return CheckpointState(
        params=params, cfg=cfg, sigma=sigma, adam_gen=adams["generator"],
        adam_critic=adams["critic"], **counters,
    )


def load_trainer(path, dataset: WindowedDataset) -> Trainer:
    """Rebuild a Trainer mid-run from a checkpoint."""
    state = load_checkpoint(path)
    trainer = Trainer(dataset, state.cfg, params=state.params)
    trainer.sigma = state.sigma
    trainer.adam_gen = state.adam_gen
    trainer.adam_critic = state.adam_critic
    trainer.epoch = state.epoch
    trainer.batch_index = state.batch_index
    trainer.global_step = state.global_step
    return trainer


def make_predictor(params: net.ModelParams, use_quotient: bool, input_gain: float,
                   root_index: int = 0):
    """Wrap params into a pure function: observed window -> predicted frames.

    Accepts (n, J, 3) or (B, n, J, 3); returns matching (T_f, J, 3) or
    (B, T_f, J, 3) arrays in mm.
    """

    def predict(obs: np.ndarray) -> np.ndarray:
        arr = np.asarray(obs, dtype=np.float64)
        single = arr.ndim == 3
        if single:
            arr = arr[None]
        feats, _ = net.build_features(arr, root_index, use_quotient, input_gain)
        with ad.no_grad():
            act = net.forward_backbone(feats, None, params)
            out = net.heads(act, params)["pred"].data
        return out[0] if single else out

    return predict
