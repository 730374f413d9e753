"""Training loop: alternating critic/generator Adam updates, checkpoints.

Trainer.step takes one step on one batch, in the order its docstring
gives; Trainer.run is the loop of epochs and batches around it, with the
max_steps stop and the checkpoints.

Training holds one float32 parameter vector, ``Trainer.params``: every
forward, backward, gradient clip and Adam step reads and writes it, and
Adam's moments are float32 too. The batch's arrays are built in float64
and cast to float32 once. The generator step's critic terms read the
critic weights its batch's critic updates just wrote.

Determinism contract: given the same dataset, config, and seed, every run
produces bitwise-identical parameters and logs. All randomness is drawn
from counter-derived Philox streams named by (seed, label, epoch/step/
window ids), never from advancing shared state, so a checkpoint only
needs the loop counters to resume exactly.

Checkpoint container (little-endian):
    bytes 0..3    magic ``MQCK``
    bytes 4..7    u32 format version, currently 2; any other version,
                  version 1 included, is rejected (the CLI exits 3)
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
    then five raw float64 blobs of float32 values, loaded as float32, in order:
        full flat parameter vector (N), generator Adam m (n), v (n),
        critic Adam m (m), v (m)

The flat layout is network.ModelParams's and follows from dims alone. The
loader checks dims against the config's model_dims, then compares the params
manifest entry by entry and then the counts against dims' layout, before it
reads a blob, and rejects any disagreement.
"""
from __future__ import annotations

import itertools
import json
import math
import struct
import typing
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
from .dataio import WindowedDataset, write_atomically
from .errors import AbortStep, DimsMismatch, FormatError, NumericalInstability, \
    SkeletonMismatch
from .losses import LossReport

CHECKPOINT_MAGIC = b"MQCK"
CHECKPOINT_VERSION = 2
# the header's training counters, written and read by these names
_COUNTERS = ("root_index", "epoch", "batch_index", "global_step")

# parameters a fresh run may allocate (README, model size)
_MAX_PARAMS = 10**7
# bytes one training step's activations may take, estimated before anything
# is allocated (README, model size), and the estimate's bytes per layer and
# per entry of a (batch, window, joints, d_model) activation: a + b *
# ffn_mult, fitted above one J=22 step's peak RSS at batch 16, one pass held
# at a time (2 to 12 layers, ffn_mult 2 to 10, d_model 32 to 128: 156, 125
# and 294 bytes at 2 and 12 layers and at ffn_mult 10; ~16 MB per layer at
# the defaults)
_MAX_STEP_BYTES = 2 * 10**9
_STEP_BYTES_PER_ENTRY = (125, 18)
_ACTIVATION_FIELDS = ("batch_size", "obs_frames", "d_model", "layers", "ffn_mult")
# critic updates per step (README): each reads the step's one prediction, so
# more add only critic work, and a huge count would run silently for ever
_MAX_CRITIC_STEPS = 100
_SIZE_FIELDS = ("d_model", "heads", "rank", "layers", "ffn_mult", "critic_width",
                "obs_frames", "future_frames")

# entries of one float32 (windows, window, joints, d_model) activation in a
# predictor pass (512 KiB); a larger batch runs as consecutive slices of
# windows. Over 64 J=22 windows, slices of 16-20 windows ran fastest
# (median 39 ms against 53 ms unsliced, 44 ms at 4 and 32 windows; README)
_SLICE_ENTRIES = 2**17

LOG_COLUMNS = ("step", "l_pred", "l_mask", "l_denoise", "l_adv", "gp_term", "l_total")


@dataclass(frozen=True)
class TrainConfig:
    """Every tunable of a training run, typed by its annotation and defaulted
    here once; construction raises FormatError naming the first bad field."""

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
    sigma: float | None = None  # None: default_sigma of the features
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
    grad_clip: float = 10.0
    max_steps: int | None = None

    def __post_init__(self):
        for name, (kind, optional) in CONFIG_TYPES.items():
            value = getattr(self, name)  # a bool is no number, and an int is a float
            if not (optional and value is None or isinstance(value, bool) == (kind is bool)
                    and isinstance(value, (int, float) if kind is float else kind)):
                raise FormatError(f"bad configuration: {name} must be {kind.__name__}, "
                                  f"got {value!r}")
        for names, rule, ok in _BOUNDS:
            for name in names:
                value = getattr(self, name)
                if value is not None and not ok(value):
                    raise FormatError(f"bad configuration: {name} must be {rule}, got {value!r}")
        try:
            self.model_dims(1)
        except DimsMismatch as exc:
            raise FormatError(f"bad configuration: {exc}") from None

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

    @classmethod
    def parse_value(cls, key: str, raw: str):
        """Parse one config-file value as its field's annotation says."""
        if key not in CONFIG_TYPES:
            raise FormatError(f"unknown config key {key!r}")
        kind, optional = CONFIG_TYPES[key]
        low = raw.strip().lower()
        if optional and low in ("none", ""):
            return None
        try:
            if kind is bool and low not in _BOOL_WORDS:
                raise ValueError(f"not a boolean: {raw!r}")
            return _BOOL_WORDS[low] if kind is bool else kind(raw)
        except ValueError as exc:
            raise FormatError(f"bad value for {key!r}: {exc}") from None


# each field's (type, whether None is allowed); "T | None" has the args (T, NoneType)
CONFIG_TYPES = {name: (typing.get_args(hint)[0], True) if typing.get_args(hint) else (hint, False)
                for name, hint in typing.get_type_hints(TrainConfig).items()}
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


_BOUNDS = (  # (fields, rule, test); a None passes where the annotation allows it
    (("epochs", "seed", "max_steps"), ">= 0", lambda v: v >= 0),
    (("batch_size", "future_frames"), ">= 1", lambda v: v >= 1),
    (("critic_steps",), f"in [1, {_MAX_CRITIC_STEPS}]", lambda v: 1 <= v <= _MAX_CRITIC_STEPS),
    (("obs_frames",), ">= 2", lambda v: v >= 2),
    (("lr", "head_gain", "input_gain", "sigma", "grad_clip"), "positive and finite",
     lambda v: 0 < v < math.inf),
    (("p_m", "p_n"), "in [0, 1]", lambda v: 0 <= v <= 1),
    (("alpha1", "alpha2", "beta1", "beta2", "gp_lambda"), ">= 0 and finite",
     lambda v: 0 <= v < math.inf),
)


def step_activation_bytes(dims: net.ModelDims, batch: int) -> int:
    """The activation bytes one training step on batch windows is estimated
    to take (README, model size)."""
    a, b = _STEP_BYTES_PER_ENTRY
    return (batch * dims.window * dims.joints * dims.d_model * dims.layers
            * (a + b * dims.ffn_mult))


def default_sigma(values: np.ndarray) -> float:
    """The noise std when none is configured: 0.05 x the std of values, or 1e-8."""
    std = float(values.std())
    return 0.05 * std if std > 0 else 1e-8


_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class Adam:
    """Bias-corrected Adam over a flat vector p: moments m, v of p's shape
    and dtype (float32 in training; zeros for a fresh state), step count t."""

    lr: float
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    def step(self, p: np.ndarray, g: np.ndarray) -> np.ndarray:
        """One in-place update of p; AbortStep where g*g is not finite in v's
        dtype, since an inf in v would freeze its weight for good."""
        with np.errstate(over="ignore"):
            bad = ~np.isfinite(np.square(g, dtype=self.v.dtype))
        if bad.any():
            raise AbortStep(
                f"{int(bad.sum())} gradient entries with a non-finite square in "
                f"{self.v.dtype} (first at flat index {int(np.argmax(bad))}); step aborted"
            )
        self.t += 1
        _kernels.adam_update(p, g, self.m, self.v, self.t, self.lr, _ADAM_BETA1,
                             _ADAM_BETA2, _ADAM_EPS)
        return p


def _clip_global_norm(g: np.ndarray, clip: float) -> np.ndarray:
    """g scaled to norm clip if longer; the squares sum in float64, past float32's range."""
    norm = float(np.sqrt(np.square(g, dtype=np.float64).sum()))
    if norm > clip:
        g = g * (clip / norm)
    return g


@dataclass
class TrainResult:
    params: net.ModelParams
    reports: list[tuple[int, LossReport]]


class Trainer:
    """Owns parameters, optimizer states, and the deterministic schedule:
    fresh from cfg, or a CheckpointState's params, sigma, Adams and counters.
    step takes one training step; run loops it over the epochs' batches."""

    def __init__(self, dataset: WindowedDataset, cfg: TrainConfig,
                 state: CheckpointState | None = None):
        if len(dataset) == 0:
            raise ValueError("dataset has no windows")
        if dataset.n_observed != cfg.obs_frames or dataset.n_future != cfg.future_frames:
            raise DimsMismatch(
                f"dataset windows ({dataset.n_observed}, {dataset.n_future}) disagree "
                f"with config ({cfg.obs_frames}, {cfg.future_frames})"
            )
        self.dataset = dataset
        self.cfg = cfg
        self.root_index = dataset.skeleton.root_index
        dims = cfg.model_dims(dataset.skeleton.joint_count)
        if state is None and (n := net._param_count(dims)) > _MAX_PARAMS:
            sizes = ", ".join(f"{k} {getattr(cfg, k)}" for k in _SIZE_FIELDS)
            raise FormatError(f"bad configuration: joints {dims.joints}, {sizes} make "
                              f"{n} parameters, over the limit of {_MAX_PARAMS}")
        # a resume too: its checkpoint fixes the sizes, but not the corpus
        batch = min(cfg.batch_size, len(dataset))
        if (m := step_activation_bytes(dims, batch)) > _MAX_STEP_BYTES:
            sizes = ", ".join(f"{k} {getattr(cfg, k)}" for k in _ACTIVATION_FIELDS)
            raise FormatError(f"bad configuration: joints {dims.joints}, {sizes} make about "
                              f"{m} bytes of activations per training step on {batch} "
                              f"windows, over the limit of {_MAX_STEP_BYTES}")
        if state is None:
            init = net.ModelParams.init(dims, cfg.seed)
            self.params = net.ModelParams(dims, init.vec.astype(np.float32))
            self.adam_gen, self.adam_critic = (
                Adam(cfg.lr, np.zeros_like(p), np.zeros_like(p))
                for p in (self.params.generator, self.params.critic))
            self.sigma = cfg.sigma if cfg.sigma is not None else self._auto_sigma()
            self.epoch = self.batch_index = self.global_step = 0
        else:
            # the model dims follow from the config and the joint count, so
            # this one list names whatever makes them differ
            pairs = [(k, v, getattr(cfg, k)) for k, v in asdict(state.cfg).items()
                     if k not in ("epochs", "max_steps")]
            pairs += [("joints", state.params.dims.joints, dims.joints),
                      ("root_index", state.root_index, self.root_index)]
            if diff := ", ".join(f"{k} {a} vs {b}" for k, a, b in pairs if a != b):
                error = DimsMismatch if state.params.dims != dims else FormatError
                raise error(f"checkpoint vs these clips and config: {diff}; a resume "
                            "may change only epochs and max_steps")
            n_batches = -(-len(dataset) // cfg.batch_size)
            if state.batch_index > n_batches:  # == n: max_steps ended the epoch's last batch
                raise FormatError(f"checkpoint batch_index {state.batch_index} is past "
                                  f"the {n_batches} batches of an epoch on these clips")
            self.params, self.sigma = state.params, state.sigma
            self.adam_gen, self.adam_critic = state.adam_gen, state.adam_critic
            self.epoch, self.batch_index = state.epoch, state.batch_index
            self.global_step = state.global_step
        self.gen_names = self.params.generator_names
        self.critic_names = self.params.critic_names
        _kernels.pin_blas_threads()

    def _auto_sigma(self) -> float:
        obs = np.stack([w.observed for w in self.dataset.windows])
        feats, _ = net.build_features(obs, self.root_index, self.cfg.use_quotient,
                                      self.cfg.input_gain)
        return default_sigma(feats)

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
        """The batch's float32 arrays: frames, features and reconstruction
        targets, the noised features and the token mask when the perturbation
        tasks are on, and the real critic rows, built from the float32 frames
        as the fake rows are. Features and noise are drawn in float64 and
        cast once."""
        cfg = self.cfg
        ws = [self.dataset.windows[int(i)] for i in idxs]
        obs = np.stack([w.observed for w in ws])
        feats, recon_targets = net.build_features(
            obs, self.root_index, cfg.use_quotient, cfg.input_gain
        )
        batch = {
            "obs": obs,
            "fut": np.stack([w.future for w in ws]),
            "features": feats,
            "recon_targets": recon_targets,
        }
        if cfg.use_perturbation:
            seeds = [streams.derive_seed(cfg.seed, streams.CORRUPT, epoch, w.seq_index, w.start)
                     for w in ws]
            flags, batch["noised"] = perturb.build_batch(feats, cfg.p_m, cfg.p_n, self.sigma,
                                                         seeds)
            batch["token_mask"] = flags.any(axis=-1)
        batch = {k: a.astype(np.float32) if a.dtype == np.float64 else a
                 for k, a in batch.items()}
        batch["real_rows"] = tuple(r.data for r in self._critic_rows(batch["obs"][:, -1],
                                                                      batch["fut"]))
        return batch

    def _critic_rows(self, obs_last, frames) -> tuple[Tensor, Tensor]:
        """The fidelity and continuity critics' rows for frames (B, T, J, 3).

        Each critic scales by input_gain in its own node. The continuity rows
        pair consecutive frames of obs_last (B, J, 3), the last observed
        frame, followed by frames. Rows of a Tensor keep its graph.
        """
        window = ad.concat([obs_last[:, None], frames], axis=1)
        return (net.fidelity_inputs(ad.mul(frames, self.cfg.input_gain)),
                net.continuity_inputs(ad.mul(window, self.cfg.input_gain)))

    def _prediction(self, batch: dict) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        """The batch's clean prediction and its fake critic rows, with their graph."""
        act = net.forward_backbone(batch["features"], None, self.params, last_frame=True)
        pred = net.heads(act, self.params, "pred")
        return pred, self._critic_rows(batch["obs"][:, -1], pred)

    def critic_update(self, real_rows, fake_rows, substep: int = 0) -> tuple[float, float]:
        """One critic Adam step on real rows (arrays) against the values of
        fake rows; returns (critic loss, summed gp term)."""
        cfg = self.cfg
        (real_fid, real_cont), (fake_fid, fake_cont) = real_rows, fake_rows
        seed_f = streams.derive_seed(cfg.seed, streams.INTERP, self.global_step, substep, 0)
        seed_c = streams.derive_seed(cfg.seed, streams.INTERP, self.global_step, substep, 1)
        closs_f, gp_f = lo.loss_adversarial(net.Critic(self.params, "fidelity"),
                                            real_fid, fake_fid.data, cfg.gp_lambda, seed_f)
        closs_c, gp_c = lo.loss_adversarial(net.Critic(self.params, "continuity"),
                                            real_cont, fake_cont.data, cfg.gp_lambda, seed_c)
        closs = ad.add(closs_f, closs_c)
        grads = net.parameter_gradients(closs, self.params, self.critic_names)
        self.adam_critic.step(self.params.critic, _clip_global_norm(grads, cfg.grad_clip))
        return closs.item(), gp_f + gp_c

    def _objective_gradient(self, l_pred: Tensor, l_mask: Tensor, l_denoise: Tensor,
                            adv: Tensor) -> np.ndarray:
        """The generator gradient of the step's objective, loss_total of
        loss_composite of these terms; NumericalInstability before the
        backward when the total is not finite."""
        total = lo.loss_total(lo.loss_composite(l_pred, l_mask, l_denoise, self.cfg), adv,
                              self.cfg)
        if not np.isfinite(total.data).all():
            raise NumericalInstability(f"non-finite generator loss at step {self.global_step}")
        return net.parameter_gradients(total, self.params, self.gen_names)

    def _restorative_pass(self, batch: dict, head: str) -> tuple[np.ndarray | None, np.ndarray]:
        """One restorative pass, "mask_recon" or "denoise_recon": its
        generator gradient of the step's objective with the other terms 0,
        or None when its loss has no graph (MaskTermSkipped), and the loss.
        Its graph goes when this returns."""
        params = self.params
        if head == "mask_recon":
            act = net.forward_backbone(batch["features"], batch["token_mask"], params)
            loss = lo.masked_reconstruction_loss(net.heads(act, params, head),
                                                 batch["recon_targets"], batch["token_mask"])
        else:
            act = net.forward_backbone(batch["noised"], None, params)
            loss = lo.mean_joint_error(net.heads(act, params, head), batch["recon_targets"])
        if not loss.requires_grad:
            return None, loss.data
        zero = Tensor(np.zeros((), loss.data.dtype))
        terms = (loss, zero) if head == "mask_recon" else (zero, loss)
        return self._objective_gradient(zero, *terms, zero), loss.data

    def generator_update(self, batch: dict, pred: Tensor, fake_rows, gp_term: float,
                         grads: np.ndarray | None, l_mask: np.ndarray, l_denoise: np.ndarray
                         ) -> LossReport:
        """One generator Adam step: the gradient through pred and its fake
        critic rows, added to grads, the restorative passes' gradient at
        these weights (None when they have none), with their losses l_mask
        and l_denoise as constants; returns the logged LossReport."""
        params = self.params
        l_pred = lo.mean_joint_error(pred, batch["fut"])
        fake_fid, fake_cont = fake_rows
        adv = ad.add(
            ad.neg(ad.tmean(net.discriminate_fidelity(fake_fid, params))),
            ad.neg(ad.tmean(net.discriminate_continuity(fake_cont, params))),
        )
        g = self._objective_gradient(l_pred, Tensor(l_mask), Tensor(l_denoise), adv)
        if grads is not None:
            g = grads + g
        self.adam_gen.step(params.generator, _clip_global_norm(g, self.cfg.grad_clip))
        return lo.make_report(l_pred.item(), l_mask.item(), l_denoise.item(), adv.item(),
                              gp_term, self.cfg)

    def step(self, idxs: np.ndarray, epoch: int) -> LossReport:
        """One training step on the windows idxs, drawn as in epoch; it
        advances global_step and leaves epoch and batch_index to run.

        In order: the batch (_prepare_batch); the masked pass, then the
        noised pass (_restorative_pass), each forward and backward before
        the next is built, so at most one pass's activations are alive at a
        time; the clean pass with its fake critic rows (_prediction);
        critic_steps critic updates, which read the values of those rows and
        write only critic weights; and the generator update, whose clean and
        adversarial backward joins the passes' gradient as (masked + noised)
        + clean before the one clip and Adam step. Each backward
        differentiates the step's whole objective with the other passes'
        terms as constant 0-d Tensors, so the sum has the bytes of one
        backward over all three graphs. A non-finite objective raises
        NumericalInstability before its backward, so a step that fails in a
        restorative pass stops before its critic updates.
        """
        batch = self._prepare_batch(idxs, epoch)
        zero = np.zeros((), batch["features"].dtype)  # a float64 zero would promote the total
        grads, l_mask, l_denoise = None, zero, zero
        if self.cfg.use_perturbation:
            g_mask, l_mask = self._restorative_pass(batch, "mask_recon")
            grads, l_denoise = self._restorative_pass(batch, "denoise_recon")
            if g_mask is not None:
                grads = g_mask + grads
        pred, fake_rows = self._prediction(batch)
        gp_term = 0.0
        for k in range(self.cfg.critic_steps):
            _, gp_term = self.critic_update(batch["real_rows"], fake_rows, k)
        report = self.generator_update(batch, pred, fake_rows, gp_term, grads, l_mask, l_denoise)
        self.global_step += 1
        return report

    # loop

    def run(self, log_path: str | Path | None = None,
            checkpoint_path: str | Path | None = None) -> TrainResult:
        """Train to cfg's epochs or max_steps, one step per batch (see step),
        saving each finished epoch; the epoch and batch_index counters
        advance here."""
        cfg = self.cfg
        reports: list[tuple[int, LossReport]] = []
        append = self.global_step > 0 and log_path is not None and Path(log_path).exists()
        stop = math.inf if cfg.max_steps is None else cfg.max_steps
        while self.epoch < cfg.epochs and self.global_step < stop:
            batches = self._batches(self.epoch)
            while self.batch_index < len(batches) and self.global_step < stop:
                step = self.global_step
                reports.append((step, self.step(batches[self.batch_index], self.epoch)))
                self.batch_index += 1
            if self.global_step < stop:  # a stop at the last batch leaves the epoch open
                self.epoch += 1
                self.batch_index = 0
                if checkpoint_path is not None and self.epoch < cfg.epochs:
                    self.save(checkpoint_path)  # the last state is saved once, below
        if checkpoint_path is not None:
            self.save(checkpoint_path)
        if log_path is not None:  # a run that continues another appends to its log
            with open(log_path, "a" if append else "w") as fh:
                fh.write(log_to_csv(reports, header=not append))
        return TrainResult(self.params, reports)

    def save(self, path: str | Path) -> None:
        save_checkpoint(path, self)


def log_to_csv(reports: list[tuple[int, LossReport]], header: bool = True) -> str:
    rows = [",".join(LOG_COLUMNS)] if header else []
    for step, r in reports:
        rows.append(
            ",".join([str(step)] + [repr(getattr(r, f)) for f in LOG_COLUMNS[1:]])
        )
    return "".join(row + "\n" for row in rows)


def train(dataset: WindowedDataset, cfg: TrainConfig,
          log_path: str | Path | None = None,
          checkpoint_path: str | Path | None = None,
          resume_from: str | Path | None = None) -> TrainResult:
    """Train from scratch, or resume_from a checkpoint for cfg's run length;
    returns final params and the log."""
    state = load_checkpoint(resume_from) if resume_from is not None else None
    return Trainer(dataset, cfg, state).run(log_path=log_path, checkpoint_path=checkpoint_path)


# checkpoint serialization

def _layout(dims: net.ModelDims) -> dict:
    """The header's "params" manifest and "counts" for dims' flat layout."""
    spec = net._param_spec(dims)
    total = sum(math.prod(shape) for _, shape, _ in spec)
    critic = sum(math.prod(shape) for name, shape, _ in spec if name.startswith("critic."))
    return {
        "params": [[name, list(shape)] for name, shape, _ in spec],
        "counts": {"total": total, "generator": total - critic, "critic": critic},
    }


def save_checkpoint(path, trainer: Trainer) -> None:
    params, adam_gen, adam_critic = trainer.params, trainer.adam_gen, trainer.adam_critic
    header = {
        "dims": asdict(params.dims),
        "config": asdict(trainer.cfg),
        "sigma": trainer.sigma,
        **{k: getattr(trainer, k) for k in _COUNTERS},
        "adam": {"generator": {"t": adam_gen.t}, "critic": {"t": adam_critic.t}},
        **_layout(params.dims),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
        struct.pack("<Q", len(blob)),
        blob,
        params.vec.astype("<f8").tobytes(),
        adam_gen.m.astype("<f8").tobytes(),
        adam_gen.v.astype("<f8").tobytes(),
        adam_critic.m.astype("<f8").tobytes(),
        adam_critic.v.astype("<f8").tobytes(),
    ]
    write_atomically(path, b"".join(parts))


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


def _header_int(name: str, value) -> int:
    """A header count or counter: a JSON integer >= 0 (int() would truncate 0.9)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise FormatError(f"checkpoint {name} must be an integer >= 0, got {value!r}")
    return value


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

    if not isinstance(header, dict) or not all(isinstance(header.get(k), kind) for k, kind in (
            ("config", dict), ("dims", dict), ("counts", dict), ("params", list))):
        raise FormatError("checkpoint header lacks its config, dims, counts or params")
    try:
        cfg = TrainConfig(**header["config"])
        dims = net.ModelDims(**header["dims"])
        if cfg.model_dims(dims.joints) != dims:
            raise FormatError("checkpoint dims disagree with the model dims of its config")
        counts = {k: _header_int(f"counts.{k}", header["counts"][k])
                  for k in ("total", "generator", "critic")}
        steps = {k: _header_int("adam t", header["adam"][k]["t"]) for k in ("generator", "critic")}
        counters = {k: _header_int(k, header[k]) for k in _COUNTERS}
        sigma = header["sigma"]  # float() would take a bool or a numeric string
        if isinstance(sigma, (bool, str)) or not 0 < float(sigma) < math.inf:
            raise FormatError(f"checkpoint sigma must be a positive finite number, got {sigma!r}")
    except (KeyError, TypeError, ValueError, OverflowError, DimsMismatch) as exc:
        raise FormatError(f"bad checkpoint header: {type(exc).__name__}: {exc}") from None
    if counters["root_index"] >= dims.joints:
        raise FormatError(f"checkpoint root_index {counters['root_index']} is not a joint "
                          f"of its {dims.joints}")
    need = 16 + hlen + 8 * (counts["total"] + 2 * counts["generator"] + 2 * counts["critic"])
    if len(raw) != need:
        raise FormatError(
            f"truncated checkpoint: have {len(raw)} bytes, header implies {need}"
        )
    # the file bounds the dims' layout before it is listed
    if (n := net._param_count(dims)) > counts["total"]:
        raise FormatError(f"checkpoint parameter blob: need {n} parameters for its dims, "
                          f"the header counts {counts['total']}")
    layout = _layout(dims)
    for k, (got, want) in enumerate(itertools.zip_longest(header["params"], layout["params"])):
        if got != want:
            got, want = ("nothing" if e is None else json.dumps(e) for e in (got, want))
            raise FormatError(f"checkpoint parameter {k} is {got}, its dims lay out {want}")
    if counts != layout["counts"]:
        raise FormatError(f"checkpoint counts {counts} disagree with its dims' {layout['counts']}")
    off = 16 + hlen

    def pull(n):
        nonlocal off
        arr = np.frombuffer(raw, dtype="<f8", count=n, offset=off).astype(np.float32)
        off += 8 * n
        return arr

    params = net.ModelParams(dims, pull(counts["total"]))
    adams = {k: Adam(cfg.lr, pull(counts[k]), pull(counts[k]), steps[k])
             for k in ("generator", "critic")}
    return CheckpointState(
        params=params, cfg=cfg, sigma=float(sigma), adam_gen=adams["generator"],
        adam_critic=adams["critic"], **counters,
    )


def make_predictor(params: net.ModelParams, use_quotient: bool, input_gain: float,
                   root_index: int = 0):
    """Wrap params into a pure function: observed window -> predicted frames.

    Accepts (n, J, 3) or (B, n, J, 3), with n the model's observed frames
    and J its joints; returns matching (T_f, J, 3) or (B, T_f, J, 3) float64
    arrays in mm. Another joint count raises SkeletonMismatch and any other
    window shape DimsMismatch. The features are built in float64, then the
    backbone and the pred head run in float32 on a float32 copy of the
    weights that is made here, once: the predictor is a snapshot of params
    as they are at this call, and later updates to params do not reach it.
    The low-rank attention's weight-only products are folded here too
    (net.fold_snapshot), so a call folds nothing, and the backbone runs under
    no_grad on plain arrays. It runs its final block at the last frame only,
    the one frame the prediction head reads (forward_backbone's last_frame).

    A batch runs in consecutive slices of at most _SLICE_ENTRIES //
    (window x joints x d_model) windows, at least one, whose frames fill
    one preallocated output: 20 windows at the default J=22 and 91 at J=5.
    Every backbone op works within one window, so the frames have the bytes
    of one pass over the whole batch, while the activations stay
    cache-sized and the memory of a call stays bounded. A batch that fits
    one slice runs as one pass. Non-finite output, or an activation too
    large for a float32 layer norm, raises NumericalInstability.
    """
    dims = params.dims
    window_shape = (dims.window + 1 if use_quotient else dims.window, dims.joints, 3)
    params32 = net.ModelParams(dims, params.vec.astype(np.float32))
    net.fold_snapshot(params32)
    per_slice = max(1, _SLICE_ENTRIES // (dims.window * dims.joints * dims.d_model))
    _kernels.pin_blas_threads()

    def forward(feats32: np.ndarray) -> np.ndarray:
        act = net.forward_backbone(feats32, None, params32, last_frame=True)
        return net.heads(act, params32, "pred").data

    def predict(obs: np.ndarray) -> np.ndarray:
        arr = np.asarray(obs, dtype=np.float64)
        single = arr.ndim == 3
        if single:
            arr = arr[None]
        if arr.ndim == 4 and arr.shape[2] != dims.joints:
            raise SkeletonMismatch(f"the model has {dims.joints} joints, "
                                   f"the observed frames have {arr.shape[2]}")
        if arr.shape[1:] != window_shape:
            raise DimsMismatch(f"each observed window must be {window_shape}, got {arr.shape[1:]}")
        feats, _ = net.build_features(arr, root_index, use_quotient, input_gain)
        feats32 = feats.astype(np.float32)
        out = np.empty((len(feats32), dims.future, dims.joints, 3))
        with ad.no_grad():
            for lo in range(0, len(feats32), per_slice):
                out[lo : lo + per_slice] = forward(feats32[lo : lo + per_slice])
        if not np.isfinite(out).all():
            raise NumericalInstability("the predictor's forward pass gave non-finite frames")
        return out[0] if single else out

    return predict
