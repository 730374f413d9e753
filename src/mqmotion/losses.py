"""Composite task losses and the adversarial terms.

The composite loss sums three mean-squared joint errors: prediction over
the future window, masked reconstruction over exactly the joint-frames
that contained a masked scalar, and denoising reconstruction over every
in-window token. The adversarial part is a WGAN with gradient penalty,
evaluated by two critics (single-frame fidelity and consecutive-pair
continuity) whose losses are summed: loss_adversarial gives a critic's
loss as one closed-form node (network.Critic), and gradient_penalty, which
training does not call, is the oracle for its penalty.

All loss functions return engine Tensors so they are differentiable; use
LossReport / make_report for plain-float bookkeeping. The weights (alpha1,
alpha2, beta1, beta2, gp_lambda) are read from the train.TrainConfig given.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import streams
from .autodiff import Tensor
from .errors import DimsMismatch, MaskTermSkipped, NumericalInstability


@dataclass(frozen=True)
class LossReport:
    """Per-step scalar losses; the identities between fields are exact."""

    l_pred: float
    l_mask: float
    l_denoise: float
    l_composite: float
    l_adv: float
    gp_term: float
    l_total: float

    FIELDS = ("l_pred", "l_mask", "l_denoise", "l_composite", "l_adv", "gp_term", "l_total")


def _squared_joint_error(a: Tensor, b: Tensor) -> Tensor:
    """||a - b||^2 per joint: (..., J, 3) -> (..., J)."""
    d = ad.sub(a, b)
    return ad.tsum(ad.mul(d, d), axis=-1)


def mean_joint_error(out, target) -> Tensor:
    """Mean squared joint error over every token (and batch): the prediction
    loss over the future window, and the denoising loss over the window."""
    out, target = ad.as_tensor(out), ad.as_tensor(target)
    if out.shape != target.shape:
        raise DimsMismatch(f"out {out.shape} vs target {target.shape}")
    return ad.tmean(_squared_joint_error(out, target))


def masked_reconstruction_loss(recon, target, token_mask) -> Tensor:
    """Mean squared joint error over masked joint-frames only.

    token_mask is a boolean (B, T, J) array flagging tokens that contained
    at least one masked scalar. When nothing was masked the term is zero
    and a MaskTermSkipped warning is emitted (disappearing silently would
    hide a misconfigured mask probability).
    """
    recon, target = ad.as_tensor(recon), ad.as_tensor(target)
    if recon.shape != target.shape:
        raise DimsMismatch(f"recon {recon.shape} vs target {target.shape}")
    flags = np.asarray(token_mask, dtype=np.bool_)
    if flags.shape != recon.shape[:-1]:
        raise DimsMismatch(f"token mask {flags.shape} vs tokens {recon.shape[:-1]}")
    count = int(flags.sum())
    if count == 0:
        warnings.warn("no scalar masked this step; mask loss is 0", MaskTermSkipped, stacklevel=2)
        return Tensor(np.zeros((), recon.data.dtype))
    err = _squared_joint_error(recon, target)
    sel = Tensor(flags.astype(err.data.dtype))
    return ad.div(ad.tsum(ad.mul(err, sel)), float(count))


def loss_composite(l_pred: Tensor, l_mask: Tensor, l_denoise: Tensor, cfg) -> Tensor:
    """pred + alpha1 * mask + alpha2 * denoise, weighted by cfg, a TrainConfig."""
    return ad.add(l_pred, ad.add(ad.mul(cfg.alpha1, l_mask), ad.mul(cfg.alpha2, l_denoise)))


def loss_total(l_composite: Tensor, l_adv: Tensor, cfg) -> Tensor:
    """Generator objective: beta1 * composite + beta2 * adversarial, from cfg."""
    return ad.add(ad.mul(cfg.beta1, l_composite), ad.mul(cfg.beta2, l_adv))


def interpolate_samples(real, fake, rng_seed: int) -> tuple[Tensor, np.ndarray]:
    """Per-sample straight-line interpolates between real and fake rows.

    One epsilon ~ U[0,1] per sample row, broadcast across features:
    x_hat = eps * real + (1 - eps) * fake. Returns the interpolates as a
    leaf tensor requiring grad, plus the epsilons used. The rows are float32
    when both are, and float64 otherwise; the epsilons are drawn in float64
    and take the rows' dtype.
    """
    real_a, fake_a = ad.as_tensor(real).data, ad.as_tensor(fake).data
    if real_a.shape != fake_a.shape:
        raise DimsMismatch(f"real {real_a.shape} vs fake {fake_a.shape}")
    if real_a.ndim != 2:
        raise DimsMismatch(f"expected (N, features) rows, got {real_a.shape}")
    dtype = np.result_type(real_a, fake_a)
    eps = streams.stream(rng_seed, streams.INTERP).random((real_a.shape[0], 1)).astype(dtype)
    x_hat = eps * real_a + (1.0 - eps) * fake_a
    return Tensor(x_hat, requires_grad=True), eps


def penalty_of_gradients(g: np.ndarray, gp_lambda: float) -> tuple[float, np.ndarray]:
    """lambda * mean((||g_n|| - 1)^2) over the rows g_n of g, and its gradient in g.

    A zero row has no gradient of its norm; it gets the subgradient 0.
    """
    if not np.isfinite(g).all():
        raise NumericalInstability("non-finite critic input gradient in penalty term")
    norms = np.sqrt(np.sum(g * g, axis=1))
    shifted = norms - 1.0
    value = gp_lambda * (np.sum(shifted * shifted) / float(len(norms)))
    if not np.isfinite(value):
        raise NumericalInstability("non-finite penalty loss")
    scale = np.divide(shifted, norms, out=np.zeros_like(norms), where=norms > 0.0)
    return float(value), g * ((2.0 * gp_lambda / len(norms)) * scale)[:, None]


def gradient_penalty(critic_fn, x_hat: Tensor, gp_lambda: float) -> Tensor:
    """lambda * E[(||grad_x critic(x)|| - 1)^2] at the given points, as a value.

    critic_fn is any Tensor function of (N, features) rows to (N,) scores,
    and x_hat a leaf Tensor that requires grad. The result carries no
    graph: a penalty's gradient in a critic's weights needs the critic's
    second derivatives, which the first-order engine does not build. The
    model's critics have them in closed form (network.Critic.wgan_gp), which
    the tests check against this function.
    """
    scores = critic_fn(x_hat)
    if scores.ndim != 1:
        raise DimsMismatch(f"critic must return (N,) scores, got {scores.shape}")
    g = ad.grad(ad.tsum(scores), [x_hat])[0]
    return Tensor(penalty_of_gradients(g.data, gp_lambda)[0])


def loss_adversarial(critic, real, fake, gp_lambda: float, rng_seed: int):
    """WGAN-GP terms for one critic, a network.Critic: (critic_loss, gp_term).

    critic_loss = E[D(fake)] - E[D(real)] + gp_term, which the critic
    minimizes, is one graph node over its weights (Critic.wgan_gp), and
    gp_term, taken at interpolate_samples' rows for rng_seed, is a float.
    """
    real_a, fake_a = ad.as_tensor(real).data, ad.as_tensor(fake).data
    x_hat, _ = interpolate_samples(real_a, fake_a, rng_seed)
    critic_loss, gp = critic.wgan_gp(x_hat.data, fake_a, real_a, gp_lambda)
    if not np.isfinite(critic_loss.data):
        raise NumericalInstability("non-finite critic loss")
    return critic_loss, gp


def make_report(
    l_pred: float,
    l_mask: float,
    l_denoise: float,
    l_adv: float,
    gp_term: float,
    cfg,
) -> LossReport:
    """Assemble a LossReport; composite/total follow from the parts and cfg's weights exactly."""
    l_composite = l_pred + cfg.alpha1 * l_mask + cfg.alpha2 * l_denoise
    l_total = cfg.beta1 * l_composite + cfg.beta2 * l_adv
    return LossReport(
        l_pred=l_pred,
        l_mask=l_mask,
        l_denoise=l_denoise,
        l_composite=l_composite,
        l_adv=l_adv,
        gp_term=gp_term,
        l_total=l_total,
    )
