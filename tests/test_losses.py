"""Loss fixtures with hand-computed values, gradient-penalty oracles, and
the report identities."""
import numpy as np
import pytest

import mqmotion.autodiff as ad
import mqmotion.losses as losses
import mqmotion.network as net
from mqmotion.autodiff import Tensor
from mqmotion.errors import DimsMismatch, FormatError, MaskTermSkipped, NumericalInstability
from mqmotion.train import TrainConfig
from test_network import ref_critic


def critic_dims(**over):
    base = dict(joints=3, window=4, future=2, in_channels=7, d_model=8,
                rank=2, heads=2, layers=1, critic_width=4)
    base.update(over)
    return net.ModelDims(**base)


class TestTaskLosses:
    def test_prediction_loss_hand_value(self):
        pred = np.array([3.0, 4.0, 0.0]).reshape(1, 1, 1, 3)
        target = np.zeros((1, 1, 1, 3))
        assert losses.mean_joint_error(pred, target).item() == 25.0

    def test_prediction_loss_averages_joints(self):
        pred = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 2.0]]).reshape(1, 1, 2, 3)
        target = np.zeros((1, 1, 2, 3))
        assert losses.mean_joint_error(pred, target).item() == 14.5

    def test_prediction_loss_shape_mismatch(self):
        with pytest.raises(DimsMismatch):
            losses.mean_joint_error(np.zeros((1, 2, 1, 3)), np.zeros((1, 1, 1, 3)))

    def test_denoise_loss_counts_all_tokens(self):
        recon = np.zeros((1, 2, 1, 3))
        target = recon.copy()
        target[0, 0, 0] = (1.0, 2.0, 2.0)
        assert losses.mean_joint_error(recon, target).item() == 4.5

    def test_mask_loss_counts_masked_tokens_only(self):
        recon = np.zeros((1, 2, 2, 3))
        target = recon.copy()
        target[0, 0, 0] = (1.0, 2.0, 2.0)
        target[0, 1, 1] = (0.0, 0.0, 2.0)
        flags = np.zeros((1, 2, 2), dtype=bool)
        flags[0, 0, 0] = flags[0, 1, 1] = True
        got = losses.masked_reconstruction_loss(recon, target, flags)
        assert got.item() == 6.5

    def test_mask_loss_ignores_unmasked_tokens(self):
        rng = np.random.default_rng(0)
        recon = rng.standard_normal((2, 3, 2, 3))
        target = rng.standard_normal((2, 3, 2, 3))
        flags = np.zeros((2, 3, 2), dtype=bool)
        flags[0, 1, 0] = True
        base = losses.masked_reconstruction_loss(recon, target, flags).item()
        bumped = recon.copy()
        bumped[1, 2, 1] += 10.0
        same = losses.masked_reconstruction_loss(bumped, target, flags).item()
        assert same == base
        moved = recon.copy()
        moved[0, 1, 0] += 10.0
        assert losses.masked_reconstruction_loss(moved, target, flags).item() != base

    def test_mask_loss_warns_when_nothing_masked(self):
        flags = np.zeros((1, 2, 2), dtype=bool)
        with pytest.warns(MaskTermSkipped):
            got = losses.masked_reconstruction_loss(
                np.ones((1, 2, 2, 3)), np.zeros((1, 2, 2, 3)), flags)
        assert got.item() == 0.0

    def test_mask_loss_flag_shape_checked(self):
        with pytest.raises(DimsMismatch):
            losses.masked_reconstruction_loss(
                np.zeros((1, 2, 2, 3)), np.zeros((1, 2, 2, 3)),
                np.zeros((1, 2), dtype=bool))


class TestWeightsAndReport:
    def test_weights_validated(self):
        for name in ("alpha1", "alpha2", "beta1", "beta2", "gp_lambda"):
            for bad in (-0.1, float("nan"), float("inf")):
                with pytest.raises(FormatError, match=name):
                    TrainConfig(**{name: bad})
            assert getattr(TrainConfig(**{name: 0.0}), name) == 0.0  # zero drops a term

    def test_report_identities(self):
        w = TrainConfig(alpha1=0.5, alpha2=2.0, beta1=0.9, beta2=0.1)
        r = losses.make_report(3.0, 1.0, 0.25, 7.0, 2.5, w)
        assert abs(r.l_composite - (3.0 + 0.5 * 1.0 + 2.0 * 0.25)) < 1e-12
        assert abs(r.l_total - (0.9 * r.l_composite + 0.1 * 7.0)) < 1e-12
        assert (r.l_pred, r.l_mask, r.l_denoise) == (3.0, 1.0, 0.25)
        assert (r.l_adv, r.gp_term) == (7.0, 2.5)

    def test_zero_alphas_drop_reconstruction_terms(self):
        w = TrainConfig(alpha1=0.0, alpha2=0.0)
        comp = losses.loss_composite(Tensor(3.0), Tensor(50.0), Tensor(9.0), w)
        assert comp.item() == 3.0

    def test_zero_beta2_drops_adversarial_term(self):
        w = TrainConfig(beta1=1.0, beta2=0.0)
        total = losses.loss_total(Tensor(4.0), Tensor(1e6), w)
        assert total.item() == 4.0

    def test_composite_tensor_matches_report(self):
        w = TrainConfig(alpha1=0.3, alpha2=0.7)
        comp = losses.loss_composite(Tensor(1.5), Tensor(2.5), Tensor(4.0), w)
        r = losses.make_report(1.5, 2.5, 4.0, 0.0, 0.0, w)
        assert abs(comp.item() - r.l_composite) < 1e-12


class TestInterpolation:
    def test_matches_returned_epsilons(self):
        rng = np.random.default_rng(1)
        real = rng.standard_normal((5, 6))
        fake = rng.standard_normal((5, 6))
        x_hat, eps = losses.interpolate_samples(real, fake, rng_seed=7)
        assert eps.shape == (5, 1)
        assert np.all((eps >= 0.0) & (eps < 1.0))
        assert np.array_equal(x_hat.data, eps * real + (1.0 - eps) * fake)
        assert x_hat.requires_grad

    def test_stays_between_endpoints(self):
        rng = np.random.default_rng(2)
        real = rng.standard_normal((8, 3))
        fake = rng.standard_normal((8, 3))
        x_hat, _ = losses.interpolate_samples(real, fake, rng_seed=3)
        lo = np.minimum(real, fake) - 1e-12
        hi = np.maximum(real, fake) + 1e-12
        assert np.all((x_hat.data >= lo) & (x_hat.data <= hi))

    def test_identical_endpoints_fixed_point(self):
        rows = np.random.default_rng(4).standard_normal((6, 4))
        x_hat, _ = losses.interpolate_samples(rows, rows, rng_seed=5)
        assert np.allclose(x_hat.data, rows, rtol=1e-12, atol=0.0)

    def test_seed_controls_epsilons(self):
        rows = np.zeros((4, 2))
        _, a = losses.interpolate_samples(rows, rows, rng_seed=11)
        _, b = losses.interpolate_samples(rows, rows, rng_seed=11)
        _, c = losses.interpolate_samples(rows, rows, rng_seed=12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimsMismatch):
            losses.interpolate_samples(np.zeros((2, 3)), np.zeros((3, 3)), 0)
        with pytest.raises(DimsMismatch):
            losses.interpolate_samples(np.zeros((2, 3, 1)), np.zeros((2, 3, 1)), 0)


class TestGradientPenalty:
    def test_unit_slope_critic_scores_exact_zero(self):
        def critic(x):
            return x[:, 0]

        x_hat = Tensor(np.random.default_rng(6).standard_normal((4, 5)),
                       requires_grad=True)
        assert losses.gradient_penalty(critic, x_hat, 10.0).item() == 0.0

    def test_constant_critic_scores_exact_lambda(self):
        def critic(x):
            return ad.mul(ad.tsum(x, axis=1), 0.0)

        x_hat = Tensor(np.random.default_rng(7).standard_normal((4, 5)),
                       requires_grad=True)
        assert losses.gradient_penalty(critic, x_hat, 10.0).item() == 10.0

    def test_uniform_slope_critic_closed_form(self):
        c, feats = 0.5, 6

        def critic(x):
            return ad.mul(ad.tsum(x, axis=1), c)

        x_hat = Tensor(np.random.default_rng(8).standard_normal((4, feats)),
                       requires_grad=True)
        want = 10.0 * (c * np.sqrt(feats) - 1.0) ** 2
        got = losses.gradient_penalty(critic, x_hat, 10.0).item()
        assert abs(got - want) < 1e-10

    def test_quadratic_critic_closed_form(self):
        def critic(x):
            return ad.mul(ad.tsum(ad.mul(x, x), axis=1), 0.5)

        data = np.random.default_rng(9).standard_normal((4, 6))
        x_hat = Tensor(data, requires_grad=True)
        want = 10.0 * np.mean((np.linalg.norm(data, axis=1) - 1.0) ** 2)
        got = losses.gradient_penalty(critic, x_hat, 10.0).item()
        assert abs(got - want) < 1e-10

    def test_differentiable_wrt_critic_weights(self):
        # the closed-form penalty's gradient in the critic weights is the
        # critic loss's gradient at lambda 10 less its gradient at lambda 0;
        # finite differences of gradient_penalty's value are the oracle
        params = net.ModelParams.init(critic_dims(), seed=0)
        rng = np.random.default_rng(10)
        x0, fake, real = (rng.standard_normal((4, 9)) for _ in range(3))
        critic = net.Critic(params, "fidelity")
        names = [f"critic.fidelity.{s}" for s in net._CRITIC]

        def loss_grad(gp_lambda):
            loss, _ = critic.wgan_gp(x0, fake, real, gp_lambda)
            return net.parameter_gradients(loss, params, names)

        g = loss_grad(10.0) - loss_grad(0.0)
        start = params.flat(names)

        def f(vec):
            params.set_flat(vec, names)
            x_hat = Tensor(x0.copy(), requires_grad=True)
            return losses.gradient_penalty(
                lambda x: ref_critic(x, params, "fidelity"), x_hat, 10.0).item()

        fd = ad.finite_difference(f, start, step=1e-5)
        params.set_flat(start, names)
        denom = np.maximum(np.abs(fd), 1e-8)
        assert (np.abs(g - fd) / denom).max() < 1e-5

    def test_nan_gradient_raises(self):
        def critic(x):
            return ad.mul(ad.tsum(x, axis=1), float("nan"))

        x_hat = Tensor(np.ones((2, 3)), requires_grad=True)
        with pytest.raises(NumericalInstability):
            losses.gradient_penalty(critic, x_hat, 10.0)

    def test_non_vector_scores_rejected(self):
        x_hat = Tensor(np.ones((2, 3)), requires_grad=True)
        with pytest.raises(DimsMismatch):
            losses.gradient_penalty(lambda x: x, x_hat, 10.0)


class TestAdversarial:
    def setup_method(self):
        self.params = net.ModelParams.init(critic_dims(), seed=0)
        rng = np.random.default_rng(11)
        self.real = rng.standard_normal((5, 9))
        self.fake = rng.standard_normal((5, 9))
        self.critic = net.Critic(self.params, "fidelity")
        self.ref = lambda x: ref_critic(x, self.params, "fidelity")

    def test_terms_satisfy_wgan_identities(self):
        closs, gp = losses.loss_adversarial(
            self.critic, self.real, self.fake, 10.0, rng_seed=21)
        score_fake = float(self.ref(self.fake).data.mean())
        score_real = float(self.ref(self.real).data.mean())
        # the generator's adversarial term, as the training step forms it
        gen = ad.neg(ad.tmean(net.discriminate_fidelity(self.fake, self.params)))
        assert abs(gen.item() + score_fake) < 1e-12
        assert abs(closs.item() - (score_fake - score_real + gp)) < 1e-12

    def test_penalty_term_matches_direct_computation(self):
        _, gp = losses.loss_adversarial(
            self.critic, self.real, self.fake, 10.0, rng_seed=22)
        x_hat, _ = losses.interpolate_samples(self.real, self.fake, rng_seed=22)
        direct = losses.gradient_penalty(self.ref, x_hat, 10.0)
        assert gp == direct.item()

    def test_deterministic_in_seed(self):
        a = losses.loss_adversarial(self.critic, self.real, self.fake, 10.0, 23)
        b = losses.loss_adversarial(self.critic, self.real, self.fake, 10.0, 23)
        c = losses.loss_adversarial(self.critic, self.real, self.fake, 10.0, 24)
        assert a[0].item() == b[0].item()
        assert a[1] != c[1]

    @pytest.mark.parametrize("which", ["fidelity", "continuity"])
    def test_closed_form_matches_tensor_critic(self, which):
        # the closed form against the same critic as primitive Tensor ops,
        # with the penalty taken by gradient_penalty at the same rows
        width = 9 if which == "fidelity" else 18
        rng = np.random.default_rng(12)
        real, fake = rng.standard_normal((2, 6, width))
        closed = losses.loss_adversarial(net.Critic(self.params, which), real, fake, 10.0,
                                         rng_seed=27)
        ref = lambda x: ref_critic(x, self.params, which)
        x_hat, _ = losses.interpolate_samples(real, fake, rng_seed=27)
        gp = losses.gradient_penalty(ref, x_hat, 10.0).item()
        score_fake = ad.tmean(ref(fake)).item()
        score_real = ad.tmean(ref(real)).item()
        for a, b in zip((closed[0].item(), closed[1]), (score_fake - score_real + gp, gp)):
            assert abs(a - b) <= 1e-12 * abs(b)

    @pytest.mark.parametrize("which", ["fidelity", "continuity"])
    def test_closed_form_gradients_match_fd(self, which):
        critic = net.Critic(self.params, which)
        width = 9 if which == "fidelity" else 18
        rng = np.random.default_rng(13)
        x_hat, fake, real = rng.standard_normal((3, 5, width))
        names = [f"critic.{which}.{s}" for s in net._CRITIC]
        loss, _ = critic.wgan_gp(x_hat, fake, real, 10.0)
        g = net.parameter_gradients(loss, self.params, names)
        start = self.params.flat(names)

        def f(vec):
            self.params.set_flat(vec, names)
            return critic.wgan_gp(x_hat, fake, real, 10.0)[0].item()

        fd = ad.finite_difference(f, start, step=1e-5)
        self.params.set_flat(start, names)
        denom = np.maximum(np.abs(fd), 1e-8)
        assert (np.abs(g - fd) / denom).max() < 1e-5

    def test_overflowing_critic_raises(self):
        # saturated hidden units whose summed output weights pass the float64 limit
        self.params.t("critic.fidelity.b2").data[...] = 50.0
        self.params.t("critic.fidelity.w3").data[...] = 1e308
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalInstability, match="critic loss"):
            losses.loss_adversarial(self.critic, np.ones((3, 9)), -np.ones((3, 9)),
                                    10.0, rng_seed=26)
