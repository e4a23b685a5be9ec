import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serlab import losses
from serlab import numerics as nm

from helpers import (
    check_gradients,
    oracle_ccc_loss,
    oracle_focal_loss,
    oracle_weighted_cross_entropy,
)


def np_softmax(logits):
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def np_cross_entropy(logits, targets):
    p = np_softmax(logits)
    return float(np.mean(-np.log(p[np.arange(len(targets)), targets])))


class TestClassWeights:
    def test_balanced_counts_give_unit_weights(self):
        w = losses.class_weights_from_counts([5] * 8)
        assert np.allclose(w.weights, np.ones(8), atol=1e-15)

    def test_hand_case(self):
        w = losses.class_weights_from_counts([7, 1, 1, 1, 1, 1, 1, 1])
        assert abs(w.weights[0] - 0.25) < 1e-15
        assert np.allclose(w.weights[1:], 1.75, atol=1e-15)

    def test_majority_gets_smallest_weight(self):
        w = losses.class_weights_from_counts([100, 3, 7, 9, 2, 5, 4, 6])
        assert int(np.argmin(w.weights)) == 0

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match="absent"):
            losses.class_weights_from_counts([5, 0, 5, 5, 5, 5, 5, 5])

    def test_non_positive_weights_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            losses.ClassWeights(np.zeros(8))


class TestWeightedCrossEntropy:
    def test_uniform_weights_reduce_to_plain_mean_ce(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(6, 8))
        targets = rng.integers(0, 8, size=6)
        loss = losses.weighted_cross_entropy(
            nm.tensor(logits), targets, losses.ClassWeights.uniform()
        )
        assert abs(loss.item() - np_cross_entropy(logits, targets)) < 1e-12

    def test_perfect_prediction_is_zero(self):
        logits = np.full((3, 8), -1000.0)
        targets = [2, 5, 7]
        for i, t in enumerate(targets):
            logits[i, t] = 0.0
        loss = losses.weighted_cross_entropy(
            nm.tensor(logits), targets, losses.ClassWeights.uniform()
        )
        assert abs(loss.item()) < 1e-12

    def test_weight_cancels_in_normalized_reduction(self):
        # single sample with p_t = 0.5: the weighted mean removes the weight
        logits = np.full((1, 8), -1000.0)
        logits[0, 0] = 0.0
        logits[0, 1] = 0.0  # softmax -> [0.5, 0.5, 0, ...]
        weights = losses.ClassWeights(np.array([2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]))
        loss = losses.weighted_cross_entropy(nm.tensor(logits), [0], weights)
        assert abs(loss.item() - math.log(2.0)) < 1e-12

    def test_target_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            losses.weighted_cross_entropy(
                nm.tensor(np.zeros((2, 8))), [0, 8], losses.ClassWeights.uniform()
            )


class TestFocalLoss:
    def test_gamma_zero_equals_unweighted_ce_bitwise(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            logits = rng.normal(size=(5, 8))
            targets = rng.integers(0, 8, size=5)
            focal = losses.focal_loss(
                nm.tensor(logits), targets, losses.FocalConfig(gamma=0.0)
            ).item()
            wce = losses.weighted_cross_entropy(
                nm.tensor(logits), targets, losses.ClassWeights.uniform()
            ).item()
            assert focal == wce  # bit-for-bit

    def test_closed_form_point_nine(self):
        # p_t = 0.9 via a two-class construction: log(9) gap gives 0.9/0.1
        logits = np.full((1, 8), -1000.0)
        logits[0, 0] = math.log(9.0)
        logits[0, 1] = 0.0
        loss = losses.focal_loss(nm.tensor(logits), [0], losses.FocalConfig(gamma=2.0))
        expected = -(0.1 ** 2) * math.log(0.9)
        assert abs(loss.item() - expected) < 1e-12
        assert abs(loss.item() - 0.0010536) < 1e-7

    def test_hard_samples_dominate(self):
        def focal_at(p):
            logits = np.full((1, 8), -1000.0)
            logits[0, 0] = math.log(p / (1 - p))
            logits[0, 1] = 0.0
            return losses.focal_loss(nm.tensor(logits), [0], losses.FocalConfig(gamma=2.0)).item()

        ratio = focal_at(0.5) / focal_at(0.9)
        expected = (0.25 * math.log(2.0)) / (0.01 * -math.log(0.9))
        assert abs(ratio - expected) < 1e-6
        assert ratio > 100.0

    def test_monotone_non_increasing_in_pt(self):
        grid = np.linspace(0.05, 0.95, 19)
        vals = []
        for p in grid:
            logits = np.full((1, 8), -1000.0)
            logits[0, 0] = math.log(p / (1 - p))
            logits[0, 1] = 0.0
            vals.append(
                losses.focal_loss(nm.tensor(logits), [0], losses.FocalConfig(gamma=2.0)).item()
            )
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_alpha_validation(self):
        with pytest.raises(ValueError, match="gamma"):
            losses.FocalConfig(gamma=-1.0)
        with pytest.raises(ValueError, match="alpha"):
            losses.FocalConfig(alpha=np.ones(4))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_constants_rejected_when_built(self, bad):
        entries = np.ones(8)
        entries[3] = bad
        with pytest.raises(ValueError, match="alpha entries must be finite"):
            losses.FocalConfig(alpha=entries)
        with pytest.raises(ValueError, match="weights must be finite"):
            losses.ClassWeights(entries)

    @pytest.mark.parametrize("gamma", [np.inf, np.nan])
    def test_non_finite_gamma_rejected_when_built(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite"):
            losses.FocalConfig(gamma=gamma)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_gamma_zero_identity_property(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=3.0, size=(4, 8))
        targets = rng.integers(0, 8, size=4)
        focal = losses.focal_loss(nm.tensor(logits), targets, losses.FocalConfig(gamma=0.0)).item()
        assert abs(focal - np_cross_entropy(logits, targets)) < 1e-12


class TestCcc:
    def test_perfect_concordance(self):
        x = np.array([0.3, 1.7, -2.0, 5.0])
        assert abs(losses.ccc(x, x) - 1.0) < 1e-12

    def test_constant_prediction_gives_zero(self):
        assert abs(losses.ccc([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])) < 1e-12

    def test_shift_hand_case(self):
        assert abs(losses.ccc([2.0, 3.0, 4.0], [1.0, 2.0, 3.0]) - 4.0 / 7.0) < 1e-12

    def test_affine_closed_form(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=50)
        for a, b in [(1.0, 0.0), (2.0, 0.5), (0.5, -1.0), (1.0, 2.0)]:
            got = losses.ccc(a * x + b, x)
            s2 = float(np.mean((x - x.mean()) ** 2))
            expected = 2 * a * s2 / ((1 + a * a) * s2 + ((a - 1) * x.mean() + b) ** 2)
            assert abs(got - expected) < 1e-12
        # pure shift strictly reduces CCC
        assert losses.ccc(x + 1.0, x) < 1.0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=10), rng.normal(size=10)
        assert abs(losses.ccc(x, y) - losses.ccc(y, x)) < 1e-12

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            losses.ccc([1.0], [1.0])

    def test_degenerate_pair_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            losses.ccc([3.0, 3.0], [3.0, 3.0])


class TestCccLoss:
    def test_perfect_prediction_is_zero(self):
        rng = np.random.default_rng(5)
        truth = rng.uniform(1, 7, size=(6, 3))
        loss = losses.ccc_loss(nm.tensor(truth), truth)
        assert abs(loss.item()) < 1e-12

    def test_constant_mean_prediction_gives_one(self):
        rng = np.random.default_rng(6)
        truth = rng.uniform(1, 7, size=(6, 3))
        pred = np.tile(truth.mean(axis=0), (6, 1))
        loss = losses.ccc_loss(nm.tensor(pred), truth)
        assert abs(loss.item() - 1.0) < 1e-12

    def test_matches_metric_ccc(self):
        rng = np.random.default_rng(7)
        truth = rng.uniform(1, 7, size=(8, 3))
        pred = truth + rng.normal(scale=0.5, size=(8, 3))
        loss = losses.ccc_loss(nm.tensor(pred), truth).item()
        mean_ccc = np.mean([losses.ccc(pred[:, j], truth[:, j]) for j in range(3)])
        assert abs(loss - (1.0 - mean_ccc)) < 1e-12

    def test_gradients_batch_8(self):
        rng = np.random.default_rng(42)
        truth = rng.uniform(1, 7, size=(8, 3))
        pred = truth + rng.normal(scale=0.5, size=(8, 3))
        check_gradients(lambda s: losses.ccc_loss(s["pred"], truth), {"pred": pred.copy()})

    def test_degenerate_column_rejected(self):
        truth = np.array([[1.0, 2.0, 3.0], [1.0, 2.5, 3.5]])
        pred = truth.copy()
        pred[:, 0] = 1.0  # both pred and truth constant in column 0
        with pytest.raises(ValueError, match="degenerate"):
            losses.ccc_loss(nm.tensor(pred), truth)

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            losses.ccc_loss(nm.tensor(np.ones((1, 3))), np.ones((1, 3)))


class TestMse:
    def test_value_and_gradient(self):
        rng = np.random.default_rng(8)
        truth = rng.normal(size=(5, 3))
        pred = truth + rng.normal(scale=0.3, size=(5, 3))
        loss = losses.mse_loss(nm.tensor(pred), truth)
        assert abs(loss.item() - np.mean((pred - truth) ** 2)) < 1e-12
        check_gradients(lambda s: losses.mse_loss(s["pred"], truth), {"pred": pred.copy()})


class TestExtremeLogits:
    """Logits far apart give a target probability that underflows to 0;
    the loss goes through log-probabilities and stays finite."""

    def _logits(self):
        logits = np.zeros((2, 8))
        logits[0, 0] = 1000.0  # target 3 gets p = e^-1000
        logits[1, 3] = -800.0  # target 3 gets p = e^-800 / 7
        return logits

    @pytest.mark.parametrize("name", ["wce", "focal"])
    def test_finite_loss_and_gradients(self, name):
        targets = [3, 3]
        if name == "wce":
            weights = losses.ClassWeights(np.arange(1.0, 9.0))
            build = lambda s: losses.weighted_cross_entropy(s["logits"], targets, weights)
        else:
            build = lambda s: losses.focal_loss(s["logits"], targets, losses.FocalConfig(gamma=2.0))
        store = nm.ParamStore()
        store.add("logits", self._logits())
        loss = build(store)
        nm.backward(loss, store)
        grad = store.grad("logits")
        # -log p_t is 1000 and 800 + log 7; both samples share the class weight
        assert loss.item() == pytest.approx((1000.0 + 800.0 + math.log(7.0)) / 2, rel=1e-12)
        assert np.isfinite(grad).all()
        # d(-log p_t)/dz = p - onehot: the far logit takes the whole mass
        assert grad[0, 0] == pytest.approx(0.5, rel=1e-12)
        assert grad[0, 3] == pytest.approx(-0.5, rel=1e-12)


def _value_and_grad(build, arr):
    store = nm.ParamStore()
    loss = build(store.add("x", arr.copy()))
    nm.backward(loss, store)
    return loss.data.tobytes(), store.grad("x")


def _assert_close(grad, want, rtol=1e-12):
    assert np.max(np.abs(grad - want)) <= rtol * np.max(np.abs(want))


class TestClosedFormOps:
    """The loss ops against the graph-composed oracles in ``helpers``: values
    bit for bit; focal and WCE gradients equal wherever the oracle's are
    finite, CCC gradients to 1e-12 of the largest entry."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=2, max_value=64),
           st.sampled_from([0.0, 0.5, 2.0]), st.sampled_from([1.0, 30.0, 1000.0]))
    def test_focal_and_wce_match_the_graph_oracle(self, seed, batch, gamma, scale):
        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=scale, size=(batch, 8))
        t = rng.integers(0, 8, size=batch)
        cfg = losses.FocalConfig(gamma=gamma, alpha=rng.uniform(0.25, 4.0, size=8))
        weights = losses.ClassWeights(rng.uniform(0.25, 4.0, size=8))
        pairs = [
            (lambda x: losses.focal_loss(x, t, cfg), lambda x: oracle_focal_loss(x, t, cfg)),
            (lambda x: losses.weighted_cross_entropy(x, t, weights),
             lambda x: oracle_weighted_cross_entropy(x, t, weights)),
        ]
        for build, oracle in pairs:
            value, grad = _value_and_grad(build, logits)
            with np.errstate(invalid="ignore", divide="ignore"):  # powf's backward at p_t = 1
                want, want_grad = _value_and_grad(oracle, logits)
            assert value == want
            assert np.isfinite(grad).all()
            if np.isfinite(want_grad).all():
                assert np.array_equal(grad, want_grad)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=2, max_value=64),
           st.sampled_from([0.01, 0.5, 3.0]))
    def test_ccc_matches_the_graph_oracle(self, seed, batch, noise):
        rng = np.random.default_rng(seed)
        truth = rng.uniform(1, 7, size=(batch, 3))
        pred = truth + rng.normal(scale=noise, size=(batch, 3))
        value, grad = _value_and_grad(lambda x: losses.ccc_loss(x, truth), pred)
        want, want_grad = _value_and_grad(lambda x: oracle_ccc_loss(x, truth), pred)
        assert value == want
        _assert_close(grad, want_grad)

    def test_focal_gamma_below_one_at_a_certain_target(self):
        # row 0's p_t rounds to 1: its term and slope take their limit 0
        rng = np.random.default_rng(12)
        logits = rng.normal(size=(2, 8))
        logits[0, 2] = 50.0
        targets = [2, 5]
        cfg = losses.FocalConfig(gamma=0.5)
        value, grad = _value_and_grad(lambda x: losses.focal_loss(x, targets, cfg), logits)
        assert np.isfinite(grad).all()
        assert not grad[0].any()
        row, row_grad = _value_and_grad(lambda x: losses.focal_loss(x, targets[1:], cfg), logits[1:])
        assert np.frombuffer(value)[0] == np.frombuffer(row)[0] / 2
        _assert_close(grad[1], row_grad[0] / 2)

    @pytest.mark.parametrize("batch", [2, 17, 64])
    def test_each_loss_adds_six_nodes_whatever_the_batch(self, batch):
        rng = np.random.default_rng(batch)
        logits = nm.tensor(rng.normal(size=(batch, 8)))
        t = rng.integers(0, 8, size=batch)
        truth = rng.uniform(1, 7, size=(batch, 3))
        pred = nm.tensor(truth + rng.normal(size=(batch, 3)))
        built = [
            (losses.focal_loss(logits, t, losses.FocalConfig()), logits),
            (losses.weighted_cross_entropy(logits, t, losses.ClassWeights.uniform()), logits),
            (losses.ccc_loss(pred, truth), pred),
        ]
        for loss, leaf in built:
            seen, todo = {id(loss)}, [loss]
            while todo:
                for p in todo.pop()._parents:
                    if id(p) not in seen:
                        seen.add(id(p))
                        todo.append(p)
            assert id(leaf) in seen
            assert len(seen) - 1 == 6
