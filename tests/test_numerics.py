import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serlab import numerics as nm
from serlab.dataio import SynthConfig, gen_synthetic
from serlab.trainer import TrainConfig, predict, train_stage1, train_stage2

from helpers import check_gradients, oracle_dense, oracle_segment_mean, oracle_segment_stat_pool

mp.mp.dps = 40


def scalar(x):
    return nm.tensor(np.array([x]))


class TestMish:
    def test_zero(self):
        assert nm.mish(scalar(0.0)).data[0] == 0.0

    def test_one_matches_high_precision(self):
        expected = float(1 * mp.tanh(mp.log(1 + mp.exp(1))))
        assert abs(nm.mish(scalar(1.0)).data[0] - expected) < 1e-9
        assert abs(nm.mish(scalar(1.0)).data[0] - 0.865098) < 1e-6

    def test_negative_tail_vanishes(self):
        expected = float(-20 * mp.tanh(mp.log(1 + mp.exp(-20))))
        got = nm.mish(scalar(-20.0)).data[0]
        assert abs(got - expected) < 1e-12
        assert abs(got) < 1e-7

    def test_positive_saturation_ratio(self):
        ratio = nm.mish(scalar(50.0)).data[0] / 50.0
        assert 1.0 - 1e-9 <= ratio <= 1.0

    def test_non_finite_input_names_index(self):
        bad = nm.Tensor(np.array([1.0, np.inf, 2.0]))
        with pytest.raises(ValueError, match="flat index 1"):
            nm.mish(bad)

    def test_derivative_at_zero_is_exactly_point_six(self):
        store = nm.ParamStore()
        x = store.add("x", [0.0])
        nm.backward(nm.mish(x).sum(), store)
        assert abs(store.grad("x")[0] - 0.6) < 1e-9

    def test_derivative_at_zero_vs_central_difference(self):
        h = 1e-6
        fd = (nm.mish(scalar(h)).data[0] - nm.mish(scalar(-h)).data[0]) / (2 * h)
        assert abs(fd - 0.6) < 1e-9

    def test_value_and_derivative_within_four_ulps_of_mpmath(self):
        clamp = [np.nextafter(20.0, lo) for lo in (-np.inf, np.inf)]
        x = np.unique(np.concatenate([
            np.linspace(-800.0, 800.0, 1601),
            np.linspace(-3.0, 3.0, 601),  # dense around 0 and the derivative's root
            np.linspace(18.0, 22.0, 401),  # dense around the clamp at 20
            np.linspace(-750.0, -700.0, 101),  # where e^x turns subnormal
            clamp,
        ]))
        store = nm.ParamStore()
        out = nm.mish(store.add("x", x))
        nm.backward(out.sum(), store)
        y, d = out.data, store.grad("x")

        def exact(v):
            v = mp.mpf(float(v))
            t = mp.tanh(mp.log1p(mp.exp(v)))
            slope = v * (1 - t * t) / (1 + mp.exp(-v))
            return v * t, t + slope, max(abs(t), abs(slope))

        ref = np.array([[float(c) for c in exact(v)] for v in x])
        # a few ulps of the value, and of the derivative's larger term (it
        # has a root near -1.19, where the two terms cancel); values below
        # the smallest normal float keep only an absolute bound
        tiny = np.finfo(np.float64).tiny
        assert np.all(np.abs(y - ref[:, 0]) <= 4 * np.spacing(np.abs(ref[:, 0])) + tiny)
        assert np.all(np.abs(d - ref[:, 1]) <= 4 * np.spacing(ref[:, 2]) + tiny)

    def test_finite_without_warnings_at_extreme_inputs(self):
        x = np.array([-1e300, -1e30, -800.0, -745.5, -40.0, -1.0, 0.0, 1.0,
                      19.5, 20.0, 20.5, 800.0, 1e30, 1e300])
        store = nm.ParamStore()
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            y = nm.mish(store.add("x", x))
            nm.backward(y.sum(), store)
        d = store.grad("x")
        assert np.all(np.isfinite(y.data)) and np.all(np.isfinite(d))
        assert np.array_equal(y.data[-4:], x[-4:]) and np.array_equal(d[-4:], np.ones(4))
        assert np.array_equal(y.data[:3], np.zeros(3)) and np.array_equal(d[:3], np.zeros(3))


def _divide_then_mean_attention(q, k, v, nq, nkv):
    """The ``segment_attention`` forward as first written: each weight
    matrix normalised, then averaged over its query rows."""
    out = []
    for qo, qn, ko, kn in zip(np.cumsum(nq) - nq, nq, np.cumsum(nkv) - nkv, nkv):
        w = q[qo:qo + qn] @ k[ko:ko + kn].T
        w -= w.max(axis=1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=1, keepdims=True)
        out.append(w.mean(axis=0) @ v[ko:ko + kn])
    return np.array(out)


def _ragged(rng, batch, max_len, score_scale):
    nq, nkv = rng.integers(1, max_len + 1, size=batch), rng.integers(1, max_len + 1, size=batch)
    dim, vdim = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    q = rng.normal(size=(int(nq.sum()), dim)) * score_scale
    k = rng.normal(size=(int(nkv.sum()), dim))
    v = rng.normal(size=(int(nkv.sum()), vdim))
    return q, k, v, nq, nkv


class TestSegmentAttention:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=40),
           st.sampled_from([0.1, 1.0, 5.0, 30.0]))
    def test_matches_divide_then_mean_formula(self, seed, batch, score_scale):
        q, k, v, nq, nkv = _ragged(np.random.default_rng(seed), batch, 300, score_scale)
        got = nm.segment_attention(q, k, v, np.cumsum(nq) - nq, nq, np.cumsum(nkv) - nkv, nkv).data
        want = _divide_then_mean_attention(q, k, v, nq, nkv)
        # row b is a convex combination of v_b's rows: relative to their largest entry
        scale = np.array([np.abs(v[o:o + n]).max() for o, n in zip(np.cumsum(nkv) - nkv, nkv)])
        assert np.all(np.abs(got - want) <= 1e-15 * scale[:, None])

    def test_finite_without_warnings_at_scores_near_1e4(self):
        rng = np.random.default_rng(4)
        q, k, v, nq, nkv = _ragged(rng, 6, 40, 1.0)
        q = np.sign(q) * 100.0  # |q_i . k_j| up to 1e4 with |k| near 100
        k = np.clip(k * 100.0, -100.0, 100.0)
        store = nm.ParamStore()
        tq, tk, tv = store.add("q", q), store.add("k", k), store.add("v", v)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = nm.segment_attention(tq, tk, tv, np.cumsum(nq) - nq, nq, np.cumsum(nkv) - nkv, nkv)
            nm.backward((out * nm.tensor(rng.normal(size=out.shape))).sum(), store)
        assert np.abs(q @ k.T).max() > 5e3
        assert np.all(np.isfinite(out.data))
        assert all(np.all(np.isfinite(store.grad(n))) for n in ("q", "k", "v"))


def _per_pair_attention(q, k, v, nq, nkv, g):
    """``segment_attention`` as one loop over pairs, with no padding: its
    value and the q, k and v gradients of sum(g * value)."""
    spans = [(slice(qo, qo + qn), slice(ko, ko + kn))
             for qo, qn, ko, kn in zip(np.cumsum(nq) - nq, nq, np.cumsum(nkv) - nkv, nkv)]
    out, saved = np.empty((len(spans), v.shape[1])), []
    for b, (qs, ks) in enumerate(spans):
        e = q[qs] @ k[ks].T
        e -= e.max(axis=1, keepdims=True)
        np.exp(e, out=e)
        r = 1.0 / e.sum(axis=1)
        col_mean = (r @ e) / e.shape[0]
        out[b] = col_mean @ v[ks]
        e *= r[:, None]
        saved.append((e, col_mean))
    dq, dk, dv = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
    for (qs, ks), (w, col_mean), gb in zip(spans, saved, g):
        dv[ks] += np.outer(col_mean, gb)
        r = v[ks] @ gb / w.shape[0]
        ds = w * (r - (w @ r)[:, None])
        dq[qs] += ds @ k[ks]
        dk[ks] += ds.T @ q[qs]
    return [out, dq, dk, dv]


def _attention(nq, nkv):
    """``segment_attention`` over packed pairs of these lengths, as a
    function of q, k and v."""
    return lambda q, k, v: nm.segment_attention(q, k, v, np.cumsum(nq) - nq, nq,
                                                np.cumsum(nkv) - nkv, nkv)


class TestStackedAttention:
    """Pairs whose sequences are both shorter than ``PAD`` run padded, as one
    stack; the others run alone."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=24))
    def test_each_pair_gives_what_it_gives_alone(self, seed, batch):
        rng = np.random.default_rng(seed)
        # 1 to PAD - 1, PAD to 40 or 150 to 300 rows, so about a third of the pairs stack
        nq, nkv = (np.select([u < 0.6, u < 0.9], [rng.integers(1, nm.PAD, batch),
                                                  rng.integers(nm.PAD, 41, batch)],
                             rng.integers(150, 301, batch))
                   for u in rng.random((2, batch)))
        dim, vdim = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        q, k, v = (rng.normal(size=(int(n.sum()), d))
                   for n, d in ((nq, dim), (nkv, dim), (nkv, vdim)))
        weights = rng.normal(size=(batch, vdim))
        out, dq, dk, dv = _value_and_grads(_attention(nq, nkv), (q, k, v), weights)
        qo, ko = np.cumsum(nq) - nq, np.cumsum(nkv) - nkv
        for b in range(batch):
            qs, ks = slice(qo[b], qo[b] + nq[b]), slice(ko[b], ko[b] + nkv[b])
            alone = _value_and_grads(_attention(nq[b:b + 1], nkv[b:b + 1]),
                                     (q[qs], k[ks], v[ks]), weights[b:b + 1])
            for got, want in zip((out[b:b + 1], dq[qs], dk[ks], dv[ks]), alone):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_pairs_with_a_sequence_pad_long_are_the_per_pair_loop_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        pad = nm.PAD
        nq, nkv = rng.integers(pad, 301, size=(2, 10))
        # at the boundary, and one short side against a long one
        nq[:5], nkv[:5] = (pad, pad, pad + 1, 1, pad - 1), (pad, pad + 1, pad, pad, 200)
        q, k, v = rng.normal(size=(nq.sum(), 6)), rng.normal(size=(nkv.sum(), 6)), \
            rng.normal(size=(nkv.sum(), 5))
        weights = rng.normal(size=(10, 5))
        got = _value_and_grads(_attention(nq, nkv), (q, k, v), weights)
        for g, w in zip(got, _per_pair_attention(q, k, v, nq, nkv, weights)):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("nq, nkv", [([2, 0], [3, 1]), ([2, 1], [0, 4])])
    def test_empty_sequence_rejected(self, nq, nkv):
        # a padded empty sequence would gather its neighbour's rows
        nq, nkv = np.array(nq), np.array(nkv)
        q, k = np.ones((nq.sum(), 2)), np.ones((nkv.sum(), 2))
        with pytest.raises(ValueError, match="at least one row"):
            _attention(nq, nkv)(q, k, k)


def _packed_frames(rng, batch, dim):
    """A packed batch of 1-12 frame sequences with their attention scores,
    and which sequences are constant.

    About a quarter are constant, with constant scores, dyadic values and
    1, 2, 4 or 8 rows: every weight, mean and second moment is then exact in
    any summation order, so the variance is exactly 0 and the relu clamp
    holds.  The others are redrawn until each column's weighted std is at
    least 0.05.  Below that, var = m2 - mu² loses digits in any form, and
    summation order alone moves a gradient by about 1e-16 / std².
    """
    rows, scores, lengths, constant = [], [], [], []
    for _ in range(batch):
        if rng.random() < 0.25:
            n = int(rng.choice([1, 2, 4, 8]))
            h = np.tile(rng.integers(-32, 33, size=dim) / 8.0, (n, 1))
            sc = np.full(n, rng.normal())
        else:
            while True:
                n = int(rng.integers(1, 13))
                h, sc = rng.normal(size=(n, dim)), rng.normal(size=n) * 1.5
                alpha = np.exp(sc - sc.max())
                alpha /= alpha.sum()
                if n == 1 or np.min(alpha @ (h - alpha @ h) ** 2) >= 0.05 ** 2:
                    break
        rows.append(h)
        scores.append(sc)
        lengths.append(n)
        constant.append(n == 1 or np.ptp(h, axis=0).max() == 0.0)
    return np.concatenate(rows), np.concatenate(scores), np.array(lengths), np.array(constant)


def _value_and_grads(build, arrays, weights):
    """``build``'s value and the gradients of sum(weights * value) for each
    of ``arrays``, in order."""
    store = nm.ParamStore()
    out = build(*(store.add(f"a{i}", a) for i, a in enumerate(arrays)))
    nm.backward((out * nm.tensor(weights)).sum(), store)
    return [out.data] + [store.grad(f"a{i}") for i in range(len(arrays))]


class TestFusedOpsMatchTheirGraphs:
    """``dense``, ``segment_stat_pool`` and ``segment_mean`` against the
    graph compositions they replace (``helpers.oracle_*``), on random
    ragged batches: values and gradients."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=6))
    def test_segment_ops(self, seed, batch, dim):
        rng = np.random.default_rng(seed)
        H, scores, lengths, constant = _packed_frames(rng, batch, dim)
        offsets = np.cumsum(lengths) - lengths
        cases = [
            (lambda h, s: nm.segment_stat_pool(h, s, offsets, lengths),
             lambda h, s: oracle_segment_stat_pool(h, s, lengths), 2 * dim),
            (lambda h, s: nm.segment_mean(h, offsets, lengths),
             lambda h, s: oracle_segment_mean(h, lengths), dim),
        ]
        for fused, oracle, width in cases:
            weights = rng.normal(size=(batch, width))
            got = _value_and_grads(fused, (H, scores), weights)
            want = _value_and_grads(oracle, (H, scores), weights)
            for g, w in zip(got, want):
                assert np.max(np.abs(g - w)) <= 1e-12
        pooled = nm.segment_stat_pool(H, scores, offsets, lengths).data
        assert np.all(pooled[constant, dim:] == np.sqrt(nm.VAR_EPS))  # the clamp holds

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=40),
           st.sampled_from(["none", "tanh", "mish", "relu"]))
    def test_dense_is_its_graph_bit_for_bit(self, seed, batch, activation):
        # batch 0 stands for a single (D,) input row
        rng = np.random.default_rng(seed)
        d, f = rng.integers(1, 9, size=2)
        x = rng.normal(size=(batch, d) if batch else d)
        W, b = rng.normal(size=(d, f)), rng.normal(size=f)
        weights = rng.normal(size=(batch, f) if batch else f)
        got = _value_and_grads(lambda *t: nm.dense(*t, activation), (x, W, b), weights)
        want = _value_and_grads(lambda *t: oracle_dense(*t, activation), (x, W, b), weights)
        for fused, composed in zip(got, want):
            assert fused.tobytes() == composed.tobytes()


class TestBackward:
    def test_sum_of_parameter_gives_ones(self):
        store = nm.ParamStore()
        p = store.add("p", np.arange(12.0).reshape(3, 4))
        nm.backward(p.sum(), store)
        assert np.array_equal(store.grad("p"), np.ones((3, 4)))

    def test_unreachable_parameter_gets_zeros(self):
        store = nm.ParamStore()
        a = store.add("a", [1.0, 2.0])
        store.add("b", [3.0])
        nm.backward(a.sum(), store)
        assert np.array_equal(store.grad("b"), np.zeros(1))

    def test_non_scalar_loss_rejected(self):
        store = nm.ParamStore()
        a = store.add("a", [1.0, 2.0])
        with pytest.raises(ValueError, match="scalar"):
            nm.backward(a + 1.0, store)

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(4, 3))
        x = rng.normal(size=4)

        def run():
            store = nm.ParamStore()
            wt = store.add("w", w)
            loss = nm.mish(nm.tensor(x) @ wt).sum()
            nm.backward(loss, store)
            return store.grad("w")

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)

    def test_repeated_backward_on_same_graph_bit_identical(self):
        rng = np.random.default_rng(8)
        store = nm.ParamStore()
        w = store.add("w", rng.normal(size=(3, 3)))
        loss = nm.square(nm.tensor(rng.normal(size=3)) @ nm.tanh(w)).sum()
        nm.backward(loss, store)
        first = store.grad("w").copy()
        nm.backward(loss, store)
        assert np.array_equal(first, store.grad("w"))

    def test_cycle_detection(self):
        a = nm.tensor([1.0])
        b = nm.mish(a)
        a._parents = (b,)  # corrupt the graph on purpose
        with pytest.raises(ValueError, match="cycle"):
            nm.backward(b.sum())

    def test_shape_mismatch_names_op(self):
        with pytest.raises(ValueError, match="matmul"):
            nm.matmul(nm.tensor(np.ones((2, 3))), nm.tensor(np.ones((2, 3))))
        with pytest.raises(ValueError, match="add"):
            nm.add(nm.tensor(np.ones(3)), nm.tensor(np.ones(4)))


class TestCccColumns:
    def test_near_zero_denominator_names_the_column(self):
        # column 1: x constant, y moving by 1e-9, so var_y + gap^2 = 5e-19
        x = np.array([[0.0, 0.0], [1.0, 0.0]])
        y = np.array([[1.0, 0.0], [2.0, 1e-9]])
        with pytest.raises(ValueError, match="degenerate CCC in column 1"):
            nm.ccc_columns(x, y)


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = nm.ParamStore()
        store.add("w", [1.0])
        with pytest.raises(ValueError, match="duplicate"):
            store.add("w", [2.0])

    def test_set_value_shape_checked(self):
        store = nm.ParamStore()
        store.add("w", np.ones((2, 2)))
        with pytest.raises(ValueError, match="shape"):
            store.set_value("w", np.ones(3))

    def test_gradient_shapes_match_parameters(self):
        store = nm.ParamStore()
        a = store.add("a", np.ones((2, 3)))
        store.add("b", np.ones(5))
        nm.backward((a * 2.0).sum(), store)
        for name in ("a", "b"):
            assert store.grad(name).shape == store.value(name).shape


class TestGradientsAgainstFiniteDifferences:
    """Every op in the fixed set against the central-difference oracle."""

    def _vec(self, rng, n=4, lo=-2.0, hi=2.0):
        return rng.uniform(lo, hi, size=n)

    @pytest.mark.parametrize("seed", range(3))
    def test_binary_ops(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-2, 2, size=(3, 4))
        b = rng.uniform(0.5, 2, size=(3, 4))
        bias = rng.uniform(-1, 1, size=4)
        check_gradients(lambda s: (s["a"] * s["b"]).sum(), {"a": a.copy(), "b": b.copy()})
        check_gradients(lambda s: (s["a"] + s["bias"]).sum(), {"a": a.copy(), "bias": bias.copy()})
        check_gradients(lambda s: (s["a"] - s["b"]).mean(), {"a": a.copy(), "b": b.copy()})
        check_gradients(lambda s: nm.div(s["a"], s["b"]).sum(), {"a": a.copy(), "b": b.copy()})

    @pytest.mark.parametrize("seed", range(3))
    def test_matmul_all_rank_cases(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.uniform(-1, 1, size=(3, 4))
        n = rng.uniform(-1, 1, size=(4, 2))
        v = rng.uniform(-1, 1, size=4)
        u = rng.uniform(-1, 1, size=3)
        check_gradients(lambda s: (s["m"] @ s["n"]).sum(), {"m": m.copy(), "n": n.copy()})
        check_gradients(lambda s: (s["v"] @ s["n"]).sum(), {"v": v.copy(), "n": n.copy()})
        check_gradients(lambda s: (s["m"] @ s["v"]).sum(), {"m": m.copy(), "v": v.copy()})
        check_gradients(lambda s: s["v"] @ s["v2"], {"v": v.copy(), "v2": (v + 1).copy()})

    @pytest.mark.parametrize(
        "op,lo,hi",
        [
            (nm.tanh, -2.0, 2.0),
            (nm.exp, -2.0, 2.0),
            (nm.log, 0.2, 3.0),
            (nm.mish, -3.0, 3.0),
            (nm.square, -2.0, 2.0),
            (nm.sqrt, 0.3, 3.0),
        ],
    )
    def test_elementwise_ops(self, op, lo, hi):
        rng = np.random.default_rng(11)
        x = rng.uniform(lo, hi, size=6)
        check_gradients(lambda s: op(s["x"]).sum(), {"x": x.copy()})

    def test_relu_away_from_kink(self):
        x = np.array([-1.5, -0.4, 0.3, 1.2, 2.0])
        check_gradients(lambda s: nm.relu(s["x"]).sum(), {"x": x.copy()})

    @pytest.mark.parametrize("p", [0.0, 0.5, 2.0, 3.7])
    def test_powf(self, p):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.2, 2.0, size=5)
        check_gradients(lambda s: nm.powf(s["x"], p).sum(), {"x": x.copy()})

    def test_softmax_and_reductions(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-2, 2, size=(3, 5))
        check_gradients(lambda s: s["x"].mean(axis=0).sum(), {"x": x.copy()})
        check_gradients(lambda s: s["x"].sum(axis=1).mean(), {"x": x.copy()})

    def test_concat_and_stack(self):
        rng = np.random.default_rng(9)
        a = rng.uniform(-1, 1, size=3)
        b = rng.uniform(-1, 1, size=4)
        check_gradients(
            lambda s: nm.mish(nm.concat([s["a"], s["b"]])).sum(),
            {"a": a.copy(), "b": b.copy()},
        )

    def test_segment_attention_ragged(self):
        rng = np.random.default_rng(10)
        nq, nkv = np.array([2, 1, 3, 1]), np.array([1, 4, 2, 1])  # one-row sequences on both sides
        weights = rng.normal(size=(4, 2))
        check_gradients(
            lambda s: (nm.segment_attention(s["q"], s["k"], s["v"], np.cumsum(nq) - nq, nq,
                                            np.cumsum(nkv) - nkv, nkv)
                       * nm.tensor(weights)).sum(),
            {"q": rng.normal(size=(7, 3)), "k": rng.normal(size=(8, 3)),
             "v": rng.normal(size=(8, 2))},
        )

    def test_segment_attention_stacked(self):
        # one-frame queries and keys, lengths either side of PAD, and a long pair
        pad, rng = nm.PAD, np.random.default_rng(11)
        nq = np.array([1, 2, 1, pad - 1, pad - 1, pad, pad + 1, 3, 30])
        nkv = np.array([1, 1, 3, pad - 1, pad, pad - 1, pad + 1, pad + 1, 25])
        weights = rng.normal(size=(len(nq), 2))
        check_gradients(
            lambda s: (_attention(nq, nkv)(s["q"], s["k"], s["v"]) * nm.tensor(weights)).sum(),
            {"q": rng.normal(size=(nq.sum(), 3)) * 2.0, "k": rng.normal(size=(nkv.sum(), 3)),
             "v": rng.normal(size=(nkv.sum(), 2))},
        )

    def test_three_layer_head_composite_seed_42(self):
        rng = np.random.default_rng(42)
        dims = [4, 5, 4, 3]
        arrays = {"x": rng.uniform(-1, 1, size=dims[0])}
        for i in range(3):
            arrays[f"w{i}"] = rng.uniform(-0.7, 0.7, size=(dims[i], dims[i + 1]))
            arrays[f"b{i}"] = rng.uniform(-0.3, 0.3, size=dims[i + 1])

        def build(s):
            h = nm.tensor(arrays["x"])
            h = nm.mish(h @ s["w0"] + s["b0"])
            h = nm.tanh(h @ s["w1"] + s["b1"])
            out = h @ s["w2"] + s["b2"]
            return nm.square(out).sum()

        check_gradients(build, {k: v.copy() for k, v in arrays.items() if k != "x"})


def _mish_factor(x):
    # t + x(1 - t²)σ(x) with 1 - t² = 4(e + 1)²/w² and σ(x) = e/(e + 1)
    e = np.exp(np.minimum(x, 20.0))
    n = (e + 2.0) * e
    w = n + 2.0
    return (e + 1.0) * e * np.where(x < 20.0, x, 0.0) / (w * w) * 4.0 + n / w


# (op, input range, backward factor written eagerly from the forward input)
EAGER_FACTORS = [
    (nm.tanh, -2.0, 2.0, lambda x: 1.0 - np.tanh(x) * np.tanh(x)),
    (nm.exp, -2.0, 2.0, np.exp),
    (nm.log, 0.2, 3.0, lambda x: 1.0 / x),
    (nm.mish, -3.0, 3.0, _mish_factor),
    (nm.relu, -2.0, 2.0, lambda x: (x > 0.0).astype(np.float64)),
    (nm.square, -2.0, 2.0, lambda x: 2.0 * x),
    (nm.sqrt, 0.3, 3.0, lambda x: 0.5 / np.sqrt(x)),
    (lambda t: nm.powf(t, 3.7), 0.2, 2.0, lambda x: 3.7 * np.power(x, 2.7)),
]


class TestLazyBackwardFactors:
    """Elementwise backward factors are computed by ``backward``, from the
    arrays the forward pass saw, and never by a forward-only pass."""

    @pytest.mark.parametrize("op,lo,hi,factor", EAGER_FACTORS)
    def test_gradient_is_the_eager_factor_bit_for_bit(self, op, lo, hi, factor):
        rng = np.random.default_rng(23)
        x0 = rng.uniform(lo, hi, size=7)
        w = rng.uniform(-1.5, 1.5, size=7)
        store = nm.ParamStore()
        loss = (op(store.add("x", x0.copy())) * nm.tensor(w)).sum()
        # rebinding the parameter between forward and backward must not
        # change the gradient of the graph already built
        store.set_value("x", x0 + 0.25)
        nm.backward(loss, store)
        assert store.grad("x").tobytes() == (w * factor(x0)).tobytes()

    def test_forward_only_passes_compute_no_factor(self, monkeypatch):
        records = gen_synthetic(SynthConfig(
            class_counts=(6,) * 8, separation=1.5, noise_sigma=0.3,
            split_fractions=(0.7, 0.3, 0.0), seed=5,
        ))
        ckpts = {
            modality: train_stage1(TrainConfig(
                stage=1, task="categorical", modality=modality, loss="focal",
                learning_rate=0.01, epochs=1, seed=3, batch_size=16,
            ), records)
            for modality in ("speech", "text")
        }
        concat = train_stage2(TrainConfig(
            stage=2, task="categorical", fusion="concat", learning_rate=0.01, epochs=1, seed=4,
            batch_size=16,
        ), ckpts["speech"], ckpts["text"], records)
        built, calls = [], []
        real = nm._activate

        def counting(activation, z):
            y, local = real(activation, z)
            if local is None:
                return y, None

            def counted():
                calls.append((activation, z.shape))
                return local()

            built.append(activation)
            return y, counted

        # every activation's factor, the elementwise ops' and the fused
        # layers', comes from _activate
        monkeypatch.setattr(nm, "_activate", counting)
        predict(ckpts["speech"], records)
        predict(concat, records)
        assert {"mish", "tanh"} <= set(built) and calls == []
        # the counter does see the factors once a backward pass needs them
        store = nm.ParamStore()
        x = store.add("x", np.ones(3))
        nm.backward(nm.mish(x).sum() + nm.dense(x, np.eye(3), np.zeros(3), "mish").sum(), store)
        assert sorted(calls) == [("mish", (3,))] * 2
