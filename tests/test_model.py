import numpy as np
import pytest

from serlab import model
from serlab import numerics as nm

from helpers import (
    check_gradients,
    oracle_init_cross_attention_params,
    oracle_init_encoder_params,
    oracle_init_head_params,
)


def _one(frames) -> model.Segments:
    """The layout of a batch that holds the one sequence ``frames``."""
    return model.Segments.of([len(frames)])


def _pool_params(store, hidden, att=None, seed=0, zero_attention=False):
    rng = np.random.default_rng(seed)
    att = att or hidden
    W = store.add("W", rng.uniform(-0.5, 0.5, size=(hidden, att)))
    b = store.add("b", rng.uniform(-0.2, 0.2, size=att))
    v_arr = np.zeros(att) if zero_attention else rng.uniform(-0.5, 0.5, size=att)
    v = store.add("v", v_arr)
    return W, b, v


class TestAttentiveStatPool:
    def test_single_frame_degenerates_to_frame_and_eps_std(self):
        store = nm.ParamStore()
        W, b, v = _pool_params(store, hidden=3, seed=1)
        h = np.array([[0.4, -1.2, 2.0]])
        out = model.attentive_stat_pool(nm.tensor(h), W, b, v, _one(h)).data[0]
        assert np.allclose(out[:3], h[0], atol=1e-12)
        assert np.allclose(out[3:], np.sqrt(model.VAR_EPS), atol=1e-12)

    def test_zero_attention_equals_plain_statistics(self):
        store = nm.ParamStore()
        W, b, v = _pool_params(store, hidden=4, seed=2, zero_attention=True)
        rng = np.random.default_rng(3)
        h = rng.normal(size=(6, 4))
        out = model.attentive_stat_pool(nm.tensor(h), W, b, v, _one(h)).data[0]
        mu = h.mean(axis=0)
        sigma = np.sqrt(np.maximum((h * h).mean(axis=0) - mu * mu, 0.0) + model.VAR_EPS)
        assert np.allclose(out, np.concatenate([mu, sigma]), atol=1e-12)

    def test_two_frame_hand_case(self):
        store = nm.ParamStore()
        W, b, v = _pool_params(store, hidden=2, seed=4, zero_attention=True)
        h = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = model.attentive_stat_pool(nm.tensor(h), W, b, v, _one(h)).data[0]
        assert np.allclose(out[:2], [0.5, 0.5], atol=1e-12)
        assert np.allclose(out[2:], np.sqrt(0.25 + model.VAR_EPS), atol=1e-12)

    def test_constant_frames_invariant_to_frame_count(self):
        store = nm.ParamStore()
        W, b, v = _pool_params(store, hidden=3, seed=5)
        frame = np.array([0.7, -0.3, 1.1])
        for t in (2, 5, 9):
            h = np.tile(frame, (t, 1))
            out = model.attentive_stat_pool(nm.tensor(h), W, b, v, _one(h)).data[0]
            assert np.allclose(out[:3], frame, atol=1e-9)
            assert np.allclose(out[3:], np.sqrt(model.VAR_EPS), atol=1e-9)

    def test_std_entries_never_below_sqrt_eps(self):
        store = nm.ParamStore()
        W, b, v = _pool_params(store, hidden=3, seed=6)
        h = np.random.default_rng(7).normal(size=(5, 3))
        out = model.attentive_stat_pool(nm.tensor(h), W, b, v, _one(h)).data[0]
        assert np.all(out[3:] >= np.sqrt(model.VAR_EPS) - 1e-15)

    def test_attention_weights_sum_to_one(self):
        # with one-hot frames, the pooled mean of each sequence is its
        # attention weights over the packed rows
        store = nm.ParamStore()
        W, b, v = _pool_params(store, hidden=3, seed=9)
        rng = np.random.default_rng(10)
        lengths = (1, 2, 6, 11)
        h, segments = model.pack([rng.normal(size=(t, 3)) for t in lengths])
        scores = nm.dense(nm.tensor(h), W, b, "tanh") @ v  # as attentive_stat_pool scores
        onehot = nm.tensor(np.eye(len(h)))
        pooled = nm.segment_stat_pool(onehot, scores, segments.offsets, segments.lengths).data
        for alpha, start, t in zip(pooled[:, :len(h)], segments.offsets, lengths):
            assert abs(alpha.sum() - 1.0) < 1e-12
            assert np.all(alpha[start:start + t] > 0)
            assert np.all(np.delete(alpha, np.arange(start, start + t)) == 0)

    def test_empty_sequence_rejected(self):
        store = nm.ParamStore()
        W, b, v = _pool_params(store, hidden=3)
        with pytest.raises(ValueError, match="empty sequence"):
            h = np.zeros((0, 3))
            model.attentive_stat_pool(nm.tensor(h), W, b, v, _one(h))

    def test_gradients(self):
        rng = np.random.default_rng(42)
        h = rng.normal(size=(4, 3))
        arrays = {
            "W": rng.uniform(-0.5, 0.5, size=(3, 3)),
            "b": rng.uniform(-0.2, 0.2, size=3),
            "v": rng.uniform(-0.5, 0.5, size=3),
        }
        check_gradients(
            lambda s: model.attentive_stat_pool(nm.tensor(h), s["W"], s["b"], s["v"], _one(h)).sum(),
            {k: v.copy() for k, v in arrays.items()},
        )


class TestMeanPool:
    def test_single_row(self):
        row = np.array([[2.0, -1.0, 0.5]])
        assert np.array_equal(model.mean_pool(nm.tensor(row), _one(row)).data[0], row[0])

    def test_arithmetic(self):
        h = np.array([[2.0, 4.0], [4.0, 8.0]])
        assert np.allclose(model.mean_pool(nm.tensor(h), _one(h)).data[0], [3.0, 6.0], atol=1e-15)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        h = rng.normal(size=(7, 4))
        perm = rng.permutation(7)
        a = model.mean_pool(nm.tensor(h), _one(h)).data[0]
        b = model.mean_pool(nm.tensor(h[perm]), _one(h)).data[0]
        assert np.allclose(a, b, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty sequence"):
            h = np.zeros((0, 2))
            model.mean_pool(nm.tensor(h), _one(h))


class TestInitParams:
    def test_init_params_matches_the_layer_by_layer_oracle(self):
        # same names, order, dtypes and bytes, and the generator left in the
        # same state, so a second part drawn from it matches too
        dims = ((3, 4, 5), (12, 16, 16), (1, 1, 1), (7, 2, 9))
        cases = []
        for a, b, c in dims:
            for modality in model.MODALITIES:
                cfg = model.EncoderCfg(modality, a, b, c)
                cases.append((model.encoder_shapes(cfg),
                              lambda rng, cfg=cfg: oracle_init_encoder_params(cfg, rng)))
            for task in model.TASKS:
                out = model.TASK_OUT_DIMS[task]
                cases.append((model.head_shapes(a, out),
                              lambda rng, a=a, out=out: oracle_init_head_params(a, out, rng)))
            cases.append((model.cross_attention_shapes(a, b, c),
                          lambda rng, d=(a, b, c): oracle_init_cross_attention_params(*d, rng)))
        for seed in (0, 1, 13, 20001):
            for shapes, oracle in cases:
                rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got, want = model.init_params(shapes, rng), oracle(oracle_rng)
                assert list(got) == list(want)
                for name in want:
                    assert got[name].dtype == want[name].dtype, name
                    assert got[name].shape == want[name].shape, name
                    assert got[name].tobytes() == want[name].tobytes(), name
                assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestEncoderForward:
    def _views(self, cfg, seed=0):
        store = nm.ParamStore()
        rng = np.random.default_rng(seed)
        for name, arr in model.init_params(model.encoder_shapes(cfg), rng).items():
            store.add(name, arr)
        return store, store.view("")

    def test_output_dim_independent_of_length(self):
        cfg = model.EncoderCfg("speech", frame_dim=5, hidden_dim=4, out_dim=6)
        _, view = self._views(cfg)
        rng = np.random.default_rng(1)
        for t in (1, 3, 8):
            frames = rng.normal(size=(t, 5))
            out = model.encoder_forward(cfg, view, frames, _one(frames))
            assert out.data[0].shape == (6,)

    def test_dim_mismatch_rejected(self):
        cfg = model.EncoderCfg("speech", frame_dim=5, hidden_dim=4, out_dim=6)
        _, view = self._views(cfg)
        with pytest.raises(ValueError, match="expected T x 5"):
            frames = np.zeros((3, 4))
            model.encoder_forward(cfg, view, frames, _one(frames))

    def test_nan_frame_rejected_by_mish(self):
        # frame_hidden leaves finiteness to the callers' input checks and to
        # mish, which a bad frame reaches through the affine layer
        cfg = model.EncoderCfg("speech", frame_dim=5, hidden_dim=4, out_dim=6)
        _, view = self._views(cfg)
        frames = np.random.default_rng(2).normal(size=(3, 5))
        frames[1, 2] = np.nan
        with pytest.raises(ValueError, match="mish: non-finite input"):
            model.encoder_forward(cfg, view, frames, _one(frames))

    def test_empty_sequence_propagates(self):
        cfg = model.EncoderCfg("text", frame_dim=3, hidden_dim=3, out_dim=2)
        _, view = self._views(cfg)
        with pytest.raises(ValueError, match="empty sequence"):
            frames = np.zeros((0, 3))
            model.encoder_forward(cfg, view, frames, _one(frames))

    def test_identity_pipeline_matches_plain_statistics(self):
        # identity frame affine and projection, attention collapsed to uniform:
        # the encoder reduces to plain statistics of mish(frames)
        d = 3
        cfg = model.EncoderCfg("speech", frame_dim=d, hidden_dim=d, out_dim=2 * d)
        store = nm.ParamStore()
        view = {
            "frame.W": store.add("frame.W", np.eye(d)),
            "frame.b": store.add("frame.b", np.zeros(d)),
            "att.W": store.add("att.W", np.eye(d)),
            "att.b": store.add("att.b", np.zeros(d)),
            "att.v": store.add("att.v", np.zeros(d)),
            "proj.W": store.add("proj.W", np.eye(2 * d)),
            "proj.b": store.add("proj.b", np.zeros(2 * d)),
        }
        rng = np.random.default_rng(13)
        frames = rng.normal(size=(5, d))
        out = model.encoder_forward(cfg, view, frames, _one(frames)).data[0]
        m = nm.mish(nm.tensor(frames)).data
        mu = m.mean(axis=0)
        sigma = np.sqrt(np.maximum((m * m).mean(axis=0) - mu * mu, 0.0) + model.VAR_EPS)
        assert np.allclose(out, np.concatenate([mu, sigma]), atol=1e-12)

    def test_gradients_over_all_params_seed_42(self):
        cfg = model.EncoderCfg("speech", frame_dim=3, hidden_dim=3, out_dim=4)
        rng = np.random.default_rng(42)
        arrays = model.init_params(model.encoder_shapes(cfg), rng)
        frames = rng.normal(size=(4, 3))
        check_gradients(
            lambda s: model.encoder_forward(cfg, s, frames, _one(frames)).sum(),
            {k: v.copy() for k, v in arrays.items()},
        )

    def test_text_encoder_gradients(self):
        cfg = model.EncoderCfg("text", frame_dim=3, hidden_dim=4, out_dim=3)
        rng = np.random.default_rng(21)
        arrays = model.init_params(model.encoder_shapes(cfg), rng)
        tokens = rng.normal(size=(5, 3))
        check_gradients(
            lambda s: nm.square(model.encoder_forward(cfg, s, tokens, _one(tokens))).sum(),
            {k: v.copy() for k, v in arrays.items()},
        )


class TestFusionHead:
    def _identity_view(self, store, dim, out_dim):
        trunc = np.zeros((dim, out_dim))
        trunc[np.arange(min(dim, out_dim)), np.arange(min(dim, out_dim))] = 1.0
        return {
            "fc1.W": store.add("fc1.W", np.eye(dim)),
            "fc1.b": store.add("fc1.b", np.zeros(dim)),
            "fc2.W": store.add("fc2.W", trunc),
            "fc2.b": store.add("fc2.b", np.zeros(out_dim)),
        }

    def test_relu_kills_negative_input(self):
        store = nm.ParamStore()
        view = self._identity_view(store, dim=4, out_dim=3)
        out = model.fusion_head_forward("relu", view, nm.tensor([-1.0, -2.0, -0.5, -3.0]))
        assert np.array_equal(out.data, np.zeros(3))

    def test_mish_close_to_relu_at_large_positive_inputs(self):
        store = nm.ParamStore()
        view = self._identity_view(store, dim=4, out_dim=3)
        fused = nm.tensor([5.0, 5.0, 5.0, 5.0])
        out_mish = model.fusion_head_forward("mish", view, fused).data
        out_relu = model.fusion_head_forward("relu", view, fused).data
        assert not np.array_equal(out_mish, out_relu)
        assert np.max(np.abs(out_mish - out_relu)) < 1e-2

    def test_output_widths_per_task(self):
        rng = np.random.default_rng(3)
        for task, width in (("categorical", 8), ("attributes", 3)):
            store = nm.ParamStore()
            view = {
                name: store.add(name, arr)
                for name, arr in model.init_params(
                    model.head_shapes(6, model.TASK_OUT_DIMS[task]), rng
                ).items()
            }
            out = model.fusion_head_forward("mish", view, nm.tensor(np.ones(6)))
            assert out.shape == (width,)

    def test_argmax_agreement_in_saturation_region(self):
        # FC1 output >= 10 elementwise puts mish and relu in near-identity range
        rng = np.random.default_rng(17)
        store = nm.ParamStore()
        view = self._identity_view(store, dim=6, out_dim=3)
        fc2 = rng.uniform(-1, 1, size=(6, 3))
        store.set_value("fc2.W", fc2)
        fused = nm.tensor(rng.uniform(10.0, 20.0, size=6))
        a = model.fusion_head_forward("mish", view, fused)
        b = model.fusion_head_forward("relu", view, fused)
        assert int(np.argmax(a.data)) == int(np.argmax(b.data))

    def test_unknown_activation_rejected(self):
        store = nm.ParamStore()
        view = self._identity_view(store, dim=4, out_dim=3)
        with pytest.raises(ValueError, match="activation"):
            model.fusion_head_forward("gelu", view, nm.tensor(np.ones(4)))

    def test_head_gradients(self):
        rng = np.random.default_rng(42)
        arrays = model.init_params(model.head_shapes(4, model.TASK_OUT_DIMS["attributes"]), rng)
        fused = rng.normal(size=4)
        check_gradients(
            lambda s: nm.square(model.fusion_head_forward("mish", s, nm.tensor(fused))).sum(),
            {k: v.copy() for k, v in arrays.items()},
        )


class TestCrossAttention:
    def _arrays(self, rng, ds=3, dt=4, attn=3):
        return model.init_params(model.cross_attention_shapes(ds, dt, attn), rng)

    def _fuse(self, hs, ht, view):
        """The batched head over a batch of the one utterance (hs, ht)."""
        return model.cross_attention_fuse(nm.tensor(hs), nm.tensor(ht), view, _one(hs), _one(ht))

    def test_single_frames_yield_projected_speech_value(self):
        rng = np.random.default_rng(5)
        arrays = self._arrays(rng)
        store = nm.ParamStore()
        view = {n: store.add(n, a) for n, a in arrays.items()}
        hs = rng.normal(size=(1, 3))
        ht = rng.normal(size=(1, 4))
        out = self._fuse(hs, ht, view).data[0]
        assert np.allclose(out, hs[0] @ arrays["v.W"], atol=1e-12)

    def test_identical_keys_make_attention_uniform(self):
        rng = np.random.default_rng(6)
        arrays = self._arrays(rng)
        store = nm.ParamStore()
        view = {n: store.add(n, a) for n, a in arrays.items()}
        hs = np.tile(rng.normal(size=3), (4, 1))  # all speech frames identical
        out1 = self._fuse(hs, rng.normal(size=(2, 4)), view).data[0]
        out2 = self._fuse(hs, rng.normal(size=(3, 4)), view).data[0]
        expected = hs[0] @ arrays["v.W"]
        assert np.allclose(out1, expected, atol=1e-12)
        assert np.allclose(out2, expected, atol=1e-12)

    def test_empty_sequences_rejected(self):
        rng = np.random.default_rng(7)
        store = nm.ParamStore()
        view = {n: store.add(n, a) for n, a in self._arrays(rng).items()}
        with pytest.raises(ValueError, match="empty sequence"):
            self._fuse(np.zeros((0, 3)), np.ones((1, 4)), view)
        with pytest.raises(ValueError, match="empty sequence"):
            self._fuse(np.ones((1, 3)), np.zeros((0, 4)), view)

    def test_projection_gradients(self):
        rng = np.random.default_rng(42)
        arrays = self._arrays(rng)
        hs = rng.normal(size=(3, 3))
        ht = rng.normal(size=(2, 4))
        check_gradients(
            lambda s: nm.square(self._fuse(hs, ht, s)).sum(),
            {k: v.copy() for k, v in arrays.items()},
        )


class TestConfigs:
    def test_dims_validated(self):
        with pytest.raises(ValueError):
            model.EncoderCfg("speech", frame_dim=0, hidden_dim=1, out_dim=1)
        with pytest.raises(ValueError):
            model.EncoderCfg("text", frame_dim=1, hidden_dim=-1, out_dim=1)

    def test_unknown_modality_rejected(self):
        with pytest.raises(ValueError, match="unknown modality 'audio'"):
            model.EncoderCfg("audio", frame_dim=1, hidden_dim=1, out_dim=1)
