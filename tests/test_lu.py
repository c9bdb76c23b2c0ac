import json
import os
import platform
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctsum import lu
from ctsum._kernels import pack
from ctsum.lu import (
    LUConfig,
    LUModel,
    _Adam,
    _batch_loss_and_grads,
    _clone_for_training,
    embed_labels,
    gradient_check,
    load_model,
    lu_forward,
    lu_init,
    lu_train,
    save_model,
)
from ctsum.harness import SystemId, run_system
from ctsum.seqcore import PROB_FLOOR, FormatError, LatentSequence, ProjectionMatrix, Vocabulary
from gru_reference import loss_and_grads_py


def tiny_config(**kw):
    base = dict(input_dim=3, num_intents=2, hidden=2, layers=2, seed=9)
    base.update(kw)
    return LUConfig(**base)


def zero_model(config):
    model = lu_init(config)
    for p in model.param_arrays():
        p[...] = 0.0
    return model


def mean_ce(model, corpus):
    losses = []
    for x, y in corpus:
        probs = lu_forward(model, x)
        losses.append(-np.log(max(probs[y], 1e-30)))
    return float(np.mean(losses))


@pytest.fixture
def no_layer_walk(monkeypatch):
    """Fail at once, instead of walking the layers of a hostile header for
    hours, if a layer count that large reaches ``lu._layout``."""
    layout = lu._layout

    def guarded(config):
        assert config.layers < 10**4, f"_layout walked {config.layers} layers"
        return layout(config)

    monkeypatch.setattr(lu, "_layout", guarded)


def write_model_header(path, edit):
    """Rewrite the JSON header of the .ctsm at ``path`` with ``edit``."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[6:10])
    meta = json.loads(raw[10 : 10 + hlen])
    edit(meta)
    header = json.dumps(meta).encode("utf-8")
    path.write_bytes(raw[:6] + struct.pack("<I", len(header)) + header + raw[10 + hlen :])


class TestInit:
    def test_same_seed_bit_identical(self):
        a = lu_init(tiny_config())
        b = lu_init(tiny_config())
        for pa, pb in zip(a.param_arrays(), b.param_arrays()):
            np.testing.assert_array_equal(pa, pb)

    def test_different_seeds_differ(self):
        a = lu_init(tiny_config(seed=1))
        b = lu_init(tiny_config(seed=2))
        assert any(
            not np.array_equal(pa, pb)
            for pa, pb in zip(a.param_arrays(), b.param_arrays())
        )

    def test_fan_in_bound(self):
        cfg = LUConfig(input_dim=4, num_intents=3, hidden=4, layers=1, seed=0, vocab_size=6)
        model = lu_init(cfg)
        for p in model.param_arrays():
            assert np.abs(p).max() <= 0.5
        # layer-0 input weights draw from the full +-0.5 range
        assert np.abs(model.layers[0][0].w).max() > 0.25

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            LUConfig(input_dim=0, num_intents=2)
        with pytest.raises(ValueError):
            LUConfig(input_dim=2, num_intents=1)
        with pytest.raises(ValueError):
            LUConfig(input_dim=2, num_intents=2, learning_rate=0.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -5"):
            LUConfig(input_dim=3, num_intents=2, seed=-5)
        assert LUConfig(input_dim=3, num_intents=2, seed=0).seed == 0

    @pytest.mark.parametrize("field", ["seed", "hidden", "vocab_size"])
    @pytest.mark.parametrize("value", [1.7, 2.0, True])
    def test_integer_fields_reject_float_and_bool(self, field, value):
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            LUConfig(input_dim=2, num_intents=2, **{field: value})

    @pytest.mark.parametrize(
        "value", [True, float("inf"), float("nan"), "0.1"], ids=["bool", "inf", "nan", "string"]
    )
    def test_learning_rate_rejects_bool_string_and_non_finite(self, value):
        with pytest.raises(TypeError, match="learning_rate must be a finite number"):
            LUConfig(input_dim=2, num_intents=2, learning_rate=value)

    def test_numpy_integer_seed_accepted(self):
        cfg = LUConfig(input_dim=2, num_intents=2, seed=np.uint32(7))
        assert cfg.seed == 7 and type(cfg.seed) is int


class TestParamBuffer:
    """Every parameter array is a view into the one flat ``params``."""

    @staticmethod
    def assert_views(model):
        arrays = model.param_arrays()
        assert all(np.shares_memory(p, model.params) for p in arrays)
        np.testing.assert_array_equal(np.concatenate([p.ravel() for p in arrays]), model.params)
        named = [model.w_out, model.b_out] + [
            arr for fw, bw in model.layers for arr in (fw.w, fw.u, fw.b, bw.w, bw.u, bw.b)
        ]
        if model.embedding is not None:
            named.append(model.embedding)
        assert all(np.shares_memory(p, model.params) for p in named)

    def test_init_fields_are_views(self):
        model = lu_init(tiny_config(vocab_size=5))
        self.assert_views(model)
        model.b_out[1] = 7.0
        assert model.params[model.params.size - 5 * 3 - 1] == 7.0  # b_out precedes the 5x3 table

    def test_loaded_and_fine_tuned_models_keep_views(self, tmp_path):
        rng = np.random.default_rng(4)
        corpus = [(rng.standard_normal((3, 3)), i % 2) for i in range(4)]
        base = lu_train(tiny_config(epochs=1), corpus)
        tuned = lu_train(tiny_config(seed=3, epochs=1), corpus, init_model=base)
        save_model(tmp_path / "m.ctsm", tuned)
        for model in (tuned, load_model(tmp_path / "m.ctsm")):
            self.assert_views(model)
        assert not np.shares_memory(base.params, tuned.params)

    def test_stacked_views_read_params(self):
        cfg = tiny_config(layers=3, vocab_size=5)
        model = lu_init(cfg)
        model.params[:] = np.arange(model.params.size)  # every position distinct
        h3 = 3 * cfg.hidden
        for i, (stack, pair) in enumerate(zip(model.stacked, model.layers)):
            din = cfg.input_dim if i == 0 else 2 * cfg.hidden
            shapes = {"w": (2, h3, din), "u": (2, h3, cfg.hidden), "b": (2, h3)}
            for name, shape in shapes.items():
                stacked = getattr(stack, name)
                assert stacked.shape == shape
                assert not stacked.flags.owndata and np.shares_memory(stacked, model.params)
                for d, direction in enumerate(pair):
                    np.testing.assert_array_equal(stacked[d], getattr(direction, name))

    def test_stacked_views_stay_live(self, tmp_path):
        rng = np.random.default_rng(5)
        corpus = [(rng.standard_normal((4, 3)), i % 2) for i in range(4)]
        x = rng.standard_normal((5, 3))
        stepped = lu_init(tiny_config())
        _Adam(stepped.params, 0.1).step(_batch_loss_and_grads(stepped, corpus)[1])
        save_model(tmp_path / "m.ctsm", stepped)
        models = {
            "adam-step": stepped,
            "loaded": load_model(tmp_path / "m.ctsm"),
            "cloned": _clone_for_training(stepped, tiny_config(seed=3)),
        }
        for name, model in models.items():

            def rebuilt():  # a model whose views are made from params as they are now
                return lu_forward(LUModel(model.config, model.params.copy()), x)

            before = lu_forward(model, x)
            np.testing.assert_allclose(before, rebuilt(), rtol=1e-12, err_msg=name)
            model.params *= 1.5
            after = lu_forward(model, x)
            assert np.abs(after - before).max() > 1e-6, name
            np.testing.assert_allclose(after, rebuilt(), rtol=1e-12, err_msg=name)

    def test_recurrent_buffer_follows_live_weights_exactly(self):
        # the layer's kept recurrent matrix is refreshed from u on every
        # call: one poked entry shows at once, bit for bit
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, 3))
        cfg = tiny_config(hidden=3)
        for layer, direction, entry in [(0, 0, (4, 1)), (1, 1, (8, 2)), (1, 0, (0, 0))]:
            model = lu_init(cfg)
            lu_forward(model, x)
            model.layers[layer][direction].u[entry] += 0.75
            fresh = lu_forward(LUModel(cfg, model.params.copy()), x)
            np.testing.assert_array_equal(lu_forward(model, x), fresh)

    def test_models_served_alternately_keep_their_own_weights(self):
        rng = np.random.default_rng(7)
        xs = [rng.standard_normal((t, 3)) for t in (4, 1, 6)]
        models = [lu_init(tiny_config(hidden=3, seed=s)) for s in (1, 2)]
        alone = [[lu_forward(LUModel(m.config, m.params.copy()), x) for x in xs] for m in models]
        for i, x in enumerate(xs):
            for m, want in zip(models, alone):
                np.testing.assert_array_equal(lu_forward(m, x), want[i])

    def test_threads_sharing_fresh_models_match_serial_calls(self):
        # six threads on two cores, three per model, race for each new
        # model's first call, which allocates its recurrent matrices, and
        # then keep refreshing them
        rng = np.random.default_rng(8)
        xs = [rng.standard_normal((t, 3)) for t in (1, 3, 5, 8, 2, 6)]
        configs = [tiny_config(hidden=3, seed=s) for s in (1, 2)]
        want = [[lu_forward(lu_init(cfg), x) for x in xs] for cfg in configs]
        got, threads = [], []
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                models, barrier = [lu_init(cfg) for cfg in configs], threading.Barrier(6)

                def serve(m, order, models=models, barrier=barrier):
                    barrier.wait(timeout=30)
                    got.extend((m, i, lu_forward(models[m], xs[i])) for i in order)

                for k in range(6):
                    threads.append(threading.Thread(target=serve, args=(k % 2, np.roll(range(6), k))))
                    threads[-1].start()
                for t in threads[-6:]:
                    t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 10 * 6 * 6
        for m, i, probs in got:
            np.testing.assert_array_equal(probs, want[m][i])

    def test_wrong_size_rejected(self):
        cfg = tiny_config()
        size = lu_init(cfg).params.size
        for bad in (np.zeros(size - 1), np.zeros(size + 1), np.zeros((1, size))):
            with pytest.raises(ValueError, match="params must have shape"):
                LUModel(cfg, bad)


class TestForward:
    def test_zero_model_is_uniform(self):
        model = zero_model(tiny_config())
        probs = lu_forward(model, np.ones((4, 3)))
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_mean_pool_invariance_with_stateless_cell(self):
        # no recurrence and update gate pinned shut: h_t is a pure
        # function of x_t, so repeating a frame cannot move the pool
        cfg = tiny_config(seed=21)
        model = lu_init(cfg)
        for fw, bw in model.layers:
            for p in (fw, bw):
                p.u[...] = 0.0
                p.b[: cfg.hidden] = -40.0
        frame = np.array([[0.3, -1.2, 0.8]])
        single = lu_forward(model, frame)
        tripled = lu_forward(model, np.repeat(frame, 3, axis=0))
        np.testing.assert_allclose(single, tripled, atol=1e-9)

    def test_matches_straight_line_oracle(self):
        cfg = tiny_config(seed=9)
        model = lu_init(cfg)
        rng = np.random.default_rng(40)
        x = rng.standard_normal((5, 3))

        def sigmoid(v):
            return 1.0 / (1.0 + np.exp(-v))

        def run_direction(xs, p):
            hidden = cfg.hidden
            h_prev = np.zeros(hidden)
            out = []
            for frame in xs:
                a = p.w @ frame + p.b
                v = p.u @ h_prev
                z = sigmoid(a[:hidden] + v[:hidden])
                r = sigmoid(a[hidden : 2 * hidden] + v[hidden : 2 * hidden])
                n = np.tanh(a[2 * hidden :] + r * v[2 * hidden :])
                h_prev = (1 - z) * n + z * h_prev
                out.append(h_prev)
            return np.array(out)

        cur = x
        for fw, bw in model.layers:
            hf = run_direction(cur, fw)
            hb = run_direction(cur[::-1], bw)[::-1]
            cur = np.concatenate([hf, hb], axis=1)
        logits = model.w_out @ cur.mean(axis=0) + model.b_out
        expect = np.exp(logits - logits.max())
        expect /= expect.sum()

        np.testing.assert_allclose(lu_forward(model, x), expect, atol=1e-6)

    def test_head_uses_the_shared_softmax(self, monkeypatch):
        calls = []
        shared = lu._softmax_rows
        monkeypatch.setattr(lu, "_softmax_rows", lambda x: calls.append(x.shape) or shared(x))
        probs = lu_forward(lu_init(tiny_config(num_intents=3)), np.ones((4, 3)))
        assert calls == [(1, 3)]
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_nll_is_floored_at_prob_floor(self):
        # a zero probability costs -log(PROB_FLOOR), never inf
        nll = lu._nll(np.array([[0.0, 1.0], [0.25, 0.75]]), np.array([0, 0]))
        assert nll.tolist() == [-np.log(PROB_FLOOR), -np.log(0.25)]

    def test_dimension_mismatch_rejected(self):
        model = lu_init(tiny_config())
        with pytest.raises(ValueError, match="[Dd]imension"):
            lu_forward(model, np.ones((2, 5)))
        with pytest.raises(ValueError):
            lu_forward(model, np.ones((0, 3)))

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2**31), t=st.integers(1, 12))
    def test_output_is_probability_vector(self, seed, t):
        rng = np.random.default_rng(seed)
        model = lu_init(tiny_config(seed=seed % 1000, num_intents=3))
        probs = lu_forward(model, rng.standard_normal((t, 3)) * 2)
        assert (probs >= 0).all()
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)


class TestClassify:
    """An E1 prediction is the argmax of lu_forward, ties to the lowest
    class id."""

    @staticmethod
    def predict(model, frames):
        seq = LatentSequence(frames)
        proj, vocab = ProjectionMatrix(np.eye(3)), Vocabulary(["_", "a", "b"])
        run = run_system(SystemId.E1, model, [{"id": "u"}], [seq], proj, vocab)
        return run.predictions["u"]

    def test_argmax(self):
        cfg = tiny_config(seed=33)
        model = lu_init(cfg)
        x = np.random.default_rng(2).standard_normal((6, 3)).astype(np.float32)
        probs = lu_forward(model, x)
        assert self.predict(model, x) == int(np.argmax(probs))

    def test_tie_takes_lowest_class(self):
        model = zero_model(tiny_config())
        assert self.predict(model, np.ones((3, 3))) == 0


class TestEmbedLabels:
    def test_lookup(self):
        model = lu_init(tiny_config(vocab_size=6))
        out = embed_labels([3], model)
        np.testing.assert_array_equal(out, model.embedding[[3]])

    def test_empty_gives_single_zero_vector(self):
        model = lu_init(tiny_config(vocab_size=6))
        out = embed_labels([], model)
        assert out.shape == (1, 3)
        assert (out == 0).all()

    def test_repeated_ids_repeat_rows(self):
        model = lu_init(tiny_config(vocab_size=6))
        out = embed_labels([1, 1], model)
        np.testing.assert_array_equal(out[0], out[1])

    def test_out_of_range_rejected(self):
        model = lu_init(tiny_config(vocab_size=6))
        with pytest.raises(ValueError):
            embed_labels([6], model)

    def test_missing_table_rejected(self):
        model = lu_init(tiny_config())
        with pytest.raises(ValueError):
            embed_labels([0], model)

    @pytest.mark.parametrize("ids", [[1.0, 2.0], np.array([1.5]), [[1, 2]], [1, True]],
                             ids=["float-list", "float-array", "2-d", "bool-among-ints"])
    def test_non_integer_ids_rejected(self, ids):
        model = lu_init(tiny_config(vocab_size=6))
        with pytest.raises(ValueError, match="label ids must be a 1-d integer sequence"):
            embed_labels(ids, model)


class TestInputDispatch:
    """The model decides how a training item becomes classifier input:
    label ids through the table of a model that has one, frames otherwise,
    whatever the item's dtype."""

    def test_integer_frames_train_a_model_without_table(self):
        cfg = tiny_config(epochs=2)
        frames = np.random.default_rng(4).integers(-2, 3, size=(5, 3))
        as_int = lu_train(cfg, [(frames, 0), (frames[::-1], 1)])
        as_float = lu_train(cfg, [(frames.astype(float), 0), (frames[::-1].astype(float), 1)])
        np.testing.assert_array_equal(as_int.params, as_float.params)
        assert gradient_check(cfg, (frames, 1)) < 1e-4

    @pytest.mark.parametrize("data", [np.ones((4, 3)), [1.0, 2.0], np.array([2.5, 1.0])],
                             ids=["float-frames", "float-id-list", "float-id-array"])
    def test_table_model_rejects_non_integer_items(self, data):
        cfg = tiny_config(vocab_size=6)
        with pytest.raises(ValueError, match="label ids must be a 1-d integer sequence"):
            lu_train(cfg, [(data, 0)])
        with pytest.raises(ValueError, match="label ids must be a 1-d integer sequence"):
            gradient_check(cfg, (data, 0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_frames_rejected(self, bad):
        # refused by name, not turned into NaN probabilities, finite ones
        # (an inf frame), or a model whose every parameter is NaN
        cfg = LUConfig(3, 2, hidden=4, layers=1, seed=9, epochs=1)
        frames = np.ones((4, 3))
        frames[2, 1] = bad
        match = "input sequence contains NaN or Inf"
        with pytest.raises(ValueError, match=match):
            lu_forward(lu_init(cfg), frames)
        with pytest.raises(ValueError, match=match):
            lu_train(cfg, [(np.ones((3, 3)), 0), (frames, 1)])
        with pytest.raises(ValueError, match=match):
            gradient_check(cfg, (frames, 1))


class TestGradients:
    def test_random_tiny_instance(self):
        cfg = LUConfig(input_dim=3, num_intents=3, hidden=3, layers=2, seed=1)
        x = np.random.default_rng(1).standard_normal((4, 3))
        assert gradient_check(cfg, (x, 1)) < 1e-4

    def test_embedding_mode(self):
        cfg = LUConfig(input_dim=3, num_intents=2, hidden=2, layers=1, seed=4, vocab_size=5)
        assert gradient_check(cfg, (np.array([1, 4, 2]), 0)) < 1e-4

    def test_zero_model_symmetric_classes(self):
        cfg = tiny_config()
        model = zero_model(cfg)
        x = np.ones((3, 3))
        # balanced label pair: gradients cancel everywhere
        loss0, g0 = _batch_loss_and_grads(model, [(x, 0)])
        loss1, g1 = _batch_loss_and_grads(model, [(x, 1)])
        assert loss0 == pytest.approx(np.log(2.0))
        assert g0.shape == model.params.shape
        assert np.abs(g0 + g1).max() < 1e-12
        # single sample: analytic matches finite differences to 1e-6 absolute
        step = 1e-5
        flat = model.params
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = -np.log(lu_forward(model, x)[0])
            flat[i] = orig - step
            down = -np.log(lu_forward(model, x)[0])
            flat[i] = orig
            assert (up - down) / (2 * step) == pytest.approx(g0[i], abs=1e-6)

    def test_first_order_taylor(self):
        cfg = tiny_config(seed=12)
        model = lu_init(cfg)
        x = np.random.default_rng(3).standard_normal((4, 3))
        loss, grad = _batch_loss_and_grads(model, [(x, 1)])
        w = model.layers[0][0].w
        g = LUModel(cfg, grad).layers[0][0].w  # the same view into the gradient
        i = np.unravel_index(np.argmax(np.abs(g)), g.shape)
        h = 1e-3
        w[i] += h
        new_loss, _ = _batch_loss_and_grads(model, [(x, 1)])
        w[i] -= h
        assert new_loss - loss == pytest.approx(g[i] * h, rel=5e-2, abs=1e-8)


class TestTraining:
    def test_separable_toy_set(self):
        rng = np.random.default_rng(6)
        corpus = []
        for i in range(10):
            label = i % 2
            mean = np.array([2.0, -1.0, 1.5]) * (1 if label == 0 else -1)
            corpus.append((mean + 0.1 * rng.standard_normal((5, 3)), label))
        cfg = tiny_config(seed=5, hidden=4, epochs=50, batch_size=4)
        model = lu_train(cfg, corpus)
        assert all(int(np.argmax(lu_forward(model, x))) == y for x, y in corpus)

    def test_loss_drops_after_first_epoch(self):
        from ctsum.synth import SynthSpec, build_corpus

        corpus = build_corpus(SynthSpec(utterances_per_intent=4, seed=42))
        items = [(seq.frames, row["intent"]) for row, seq in zip(corpus.rows, corpus.sequences)]
        cfg = LUConfig(input_dim=16, num_intents=6, hidden=16, layers=2, epochs=1, seed=0)
        init_loss = mean_ce(lu_init(cfg), items)
        trained = lu_train(cfg, items)
        assert mean_ce(trained, items) < init_loss

    def test_loss_non_increasing_first_three_epochs(self):
        from ctsum.synth import SynthSpec, build_corpus

        corpus = build_corpus(SynthSpec(utterances_per_intent=4, seed=42))
        items = [(seq.frames, row["intent"]) for row, seq in zip(corpus.rows, corpus.sequences)]
        cfg = LUConfig(input_dim=16, num_intents=6, hidden=16, layers=2, epochs=3, seed=0)
        losses = lu_train(cfg, items).train_losses
        assert losses[0] >= losses[1] >= losses[2]

    def test_seed_determinism(self):
        rng = np.random.default_rng(8)
        corpus = [(rng.standard_normal((4, 3)), i % 2) for i in range(12)]
        cfg = tiny_config(seed=17, epochs=4)
        a = lu_train(cfg, corpus)
        b = lu_train(cfg, corpus)
        for pa, pb in zip(a.param_arrays(), b.param_arrays()):
            np.testing.assert_array_equal(pa, pb)
        assert a.train_losses == b.train_losses

    def test_rejects_bad_corpus(self):
        cfg = tiny_config()
        with pytest.raises(ValueError):
            lu_train(cfg, [])
        with pytest.raises(ValueError):
            lu_train(cfg, [(np.ones((2, 3)), 2)])  # label out of range for K=2

    @pytest.mark.parametrize("label", [1.7, True, "1"], ids=["float", "bool", "string"])
    def test_intent_must_be_an_integer(self, label):
        # read through the package's integer rule, not truncated or parsed to 1
        cfg = tiny_config()
        with pytest.raises(TypeError, match="intent label must be an integer"):
            lu_train(cfg, [(np.ones((2, 3)), label)])
        with pytest.raises(TypeError, match="intent label must be an integer"):
            gradient_check(cfg, (np.ones((2, 3)), label))

    def test_numpy_integer_intent_is_an_integer(self):
        cfg = tiny_config(epochs=1)
        x = np.ones((2, 3))
        a, b = lu_train(cfg, [(x, np.int64(1))]), lu_train(cfg, [(x, 1)])
        np.testing.assert_array_equal(a.params, b.params)
        assert gradient_check(cfg, (x, np.int64(1))) == gradient_check(cfg, (x, 1))

    def test_gradient_check_range_checks_the_intent(self):
        with pytest.raises(ValueError, match="intent label 2 out of range"):
            gradient_check(tiny_config(), (np.ones((2, 3)), 2))

    def test_fine_tune_from_init_model(self):
        rng = np.random.default_rng(9)
        corpus = [(rng.standard_normal((4, 3)), i % 2) for i in range(8)]
        base = lu_train(tiny_config(seed=1, epochs=2), corpus)
        tuned = lu_train(tiny_config(seed=2, epochs=1), corpus, init_model=base)
        assert any(
            not np.array_equal(pa, pb)
            for pa, pb in zip(base.param_arrays(), tuned.param_arrays())
        )
        # base is untouched by fine-tuning
        again = lu_train(tiny_config(seed=1, epochs=2), corpus)
        for pa, pb in zip(base.param_arrays(), again.param_arrays()):
            np.testing.assert_array_equal(pa, pb)

    def test_fine_tune_architecture_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        corpus = [(rng.standard_normal((4, 3)), 0), (rng.standard_normal((4, 3)), 1)]
        base = lu_train(tiny_config(seed=1, epochs=1), corpus)
        with pytest.raises(ValueError):
            lu_train(tiny_config(seed=2, epochs=1, hidden=3), corpus, init_model=base)


def ragged_frames(seed, lengths, dim=3):
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal((t, dim)), i % 3) for i, t in enumerate(lengths)]


def summed_reference(model, items):
    """Summed loss and flat gradient, laid out like ``model.params``."""
    loss, grad = 0.0, np.zeros_like(model.params)
    for data, label in items:
        one_loss, one_grads = loss_and_grads_py(model, data, label)
        loss += one_loss
        grad += np.concatenate([g.ravel() for g in one_grads])
    return loss, grad


BATCHES = {
    "ragged-with-length-1": (None, ragged_frames(1, [6, 1, 4, 6, 2, 9, 3])),
    "equal-lengths": (None, ragged_frames(2, [5, 5, 5, 5])),
    "single": (None, ragged_frames(3, [7])),
    "p1-with-empty-decode": (
        6,
        [
            (np.array([1, 4, 2], dtype=np.int64), 0),
            (np.array([], dtype=np.int64), 1),
            (np.array([5], dtype=np.int64), 2),
            (np.array([3, 3, 0, 1, 2], dtype=np.int64), 1),
        ],
    ),
}


class TestBatchedTraining:
    """One packed pass per minibatch against the per-sample reference."""

    @pytest.mark.parametrize("name", sorted(BATCHES))
    def test_batch_matches_summed_reference(self, name):
        vocab_size, items = BATCHES[name]
        model = lu_init(
            LUConfig(input_dim=3, num_intents=3, hidden=4, layers=2, seed=7, vocab_size=vocab_size)
        )
        loss, grad = _batch_loss_and_grads(model, items)
        ref_loss, ref_grad = summed_reference(model, items)
        assert abs(loss - ref_loss) <= 1e-12
        np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-12)
        if vocab_size is not None:
            # the empty decode's zero row has no table row to update; row 5
            # appears only in the length-1 decode
            assert np.abs(LUModel(model.config, grad).embedding[5]).max() > 0

    @pytest.mark.parametrize("name", ["ragged-with-length-1", "p1-with-empty-decode"])
    def test_lu_train_matches_per_sample_loop(self, name):
        vocab_size, items = BATCHES[name]
        cfg = LUConfig(
            input_dim=3, num_intents=3, hidden=4, layers=2, seed=11,
            epochs=2, batch_size=3, vocab_size=vocab_size,
        )
        self.assert_matches_per_sample_loop(cfg, items)

    def test_one_row_minibatch_matches_per_sample_loop(self):
        # 17 rows at batch size 16: each epoch ends on a one-row
        # minibatch, which is packed without a copy
        items = ragged_frames(5, [1 + (7 * i) % 11 for i in range(17)])
        assert pack([items[0][0]])[1] is items[0][0]
        cfg = LUConfig(input_dim=3, num_intents=3, hidden=4, layers=2, seed=12, epochs=2)
        assert cfg.batch_size == 16
        self.assert_matches_per_sample_loop(cfg, items)

    @staticmethod
    def assert_matches_per_sample_loop(cfg, items):
        trained = lu_train(cfg, items)

        model = lu_init(cfg)
        opt = _Adam(model.params, cfg.learning_rate)
        rng = np.random.default_rng(cfg.seed)
        losses = []
        for _ in range(cfg.epochs):
            perm = rng.permutation(len(items))
            total = 0.0
            for lo in range(0, len(items), cfg.batch_size):
                batch = [items[i] for i in perm[lo : lo + cfg.batch_size]]
                loss, grad = summed_reference(model, batch)
                opt.step(grad / len(batch))
                total += loss
            losses.append(total / len(items))
        np.testing.assert_allclose(trained.train_losses, losses, rtol=0, atol=1e-12)
        np.testing.assert_allclose(trained.params, model.params, rtol=0, atol=1e-12)


class TestModelFile:
    def test_round_trip(self, tmp_path):
        model = lu_init(tiny_config(seed=14, vocab_size=5))
        model.train_losses = [1.0, 0.5]
        path = tmp_path / "m.ctsm"
        save_model(path, model)
        back = load_model(path)
        assert back.config == model.config
        assert back.train_losses == [1.0, 0.5]
        for pa, pb in zip(model.param_arrays(), back.param_arrays()):
            np.testing.assert_allclose(pa, pb, atol=1e-7)  # f32 storage

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "m.ctsm"
        save_model(path, lu_init(tiny_config()))
        assert path.read_bytes()[:4] == b"CTSM"

    def test_rejects_corruption(self, tmp_path):
        path = tmp_path / "m.ctsm"
        save_model(path, lu_init(tiny_config()))
        raw = path.read_bytes()
        (tmp_path / "bad1.ctsm").write_bytes(b"NOPE" + raw[4:])
        with pytest.raises(FormatError):
            load_model(tmp_path / "bad1.ctsm")
        (tmp_path / "bad2.ctsm").write_bytes(raw[:-8])
        with pytest.raises(FormatError):
            load_model(tmp_path / "bad2.ctsm")

    def test_rejects_partial_float(self, tmp_path):
        path = tmp_path / "m.ctsm"
        save_model(path, lu_init(tiny_config()))
        (tmp_path / "odd.ctsm").write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            load_model(tmp_path / "odd.ctsm")

    def test_trailing_bytes_rejected_before_reading(self, tmp_path):
        path = tmp_path / "m.ctsm"
        save_model(path, lu_init(tiny_config()))
        with open(path, "ab") as fh:
            fh.write(bytes(1 << 20))
        with pytest.raises(FormatError, match="trailing bytes: header declares"):
            load_model(path)

    def test_json_header_length_checked_before_reading(self, tmp_path):
        path = tmp_path / "m.ctsm"
        save_model(path, lu_init(tiny_config()))
        raw = path.read_bytes()
        too_long = len(raw) - 9  # one byte more than the file holds after the fixed header
        (tmp_path / "long.ctsm").write_bytes(raw[:6] + too_long.to_bytes(4, "little") + raw[10:])
        with pytest.raises(FormatError, match="header declares"):
            load_model(tmp_path / "long.ctsm")

    @pytest.mark.parametrize(
        "loss", [float("nan"), float("inf"), "1.5", True, 10**400],
        ids=["nan", "inf", "numeric-string", "bool", "int-beyond-float"],
    )
    def test_save_refuses_non_finite_loss(self, tmp_path, loss):
        # load_model's rule for a loss: not written as 1.5 or 1.0, nor a
        # bare OverflowError; the error names the file, the file is untouched
        path = tmp_path / "m.ctsm"
        save_model(path, lu_init(tiny_config()))
        before = path.read_bytes()
        model = lu_init(tiny_config())
        model.train_losses = [1.0, loss]
        with pytest.raises(ValueError, match="train_losses") as info:
            save_model(path, model)
        assert str(path) in str(info.value)
        assert path.read_bytes() == before

    def test_rejects_non_finite_parameters(self, tmp_path):
        # save_model refuses a NaN parameter, so the file is patched: its
        # last four bytes are the last parameter
        path = tmp_path / "nan.ctsm"
        save_model(path, lu_init(tiny_config()))
        path.write_bytes(path.read_bytes()[:-4] + np.float32(np.nan).tobytes())
        with pytest.raises(FormatError, match="non-finite"):
            load_model(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda meta: meta.update(train_losses=5),
            lambda meta: meta.update(train_losses=["a"]),
            lambda meta: meta.update(train_losses=[1.0, float("nan")]),
            lambda meta: meta["config"].update(hidden=2.0),
            lambda meta: meta["config"].update(seed=1.7),
            lambda meta: meta["config"].update(seed=True),
            lambda meta: meta["config"].update(seed=-1),
            lambda meta: meta["config"].update(learning_rate=float("inf")),
            lambda meta: meta["config"].update(learning_rate=True),
        ],
        ids=[
            "losses-not-a-list",
            "loss-not-a-number",
            "loss-not-finite",
            "float-hidden",
            "float-seed",
            "bool-seed",
            "negative-seed",
            "infinite-learning-rate",
            "bool-learning-rate",
        ],
    )
    def test_invalid_header_fields_raise_format_error(self, tmp_path, edit):
        path = tmp_path / "m.ctsm"
        save_model(path, lu_init(tiny_config()))
        write_model_header(path, edit)
        with pytest.raises(FormatError, match="invalid model header"):
            load_model(path)

    @pytest.mark.parametrize("layers", [10**9, 10**6])
    def test_huge_layer_count_rejected_before_layout(self, tmp_path, no_layer_walk, layers):
        path = tmp_path / "m.ctsm"
        save_model(path, lu_init(tiny_config(hidden=1, layers=1)))
        write_model_header(path, lambda meta: meta["config"].update(layers=layers))
        assert path.stat().st_size < 1024
        with pytest.raises(FormatError, match=f"header declares layers={layers} "):
            load_model(path)

    def test_layer_bound_accepts_the_smallest_layers(self, tmp_path):
        # input_dim = hidden = 1 gives exactly 6 * 3 * hidden parameters a layer
        cfg = LUConfig(input_dim=1, num_intents=2, hidden=1, layers=1, seed=0)
        model = lu_init(cfg)
        path = tmp_path / "m.ctsm"
        save_model(path, model)
        assert load_model(path).params.size == 6 * 3 + 2 * 2 + 2


_REFAULT_PROBE = """
import resource
from dataclasses import replace
from ctsum.harness import HarnessConfig, SystemId, system_config
from ctsum.lu import lu_train
from ctsum.synth import SynthSpec, build_corpus

spec = SynthSpec()
corpus = build_corpus(spec)
items = [(seq.frames, row["intent"]) for seq, row in zip(corpus.sequences[:32], corpus.rows)]
config = replace(system_config(SystemId.E1, spec, HarnessConfig(), seed=3), epochs=2)
for _ in range(2):
    lu_train(config, items)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
lu_train(config, items)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc",
    reason="relies on glibc's dynamic mmap and heap-trim thresholds (mallopt(3))",
)
def test_training_does_not_refault_its_freed_memory():
    # A fresh interpreter, so the allocator state is lu_train's own; the
    # third call has nothing new to allocate and should fault almost
    # nothing in (thousands when glibc trims the heap between minibatches).
    env = dict(os.environ)
    src = str(Path(lu.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for var in ("MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_", "MALLOC_MMAP_THRESHOLD_"):
        env.pop(var, None)
    done = subprocess.run(
        [sys.executable, "-c", _REFAULT_PROBE], env=env, check=True, capture_output=True, text=True
    )
    assert int(done.stdout.split()[-1]) < 500
