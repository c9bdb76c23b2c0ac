"""The benchmark's independent references against the package's oracle
and against cases worked by hand."""

import math

import numpy as np
import pytest

import ctsum
import reference as ref


def grid_of(probs):
    return ctsum.PosteriorGrid(np.asarray(probs, dtype=np.float64))


def vocab_of(v):
    return ctsum.Vocabulary([f"l{i}" for i in range(v)], blank_index=0)


@pytest.mark.parametrize("seed", range(40))
def test_ctc_matches_enumeration(seed):
    rng = np.random.default_rng(seed)
    t = int(rng.integers(1, 7))
    v = int(rng.integers(2, 5))
    probs = rng.dirichlet(np.ones(v), size=t)
    length = int(rng.integers(0, 4))
    target = rng.integers(1, v, size=length)
    oracle = ctsum.enumerate_alignments_logprob(
        grid_of(probs), ctsum.LabelSequence(target), vocab_of(v)
    )
    got = ref.ctc_logprob(np.log(probs), target, 0)
    if math.isinf(oracle):
        assert got == -math.inf
    else:
        assert got == pytest.approx(oracle, abs=1e-12)


def test_ctc_hand_worked():
    p = np.array([[0.3, 0.7], [0.6, 0.4]])  # columns: blank, a
    # one frame, target "a": only the path (a)
    assert ref.ctc_logprob(np.log(p[:1]), [1], 0) == pytest.approx(math.log(0.7))
    # two frames, target "a": paths (a a), (a _), (_ a)
    want = 0.7 * 0.4 + 0.7 * 0.6 + 0.3 * 0.4
    assert ref.ctc_logprob(np.log(p), [1], 0) == pytest.approx(math.log(want))
    # empty target: the all-blank path
    assert ref.ctc_logprob(np.log(p), [], 0) == pytest.approx(math.log(0.3 * 0.6))
    # "a a" needs a separating blank, so two frames cannot emit it
    assert ref.ctc_logprob(np.log(p), [1, 1], 0) == -math.inf


def test_collapse_and_runs_hand_worked():
    labels = [0, 1, 1, 0, 1, 2, 2, 0]
    assert ref.collapse(labels, 0).tolist() == [1, 1, 2]
    assert ref.collapse([0, 0, 0], 0).tolist() == []
    starts, ends, labs = ref.runs(labels)
    assert starts.tolist() == [0, 1, 3, 4, 5, 7]
    assert ends.tolist() == [1, 3, 4, 5, 7, 8]
    assert labs.tolist() == [0, 1, 0, 1, 2, 0]


def test_decode_matches_greedy_decode():
    rng = np.random.default_rng(3)
    for _ in range(20):
        t, d, v = int(rng.integers(1, 40)), 4, 6
        frames = rng.standard_normal((t, d)).astype(np.float32)
        w = (rng.standard_normal((v, d)) * 2).astype(np.float32)
        b = np.zeros(v, dtype=np.float32)
        grid = ctsum.project_softmax(ctsum.LatentSequence(frames), ctsum.ProjectionMatrix(w, b))
        assert np.abs(ref.frame_posteriors(frames, w, b) - grid.probs).max() < 1e-12
        want = ctsum.greedy_decode(grid, vocab_of(v)).ids
        assert np.array_equal(ref.decode(frames, w, b, 0), want)


def test_gru_one_step_hand_worked():
    # H=1, one input, no recurrence at the first step: z = s(wz), r = s(wr),
    # n = tanh(wn + r * 0), h = (1 - z) * n
    w = np.array([[0.5], [-1.0], [2.0]])
    h = ref._gru_direction(np.array([[1.0]]), w, np.zeros((3, 1)), np.zeros(3))
    z = 1 / (1 + math.exp(-0.5))
    assert h[0, 0] == pytest.approx((1 - z) * math.tanh(2.0), abs=1e-15)


def test_zero_weight_model_predicts_softmax_of_bias():
    model = ctsum.lu_init(ctsum.LUConfig(3, 4, hidden=2, layers=2, seed=0))
    for arr in model.param_arrays():
        arr[...] = 0.0
    model.b_out[...] = [0.0, 1.0, 2.0, 3.0]
    e = np.exp(np.arange(4.0))
    assert np.allclose(ref.bigru_probs(model, np.ones((5, 3))), e / e.sum(), atol=1e-15)


@pytest.mark.parametrize("seed", range(6))
def test_bigru_matches_lu_forward(seed):
    rng = np.random.default_rng(seed)
    vocab = 7 if seed % 2 else None
    cfg = ctsum.LUConfig(4, 3, hidden=5, layers=1 + seed % 3, seed=seed, vocab_size=vocab)
    model = ctsum.lu_init(cfg)
    t = int(rng.integers(1, 12))
    if vocab:
        ids = rng.integers(0, vocab, size=t)
        x, want = ref.embed(model, ids), ctsum.lu_forward(model, ctsum.embed_labels(ids, model))
    else:
        x = rng.standard_normal((t, 4))
        want = ctsum.lu_forward(model, x)
    assert np.abs(ref.bigru_probs(model, x) - want).max() < 1e-12


def test_embed_of_empty_decode_is_one_zero_row():
    model = ctsum.lu_init(ctsum.LUConfig(4, 3, hidden=2, vocab_size=5))
    assert np.array_equal(ref.embed(model, []), np.zeros((1, 4)))
