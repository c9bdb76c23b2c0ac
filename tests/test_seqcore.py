import errno
import json
import os
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctsum.cli import main
from ctsum.cts import SummarizedSequence, read_sseq, select_representatives, summarize, write_sseq
from ctsum.harness import HarnessConfig
from ctsum.lu import LUConfig, load_model, lu_forward, lu_init, save_model
from ctsum.seqcore import (
    PROB_FLOOR,
    FormatError,
    FramePath,
    LatentSequence,
    PosteriorGrid,
    ProjectionMatrix,
    Vocabulary,
    _as_float,
    frame_argmax,
    project_softmax,
    read_lseq,
    read_proj,
    read_vocab,
    write_lseq,
    write_proj,
    write_vocab,
)
from ctsum.synth import SynthSpec, generate_corpus


def grid_from_rows(rows):
    return PosteriorGrid(np.asarray(rows, dtype=np.float64))


class TestLatentSequence:
    def test_basic(self):
        seq = LatentSequence(np.ones((3, 2), dtype=np.float32))
        assert seq.num_frames == 3
        assert seq.dim == 2
        assert seq.frame_shift_ms == 10.0

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            LatentSequence(np.zeros((0, 4), dtype=np.float32))
        with pytest.raises(ValueError):
            LatentSequence(np.array([[np.nan]], dtype=np.float32))
        with pytest.raises(ValueError):
            LatentSequence(np.ones((2, 2)), frame_shift_ms=0.0)

    @pytest.mark.parametrize(
        "shift", [float("inf"), float("nan"), 1e39, 1e-50],
        ids=["infinite", "nan", "overflows-float32", "underflows-float32"],
    )
    def test_rejects_shift_not_positive_and_finite_as_float32(self, shift):
        # .lseq stores the shift as f32: 1e39 would not pack, 1e-50 would read back as 0
        with pytest.raises(ValueError, match="frame_shift_ms must be positive"):
            LatentSequence(np.ones((2, 2)), frame_shift_ms=shift)

    @pytest.mark.parametrize("shift", [True, "10"], ids=["bool", "numeric-string"])
    def test_rejects_shift_that_is_not_a_number(self, shift):
        # the type rule of every real field: not stored as 1.0 or 10.0
        with pytest.raises(TypeError, match="frame_shift_ms must be a number"):
            LatentSequence(np.ones((2, 2)), frame_shift_ms=shift)

    def test_rejects_shift_int_beyond_the_float_range(self):
        # float() of it raises a bare OverflowError that names no field
        with pytest.raises(TypeError, match="frame_shift_ms must be a finite number"):
            LatentSequence(np.ones((2, 2)), frame_shift_ms=10**400)

    def test_writer_names_the_file_for_a_shift_changed_to_a_string(self, tmp_path):
        seq = LatentSequence(np.ones((2, 2)))
        seq.frame_shift_ms = "10"
        path = tmp_path / "x.lseq"
        with pytest.raises(ValueError, match="x.lseq: frame_shift_ms must be a number"):
            write_lseq(path, seq)
        assert not path.exists()


class TestVocabulary:
    def test_blank_bounds(self):
        v = Vocabulary(["_", "a", "b"], blank_index=0)
        assert v.size == 3
        assert v.blank_label == "_"
        with pytest.raises(ValueError):
            Vocabulary(["_", "a"], blank_index=2)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", "a"])

    def test_rejects_one_string_for_labels(self):
        # a string is iterable, but its characters are not a label list
        with pytest.raises(ValueError, match="not one string"):
            Vocabulary("abc", 1)

    def test_rejects_a_mapping_for_labels(self, tmp_path):
        # iterating a JSON object yields its keys, which are not a label list
        with pytest.raises(ValueError, match="labels must be a list of strings, not dict"):
            Vocabulary({"_": 1, "a": 2})
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"blank_index": 0, "labels": {"_": 1, "a": 2}}))
        with pytest.raises(FormatError, match="invalid vocabulary: labels must be a list"):
            read_vocab(path)

    def test_tuple_of_labels_accepted(self):
        assert Vocabulary(("_", "a")).labels == ["_", "a"]

    @pytest.mark.parametrize("blank", [1.5, True, "1"])
    def test_blank_index_must_be_an_integer(self, blank):
        with pytest.raises(TypeError, match="blank_index must be an integer"):
            Vocabulary(["_", "a", "b"], blank)

    def test_numpy_integer_blank_index_accepted(self):
        vocab = Vocabulary(["_", "a", "b"], np.int64(2))
        assert vocab.blank_index == 2 and type(vocab.blank_index) is int


@pytest.mark.parametrize(
    "make",
    [
        lambda v: SynthSpec(noise_sigma=v),
        lambda v: SynthSpec(logit_scale=v),
        lambda v: LUConfig(3, 2, learning_rate=v),
    ],
    ids=["noise_sigma", "logit_scale", "learning_rate"],
)
def test_float_field_rejects_int_too_large_for_a_float(make):
    with pytest.raises(TypeError, match="must be a finite number"):
        make(10**400)
    make(10**300)  # an int a float holds is a number like any other


@pytest.mark.parametrize(
    "make, read",
    [
        (lambda v: SynthSpec(noise_sigma=v), lambda c: c.noise_sigma),
        (lambda v: LUConfig(3, 2, learning_rate=v), lambda c: c.learning_rate),
        (lambda v: HarnessConfig(fine_tune_lr=v), lambda c: c.fine_tune_lr),
    ],
    ids=["SynthSpec.noise_sigma", "LUConfig.learning_rate", "HarnessConfig.fine_tune_lr"],
)
@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_float_field_takes_a_narrow_numpy_float(make, read, dtype):
    # the float bound is not cast down to the value's type, which overflows
    value = read(make(dtype(0.4)))
    assert type(value) is float and value == float(dtype(0.4))


def test_float_field_takes_the_most_negative_int8():
    assert _as_float("x", np.int8(-128)) == -128.0  # abs() would overflow


# (name, entry, a valid value): every place a caller's array becomes floats
REAL_ARRAYS = {
    "frames": (LatentSequence, [[0.5, 1.0]]),
    "weights": (ProjectionMatrix, [[0.5, 1.0]]),
    "bias": (lambda v: ProjectionMatrix(np.ones((2, 1)), v), [0.5, 1.0]),
    "probs": (PosteriorGrid, [[0.25, 0.75]]),
    "arg_scores": (lambda v: FramePath([0, 1], v), [0.5, 1.0]),
    "vectors": (lambda v: SummarizedSequence(v, ([0], [1], [0], [0], [0.5]), 1), [[0.5, 1.0]]),
    "rep_scores": (
        lambda v: SummarizedSequence(np.ones((2, 1)), ([0, 1], [1, 2], [0, 1], [0, 1], v), 2),
        [0.5, 1.0],
    ),
    "scores": (lambda v: select_representatives([0, 2], v), [0.5, 1.0]),
    "input sequence": (lambda v: lu_forward(lu_init(LUConfig(2, 2, hidden=2, layers=1)), v), [[0.5, 1.0]]),
}


@pytest.mark.parametrize("name", REAL_ARRAYS)
@pytest.mark.parametrize(
    "convert",
    [
        lambda a: a.astype(bool),
        lambda a: a.astype(str),
        lambda a: a + 1j,
        lambda a: a.astype(object),
        lambda a: [*a.tolist(), [1.0]],
    ],
    ids=["bool", "string", "complex", "object", "ragged"],
)
def test_real_array_refuses_non_real_values(name, convert):
    # refused, not cast to ones, parsed or stripped of the imaginary part;
    # a ragged nesting is named, not left to numpy's "inhomogeneous shape"
    make, valid = REAL_ARRAYS[name]
    make(np.array(valid))
    with pytest.raises(ValueError, match=f"{name} must be real numbers"):
        make(convert(np.array(valid)))


@pytest.mark.parametrize("name", ["frames", "weights", "bias", "vectors"])
@pytest.mark.parametrize("value", [1e39, -1e300])
def test_float32_array_refuses_a_finite_value_beyond_its_range(name, value):
    # refused by name, with no overflow warning (an error under the suite's
    # filterwarnings), not cast to an infinity and called "NaN or Inf"
    make, valid = REAL_ARRAYS[name]
    values = np.array(valid, dtype=np.float64)
    values.flat[-1] = value
    with pytest.raises(ValueError, match=f"^{name} holds a value beyond the float32 range$"):
        make(values)
    values.flat[-1] = np.finfo(np.float32).max
    make(values)


class TestProjectSoftmax:
    def test_symmetric_logits_give_uniform(self):
        seq = LatentSequence(np.array([[3.7]], dtype=np.float32))
        proj = ProjectionMatrix(np.zeros((2, 1)))
        grid = project_softmax(seq, proj)
        np.testing.assert_allclose(grid.probs[0], [0.5, 0.5], atol=1e-12)

    def test_closed_form_two_thirds(self):
        seq = LatentSequence(np.array([[np.log(2.0), 0.0]], dtype=np.float32))
        proj = ProjectionMatrix(np.eye(2))
        grid = project_softmax(seq, proj)
        np.testing.assert_allclose(grid.probs[0], [2 / 3, 1 / 3], atol=1e-6)

    def test_matches_high_precision_oracle(self):
        import mpmath

        mpmath.mp.dps = 50
        rng = np.random.default_rng(7)
        seq = LatentSequence(rng.normal(size=(5, 16)).astype(np.float32))
        proj = ProjectionMatrix(rng.normal(size=(8, 16)), rng.normal(size=8))
        grid = project_softmax(seq, proj)
        w64 = proj.weights.astype(np.float64)
        b64 = proj.bias.astype(np.float64)
        for t in range(5):
            logits = w64 @ seq.frames[t].astype(np.float64) + b64
            exps = [mpmath.e ** mpmath.mpf(float(v)) for v in logits]
            total = mpmath.fsum(exps)
            expect = np.array([float(e / total) for e in exps])
            np.testing.assert_allclose(grid.probs[t], expect, atol=1e-6)

    def test_stable_for_huge_logits(self):
        seq = LatentSequence(np.array([[1.0, -1.0]], dtype=np.float32))
        proj = ProjectionMatrix(np.array([[1e4, 0.0], [0.0, 1e4]]))
        grid = project_softmax(seq, proj)
        assert np.isfinite(grid.probs).all()
        np.testing.assert_allclose(grid.probs.sum(axis=1), 1.0, atol=1e-6)
        assert grid.probs[0, 0] > 0.999

    def test_dimension_mismatch_rejected(self):
        seq = LatentSequence(np.ones((2, 3), dtype=np.float32))
        proj = ProjectionMatrix(np.ones((4, 2)))
        with pytest.raises(ValueError, match="[Dd]imension"):
            project_softmax(seq, proj)

    @settings(deadline=None, max_examples=50)
    @given(
        t=st.integers(1, 12),
        v=st.integers(1, 9),
        d=st.integers(1, 6),
        seed=st.integers(0, 2**31),
    )
    def test_rows_sum_to_one(self, t, v, d, seed):
        rng = np.random.default_rng(seed)
        seq = LatentSequence(rng.normal(size=(t, d)).astype(np.float32) * 3)
        proj = ProjectionMatrix(rng.normal(size=(v, d)), rng.normal(size=v))
        grid = project_softmax(seq, proj)
        np.testing.assert_allclose(grid.probs.sum(axis=1), 1.0, atol=1e-6)
        assert (grid.probs >= 0).all()

    @settings(deadline=None, max_examples=30)
    @given(shift=st.floats(-1e3, 1e3, allow_nan=False), seed=st.integers(0, 2**31))
    def test_shift_invariance(self, shift, seed):
        rng = np.random.default_rng(seed)
        frame = rng.normal(size=(1, 4)).astype(np.float32)
        weights = rng.normal(size=(5, 4))
        base = project_softmax(LatentSequence(frame), ProjectionMatrix(weights))
        shifted = project_softmax(
            LatentSequence(frame), ProjectionMatrix(weights, np.full(5, shift))
        )
        np.testing.assert_allclose(base.probs, shifted.probs, atol=1e-6)


    def test_log_probs_are_floored_logs(self):
        # the logits are far enough apart that most posteriors underflow
        # below the floor
        rng = np.random.default_rng(9)
        seq = LatentSequence(rng.normal(size=(7, 3)).astype(np.float32))
        grid = project_softmax(seq, ProjectionMatrix(rng.normal(size=(6, 3)) * 300))
        assert (grid.probs < PROB_FLOOR).any()
        want = np.log(np.maximum(grid.probs, PROB_FLOOR))
        assert grid.log_probs.tobytes() == want.tobytes()
        assert PosteriorGrid(grid.probs).log_probs.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "owner, attr", [("seq", "frames"), ("proj", "weights"), ("proj", "bias")]
    )
    def test_nan_set_after_construction_rejected(self, owner, attr):
        parts = {
            "seq": LatentSequence(np.ones((3, 2), dtype=np.float32)),
            "proj": ProjectionMatrix(np.ones((4, 2)), np.zeros(4)),
        }
        obj = parts[owner]
        setattr(obj, attr, np.full_like(getattr(obj, attr), np.nan))
        for entry in (project_softmax, summarize):
            with pytest.raises(ValueError, match=f"{attr} contains NaN"):
                entry(parts["seq"], parts["proj"])

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    def test_float64_overflow_set_after_construction_rejected(self):
        # finite inputs, but a float64 array swapped in overflows the logits
        seq = LatentSequence(np.ones((3, 2), dtype=np.float32))
        proj = ProjectionMatrix(np.ones((4, 2)))
        seq.frames = np.full((3, 2), 1e200)
        proj.weights = np.full((4, 2), 1e200)
        for entry in (project_softmax, summarize):
            with pytest.raises(ValueError, match="logits overflow float64"):
                entry(seq, proj)


class TestFrameArgmax:
    def test_simple_rows(self):
        path = frame_argmax(grid_from_rows([[0.7, 0.3], [0.2, 0.8]]))
        assert path.arg_labels.tolist() == [0, 1]
        np.testing.assert_allclose(path.arg_scores, [0.7, 0.8])

    def test_tie_takes_lowest_index(self):
        path = frame_argmax(grid_from_rows([[0.5, 0.5]]))
        assert path.arg_labels.tolist() == [0]

    def test_matches_row_scan_oracle(self):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(7), size=100)
        path = frame_argmax(grid_from_rows(probs))
        for t in range(100):
            best, best_p = 0, probs[t, 0]
            for v in range(1, 7):
                if probs[t, v] > best_p:
                    best, best_p = v, probs[t, v]
            assert path.arg_labels[t] == best
            assert path.arg_scores[t] == pytest.approx(best_p)

    def test_no_strictly_greater_competitor(self):
        rng = np.random.default_rng(17)
        grid = grid_from_rows(rng.dirichlet(np.ones(5), size=40))
        path = frame_argmax(grid)
        per_frame_max = grid.probs.max(axis=1)
        np.testing.assert_array_equal(path.arg_scores, per_frame_max)

    def test_deterministic(self):
        grid = grid_from_rows(np.full((6, 4), 0.25))
        a = frame_argmax(grid)
        b = frame_argmax(grid)
        np.testing.assert_array_equal(a.arg_labels, b.arg_labels)
        np.testing.assert_array_equal(a.arg_scores, b.arg_scores)


class TestPosteriorGridValidation:
    def test_rejects_non_stochastic_rows(self):
        with pytest.raises(ValueError):
            PosteriorGrid(np.array([[0.9, 0.3]]))

    @pytest.mark.parametrize(
        "probs, match",
        [
            ([[np.nan, 1.0]], "NaN"),
            ([[-0.25, 1.25]], r"lie in \[0, 1\]"),
            ([[1.5, 0.0]], r"lie in \[0, 1\]"),
            ([0.5, 0.5], "T>=1, V>=1"),
            ([[0.5, 0.5], [0.5, 0.25]], "sum to 1"),
        ],
        ids=["nan", "negative", "above-one", "one-d", "non-stochastic"],
    )
    def test_public_constructor_rejects(self, probs, match):
        with pytest.raises(ValueError, match=match):
            PosteriorGrid(np.array(probs))


class TestFileFormats:
    def test_lseq_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        seq = LatentSequence(rng.normal(size=(9, 4)).astype(np.float32), frame_shift_ms=12.5)
        path = tmp_path / "x.lseq"
        write_lseq(path, seq)
        back = read_lseq(path)
        np.testing.assert_array_equal(back.frames, seq.frames)
        assert back.frame_shift_ms == pytest.approx(12.5)

    def test_lseq_header_bytes(self, tmp_path):
        seq = LatentSequence(np.zeros((2, 3), dtype=np.float32))
        path = tmp_path / "x.lseq"
        write_lseq(path, seq)
        raw = path.read_bytes()
        assert raw[:4] == b"CTSQ"
        assert int.from_bytes(raw[4:6], "little") == 1
        assert int.from_bytes(raw[6:10], "little") == 2
        assert int.from_bytes(raw[10:14], "little") == 3
        assert len(raw) == 18 + 2 * 3 * 4

    def test_lseq_truncation_detected(self, tmp_path):
        seq = LatentSequence(np.ones((4, 2), dtype=np.float32))
        path = tmp_path / "x.lseq"
        write_lseq(path, seq)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError):
            read_lseq(path)

    def test_lseq_trailing_bytes_detected(self, tmp_path):
        seq = LatentSequence(np.ones((4, 2), dtype=np.float32))
        path = tmp_path / "x.lseq"
        write_lseq(path, seq)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError):
            read_lseq(path)

    def test_lseq_declared_size_checked_before_reading(self, tmp_path):
        path = tmp_path / "x.lseq"
        path.write_bytes(struct.pack("<4sHIIf", b"CTSQ", 1, 3, 2, 10.0) + bytes(4 * 5))
        with pytest.raises(FormatError, match="header declares 42 bytes, file has 38"):
            read_lseq(path)

    @pytest.mark.parametrize(
        "t, d, shift, frames",
        [(0, 2, 10.0, []), (2, 1, 10.0, [1.0, float("nan")]), (1, 1, 0.0, [1.0])],
        ids=["no-frames", "nan-frame", "zero-shift"],
    )
    def test_lseq_invalid_contents_raise_format_error(self, tmp_path, t, d, shift, frames):
        path = tmp_path / "x.lseq"
        path.write_bytes(
            struct.pack("<4sHIIf", b"CTSQ", 1, t, d, shift) + np.asarray(frames, "<f4").tobytes()
        )
        with pytest.raises(FormatError) as info:
            read_lseq(path)
        assert type(info.value.__cause__) is ValueError

    def test_lseq_bad_magic(self, tmp_path):
        path = tmp_path / "x.lseq"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(FormatError):
            read_lseq(path)

    def test_proj_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        proj = ProjectionMatrix(
            rng.normal(size=(5, 3)).astype(np.float32), rng.normal(size=5).astype(np.float32)
        )
        path = tmp_path / "p.proj"
        write_proj(path, proj)
        back = read_proj(path)
        np.testing.assert_array_equal(back.weights, proj.weights)
        np.testing.assert_array_equal(back.bias, proj.bias)

    def test_proj_without_labels_raises_format_error(self, tmp_path):
        path = tmp_path / "p.proj"
        path.write_bytes(struct.pack("<4sHII", b"CTSP", 1, 0, 3))
        with pytest.raises(FormatError) as info:
            read_proj(path)
        assert type(info.value.__cause__) is ValueError

    def test_vocab_round_trip(self, tmp_path):
        vocab = Vocabulary(["_", "up", "down"], blank_index=0)
        path = tmp_path / "v.json"
        write_vocab(path, vocab)
        back = read_vocab(path)
        assert back.labels == vocab.labels
        assert back.blank_index == 0

    def test_vocab_invalid_utf8_raises_format_error(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_bytes(b'{"blank_index": 0, "labels": ["\xff", "a"]}')
        with pytest.raises(FormatError) as info:
            read_vocab(path)
        assert type(info.value.__cause__) is UnicodeDecodeError

    @pytest.mark.parametrize(
        "obj",
        [
            {"labels": "abc", "blank_index": 1},
            {"labels": ["_", "a", "b"], "blank_index": 1.5},
            {"labels": ["_", "a", "b"], "blank_index": True},
        ],
        ids=["labels-string", "float-blank", "bool-blank"],
    )
    def test_vocab_rejects_string_labels_and_non_integer_blank(self, tmp_path, obj):
        path = tmp_path / "v.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(FormatError, match="invalid vocabulary"):
            read_vocab(path)

    def test_vocab_rejects_garbage(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text("{\"labels\": []}")
        with pytest.raises(FormatError):
            read_vocab(path)


class TestFramePathValidation:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            FramePath(np.array([0, 1]), np.array([0.5]))

    def test_non_integer_labels_rejected(self):
        # refused, not truncated to [0, 1]
        with pytest.raises(ValueError, match="arg_labels must be a 1-d integer sequence"):
            FramePath([0.5, 1.7], [0.2, 0.3])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scores_rejected(self, bad):
        # a NaN passes both comparisons of the [0, 1] check
        with pytest.raises(ValueError, match="arg_scores contains NaN or Inf"):
            FramePath([0, 1], [bad, 0.5])


def _summary(n):
    idx = np.arange(n)
    table = (idx, idx + 1, idx % 2 + 1, idx.copy(), np.full(n, 0.75))  # no shared column
    return SummarizedSequence(np.arange(2.0 * n).reshape(n, 2), table, n, 12.5)


SEGMENT_RULE = "every segment needs 0 <= start <= rep_frame < end, label >= 0 and rep_score in [0, 1]"

# format: (writer, reader, an artifact whose size grows with n)
CONTAINERS = {
    "lseq": (write_lseq, read_lseq, lambda n: LatentSequence(np.arange(2.0 * n).reshape(n, 2))),
    "proj": (
        write_proj,
        read_proj,
        lambda n: ProjectionMatrix(np.linspace(-1.0, 1.0, 2 * n).reshape(n, 2), np.arange(n)),
    ),
    "sseq": (write_sseq, read_sseq, _summary),
    "ctsm": (
        save_model,
        load_model,
        lambda n: lu_init(LUConfig(input_dim=2, num_intents=2, hidden=n, layers=1, seed=3)),
    ),
}


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus") / "c"
    spec = SynthSpec(num_intents=2, vocab_size=3, latent_dim=2, templates_per_intent=1,
                     utterances_per_intent=1, seed=0)
    generate_corpus(spec, out)
    return out


def _cli_reading(fmt, path, corpus, tmp_path):
    """A command line whose command reads ``path`` as a ``fmt`` file."""
    lseq, proj = str(corpus / "u00000.lseq"), str(corpus / "projection.proj")
    return {
        "lseq": ["summarize", "--in", str(path), "--proj", proj, "--out", str(tmp_path / "o")],
        "proj": ["decode", "--in", lseq, "--proj", str(path)],
        "sseq": ["decode", "--in", str(path), "--proj", proj],
        "ctsm": ["eval", "--corpus", str(corpus), "--model", str(path), "--system", "e1"],
    }[fmt]


def _fail_write(monkeypatch, path, step, magic):
    """Make the container writer's first write (after half its bytes) or
    its write of ``magic`` fail; the returned list gets the bytes the file
    held at that moment, which is what a writer killed there leaves."""
    real_write = os.write
    left = []

    def write(fd, data):
        if step == "first":
            real_write(fd, data[: len(data) // 2])
        elif bytes(data) != magic:
            return real_write(fd, data)
        left.append(path.read_bytes())
        raise OSError(errno.EIO, "injected write failure")

    monkeypatch.setattr(os, "write", write)
    return left


class TestContainerRewrite:
    """Container writers rewrite an existing file in place, never through
    O_TRUNC, and no reader accepts a rewrite cut short."""

    @pytest.mark.parametrize("fmt", CONTAINERS)
    @pytest.mark.parametrize("sizes", [(5, 2), (2, 5)], ids=["shrink", "grow"])
    def test_rewrite_equals_fresh_write(self, tmp_path, fmt, sizes):
        write, read, make = CONTAINERS[fmt]
        path, fresh = tmp_path / "x", tmp_path / "fresh"
        write(path, make(sizes[0]))
        first_size = path.stat().st_size
        write(path, make(sizes[1]))
        write(fresh, make(sizes[1]))
        assert path.stat().st_size != first_size
        assert path.read_bytes() == fresh.read_bytes()
        read(path)

    @pytest.mark.parametrize("fmt", CONTAINERS)
    def test_writers_never_open_with_o_trunc(self, tmp_path, monkeypatch, fmt):
        # Truncating on open makes ext4 start writeback on close, which
        # cost the offline benchmark about a third of its throughput.
        write, _, make = CONTAINERS[fmt]
        path = tmp_path / "x"
        real_open = os.open
        flags = []

        def spy(file, flag, *args, **kwargs):
            if os.fspath(file) == str(path):
                flags.append(flag)
            return real_open(file, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        write(path, make(5))
        write(path, make(2))
        # builtin open() does not go through os.open, so it would show as []
        assert len(flags) == 2
        assert not any(flag & os.O_TRUNC for flag in flags)

    @pytest.mark.parametrize("fmt", CONTAINERS)
    @pytest.mark.parametrize("step", ["first", "magic"])
    def test_failed_rewrite_is_rejected(self, tmp_path, monkeypatch, capsys, tiny_corpus,
                                        fmt, step):
        write, read, make = CONTAINERS[fmt]
        path = tmp_path / f"x.{fmt}"
        write(path, make(5))
        left = _fail_write(monkeypatch, path, step, path.read_bytes()[:4])
        with pytest.raises(OSError, match="injected write failure"):
            write(path, make(2))
        monkeypatch.undo()
        assert path.stat().st_size == 0
        killed = tmp_path / f"killed.{fmt}"
        killed.write_bytes(left[0])
        assert killed.stat().st_size > 0
        for bad in (killed, path):
            with pytest.raises(FormatError):
                read(bad)
            assert main(_cli_reading(fmt, bad, tiny_corpus, tmp_path)) == 2
            assert bad.name in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fmt, attr, value, message",
        [
            ("lseq", "frames", np.nan, "refusing to write non-finite float32 values"),
            ("proj", "bias", np.inf, "refusing to write non-finite float32 values"),
            ("sseq", "vectors", np.nan, "vectors contains NaN or Inf"),
            ("ctsm", "params", 1e39, "refusing to write non-finite float32 values"),  # inf as f32
            ("lseq", "frame_shift_ms", 0.0,
             "frame_shift_ms must be positive and finite as float32, got 0.0"),
            ("sseq", "rep_scores", np.nan, SEGMENT_RULE),
            ("sseq", "rep_scores", 1.5, SEGMENT_RULE),
            ("sseq", "rep_frames", 3, SEGMENT_RULE),  # the end of the last span, [2, 3)
        ],
        ids=["lseq", "proj", "sseq", "ctsm", "lseq-zero-shift", "sseq-nan-score",
             "sseq-score-above-1", "sseq-rep-outside-span"],
    )
    def test_non_finite_value_refused_before_opening(self, tmp_path, monkeypatch, fmt, attr,
                                                     value, message):
        # each type checks itself at construction; these values are set
        # afterwards, and the writer refuses them instead of writing a file
        # its reader rejects
        write, read, make = CONTAINERS[fmt]
        path = tmp_path / "x"
        write(path, make(3))
        before = path.read_bytes()
        bad = make(3)
        if isinstance(getattr(bad, attr), np.ndarray):
            getattr(bad, attr).flat[-1] = value
        else:
            setattr(bad, attr, value)
        real_open = os.open
        opened = []

        def spy(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        with pytest.raises(ValueError) as err:
            write(path, bad)
        assert str(err.value) == f"{path}: {message}"
        assert opened == []
        assert path.read_bytes() == before
        read(path)

    @pytest.mark.parametrize("fmt", CONTAINERS)
    def test_write_to_devnull(self, fmt):
        # neither truncatable nor (for a FIFO) seekable: written once, in order
        write, _, make = CONTAINERS[fmt]
        write(os.devnull, make(3))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
    @pytest.mark.parametrize("fmt", CONTAINERS)
    def test_write_to_fifo_sends_the_fresh_bytes(self, tmp_path, fmt):
        write, _, make = CONTAINERS[fmt]
        fresh, fifo = tmp_path / "fresh", tmp_path / "fifo"
        write(fresh, make(3))
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
        reader.start()
        try:
            write(fifo, make(3))
        finally:
            reader.join(timeout=10)
        assert received == [fresh.read_bytes()]
