import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctsum.seqcore import (
    PROB_FLOOR,
    FormatError,
    FramePath,
    LatentSequence,
    PosteriorGrid,
    ProjectionMatrix,
    Vocabulary,
    frame_argmax,
    project_softmax,
    read_lseq,
    read_proj,
    read_vocab,
    write_lseq,
    write_proj,
    write_vocab,
)


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

    @pytest.mark.parametrize("blank", [1.5, True, "1"])
    def test_blank_index_must_be_an_integer(self, blank):
        with pytest.raises(TypeError, match="blank_index must be an integer"):
            Vocabulary(["_", "a", "b"], blank)

    def test_numpy_integer_blank_index_accepted(self):
        vocab = Vocabulary(["_", "a", "b"], np.int64(2))
        assert vocab.blank_index == 2 and type(vocab.blank_index) is int


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
        with pytest.raises(ValueError, match=f"{attr} contains NaN"):
            project_softmax(parts["seq"], parts["proj"])


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
