import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctsum.cts import (
    Segment,
    SummarizedSequence,
    compression_stats,
    read_sseq,
    segment_path,
    select_representatives,
    summarize,
    write_sseq,
)
from ctsum.ctc import LabelSequence, greedy_decode
from ctsum.seqcore import (
    FormatError,
    FramePath,
    LatentSequence,
    ProjectionMatrix,
    Vocabulary,
    frame_argmax,
    project_softmax,
)


def path_of(labels, scores=None):
    labels = np.asarray(labels)
    if scores is None:
        scores = np.full(labels.shape, 0.5)
    return FramePath(labels, scores)


def random_case(seed, t=None, d=4, v=5):
    rng = np.random.default_rng(seed)
    t = t or int(rng.integers(1, 60))
    seq = LatentSequence(rng.normal(size=(t, d)).astype(np.float32))
    proj = ProjectionMatrix(rng.normal(size=(v, d)) * 2.0)
    return seq, proj, Vocabulary([f"s{i}" for i in range(v)], blank_index=0)


class TestSegmentPath:
    def test_single_run(self):
        segs = segment_path(path_of([4, 4, 4]))
        assert len(segs) == 1
        assert (segs[0].start, segs[0].end, segs[0].label) == (0, 3, 4)

    def test_forced_rle(self):
        # blank=0, a=1, b=2: [_,a,a,_,b]
        segs = segment_path(path_of([0, 1, 1, 0, 2]))
        spans = [(s.start, s.end, s.label) for s in segs]
        assert spans == [(0, 1, 0), (1, 3, 1), (3, 4, 0), (4, 5, 2)]

    def test_against_rle_oracle(self):
        rng = np.random.default_rng(11)
        labels = rng.integers(0, 5, size=200)
        segs = segment_path(path_of(labels))
        oracle = []
        start = 0
        for i in range(1, 200):
            if labels[i] != labels[i - 1]:
                oracle.append((start, i, int(labels[start])))
                start = i
        oracle.append((start, 200, int(labels[start])))
        assert [(s.start, s.end, s.label) for s in segs] == oracle

    def test_tiling_invariant(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            labels = rng.integers(0, 4, size=int(rng.integers(1, 80)))
            segs = segment_path(path_of(labels))
            pos = 0
            for seg in segs:
                assert seg.start == pos
                pos = seg.end
                assert (labels[seg.start : seg.end] == seg.label).all()
            assert pos == labels.size


class TestSelectRepresentatives:
    def test_unique_maximum(self):
        seq = LatentSequence(np.arange(6, dtype=np.float32).reshape(3, 2))
        path = path_of([1, 1, 1], [0.5, 0.9, 0.7])
        summ = select_representatives(segment_path(path), path, seq)
        assert summ.segments[0].rep_frame == 1
        np.testing.assert_array_equal(summ.vectors[0], seq.frames[1])

    def test_tie_takes_earliest(self):
        seq = LatentSequence(np.ones((2, 3), dtype=np.float32))
        path = path_of([2, 2], [0.6, 0.6])
        summ = select_representatives(segment_path(path), path, seq)
        assert summ.segments[0].rep_frame == 0

    def test_against_scan_oracle(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 3, size=50)
        scores = rng.uniform(0.1, 1.0, size=50)
        seq = LatentSequence(rng.normal(size=(50, 4)).astype(np.float32))
        path = path_of(labels, scores)
        summ = select_representatives(segment_path(path), path, seq)
        for seg in summ.segments:
            best, best_score = seg.start, scores[seg.start]
            for t in range(seg.start, seg.end):
                if scores[t] > best_score:
                    best, best_score = t, scores[t]
            assert seg.rep_frame == best
            assert seg.rep_score == pytest.approx(best_score)

    def test_mismatched_lengths_rejected(self):
        seq = LatentSequence(np.ones((3, 2), dtype=np.float32))
        path = path_of([0, 0])
        with pytest.raises(ValueError):
            select_representatives(segment_path(path), path, seq)

    def test_non_tiling_segments_rejected(self):
        seq = LatentSequence(np.ones((4, 2), dtype=np.float32))
        path = path_of([0, 0, 0, 0])
        with pytest.raises(ValueError):
            select_representatives([Segment(1, 4, 0)], path, seq)
        with pytest.raises(ValueError):
            select_representatives([Segment(0, 2, 0)], path, seq)


class TestSummarize:
    def test_length_one_identity(self):
        seq, proj, _ = random_case(4, t=1)
        summ = summarize(seq, proj)
        assert summ.num_segments == 1
        np.testing.assert_array_equal(summ.vectors[0], seq.frames[0])

    def test_planted_runs_segment_count(self):
        from ctsum.synth import SynthSpec, build_corpus

        spec = SynthSpec(
            template_len_range=(4, 4), noise_sigma=0.0, utterances_per_intent=2, seed=3
        )
        corpus = build_corpus(spec)
        for row, seq in zip(corpus.rows, corpus.sequences):
            summ = summarize(seq, corpus.projection)
            assert 4 <= summ.num_segments <= 9
            decoded = greedy_decode(project_softmax(seq, corpus.projection), corpus.vocab)
            assert decoded.ids.tolist() == row["labels"]

    def test_decode_preservation_random(self):
        for seed in range(300):
            seq, proj, vocab = random_case(seed)
            summ = summarize(seq, proj)
            before = greedy_decode(project_softmax(seq, proj), vocab)
            after = greedy_decode(project_softmax(summ.to_latent(), proj), vocab)
            assert after.ids.tolist() == before.ids.tolist()

    def test_selection_bit_identity(self):
        for seed in range(50):
            seq, proj, _ = random_case(seed + 1000)
            path = frame_argmax(project_softmax(seq, proj))
            summ = summarize(seq, proj)
            for i, seg in enumerate(summ.segments):
                np.testing.assert_array_equal(summ.vectors[i], seq.frames[seg.rep_frame])
                assert path.arg_labels[seg.rep_frame] == seg.label
                assert seg.rep_score == pytest.approx(
                    path.arg_scores[seg.start : seg.end].max()
                )

    def test_equals_step_composition_bit_for_bit(self):
        for seed in range(200):
            seq, proj, _ = random_case(seed + 7000)
            path = frame_argmax(project_softmax(seq, proj))
            steps = select_representatives(segment_path(path), path, seq)
            summ = summarize(seq, proj)
            assert summ.vectors.tobytes() == steps.vectors.tobytes()
            assert summ.segments == steps.segments
            assert (summ.source_T, summ.frame_shift_ms) == (steps.source_T, steps.frame_shift_ms)

    def test_length_theorem(self):
        for seed in range(200):
            seq, proj, vocab = random_case(seed + 5000)
            summ = summarize(seq, proj)
            decoded = greedy_decode(project_softmax(seq, proj), vocab)
            assert summ.num_segments <= 2 * len(decoded) + 1

    def test_idempotence(self):
        for seed in range(50):
            seq, proj, _ = random_case(seed + 9000)
            once = summarize(seq, proj)
            twice = summarize(once.to_latent(), proj)
            assert twice.num_segments == once.num_segments
            assert [s.label for s in twice.segments] == [s.label for s in once.segments]

    def test_drop_blank_segments(self):
        seq, proj, _ = random_case(123, t=40)
        kept = summarize(seq, proj)
        dropped = summarize(seq, proj, drop_blank_segments=True)
        assert all(s.label != 0 for s in dropped.segments)
        assert dropped.num_segments == sum(1 for s in kept.segments if s.label != 0)

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**31), t=st.integers(1, 40))
    def test_summary_never_longer_than_source(self, seed, t):
        seq, proj, _ = random_case(seed, t=t)
        summ = summarize(seq, proj)
        assert 1 <= summ.num_segments <= t
        assert summ.source_T == t
        labels = [s.label for s in summ.segments]
        assert all(a != b for a, b in zip(labels, labels[1:]))


class TestCompressionStats:
    def test_arithmetic(self):
        segs = [Segment(i * 2, i * 2 + 2, i, rep_frame=i * 2, rep_score=0.5) for i in range(5)]
        summ = SummarizedSequence(np.zeros((5, 3), dtype=np.float32), segs, 10)
        stats = compression_stats(summ, LabelSequence([1, 2]))
        assert stats.ratio == pytest.approx(2.0)
        assert stats.segments_per_label == pytest.approx(2.5)
        assert not stats.empty_decode

    def test_empty_decode_flagged(self):
        summ = SummarizedSequence(
            np.zeros((1, 3), dtype=np.float32), [Segment(0, 8, 0, 0, 0.9)], 8
        )
        stats = compression_stats(summ, LabelSequence([]))
        assert stats.ratio == pytest.approx(8.0)
        assert stats.segments_per_label == pytest.approx(1.0)
        assert stats.empty_decode


class TestSegmentValidation:
    def test_bad_span(self):
        with pytest.raises(ValueError):
            Segment(3, 3, 0)

    def test_rep_outside_span(self):
        with pytest.raises(ValueError):
            Segment(0, 2, 0, rep_frame=2)


class TestSseqFile:
    def test_round_trip(self, tmp_path):
        seq, proj, _ = random_case(42, t=30)
        summ = summarize(seq, proj)
        path = tmp_path / "x.sseq"
        write_sseq(path, summ)
        back = read_sseq(path)
        np.testing.assert_array_equal(back.vectors, summ.vectors)
        assert back.source_T == summ.source_T
        assert [(s.start, s.end, s.label, s.rep_frame) for s in back.segments] == [
            (s.start, s.end, s.label, s.rep_frame) for s in summ.segments
        ]

    def test_rejects_unselected_segments(self, tmp_path):
        summ = SummarizedSequence(
            np.zeros((1, 2), dtype=np.float32), [Segment(0, 4, 1)], 4
        )
        with pytest.raises(ValueError):
            write_sseq(tmp_path / "x.sseq", summ)

    def test_detects_corruption(self, tmp_path):
        seq, proj, _ = random_case(7, t=12)
        path = tmp_path / "x.sseq"
        write_sseq(path, summarize(seq, proj))
        raw = path.read_bytes()
        (tmp_path / "t.sseq").write_bytes(raw[:-2])
        with pytest.raises(FormatError):
            read_sseq(tmp_path / "t.sseq")
        (tmp_path / "m.sseq").write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(FormatError):
            read_sseq(tmp_path / "m.sseq")
        (tmp_path / "x2.sseq").write_bytes(raw + b"\0")
        with pytest.raises(FormatError):
            read_sseq(tmp_path / "x2.sseq")

    @staticmethod
    def sseq_bytes(segments, d=2, vectors=None, shift=10.0):
        """A .sseq file holding the given (start, end, label, rep, score) records."""
        s = len(segments)
        if vectors is None:
            vectors = np.zeros((s, d))
        head = struct.pack("<4sHIIf", b"CTSS", 1, s, d, shift)
        table = b"".join(struct.pack("<IIIIf", *seg) for seg in segments)
        return head + np.asarray(vectors, "<f4").tobytes() + table

    @pytest.mark.parametrize(
        "segments, vectors, shift",
        [
            ([], None, 10.0),
            ([(3, 3, 1, 3, 0.5)], None, 10.0),
            ([(0, 2, 1, 5, 0.5)], None, 10.0),
            ([(0, 2, 1, 0, 0.5)], [[0.0, float("nan")]], 10.0),
            ([(0, 2, 1, 0, float("nan"))], None, 10.0),
            ([(0, 2, 1, 0, 0.5)], None, float("nan")),
        ],
        ids=["no-segments", "empty-span", "rep-outside-span", "nan-vector", "nan-score", "nan-shift"],
    )
    def test_invalid_contents_raise_format_error(self, tmp_path, segments, vectors, shift):
        path = tmp_path / "x.sseq"
        path.write_bytes(self.sseq_bytes(segments, vectors=vectors, shift=shift))
        with pytest.raises(FormatError):
            read_sseq(path)

    def test_declared_size_checked_before_reading(self, tmp_path):
        raw = self.sseq_bytes([(0, 2, 1, 0, 0.5), (2, 4, 0, 3, 0.5)])
        path = tmp_path / "x.sseq"
        path.write_bytes(raw[:18] + raw[18 + 8 :])  # one vector short
        with pytest.raises(FormatError, match="header declares 74 bytes, file has 66"):
            read_sseq(path)
