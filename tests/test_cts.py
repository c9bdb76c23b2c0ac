import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cts_reference as ref
from ctsum import cts, seqcore
from ctsum.cts import (
    Segment,
    SummarizedSequence,
    read_sseq,
    segment_path,
    select_representatives,
    summarize,
    write_sseq,
)
from ctsum.ctc import greedy_decode
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


def spans(labels):
    """(start, end, label) of each run ``segment_path`` finds."""
    labels = np.asarray(labels)
    bounds = segment_path(labels).tolist()
    return [(s, e, int(labels[s])) for s, e in zip(bounds[:-1], bounds[1:])]


def random_case(seed, t=None, d=4, v=5):
    rng = np.random.default_rng(seed)
    t = t or int(rng.integers(1, 60))
    seq = LatentSequence(rng.normal(size=(t, d)).astype(np.float32))
    proj = ProjectionMatrix(rng.normal(size=(v, d)) * 2.0)
    return seq, proj, Vocabulary([f"s{i}" for i in range(v)], blank_index=0)


def assert_same_summary(got, want):
    assert got.vectors.dtype == want.vectors.dtype
    assert got.vectors.shape == want.vectors.shape
    assert got.vectors.tobytes() == want.vectors.tobytes()
    assert got.segments == want.segments
    for col, ref_col in zip(got.table, want.table):
        assert col.tobytes() == ref_col.tobytes()
    assert (got.source_T, got.frame_shift_ms) == (want.source_T, want.frame_shift_ms)


class TestSegmentPath:
    def test_single_run(self):
        assert segment_path(np.array([4, 4, 4])).tolist() == [0, 3]

    def test_single_frame(self):
        assert segment_path(np.array([2])).tolist() == [0, 1]

    def test_forced_rle(self):
        # blank=0, a=1, b=2: [_,a,a,_,b]
        assert spans([0, 1, 1, 0, 2]) == [(0, 1, 0), (1, 3, 1), (3, 4, 0), (4, 5, 2)]

    def test_against_rle_oracle(self):
        rng = np.random.default_rng(11)
        labels = rng.integers(0, 5, size=200)
        oracle = []
        start = 0
        for i in range(1, 200):
            if labels[i] != labels[i - 1]:
                oracle.append((start, i, int(labels[start])))
                start = i
        oracle.append((start, 200, int(labels[start])))
        assert spans(labels) == oracle

    def test_tiling_invariant(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            labels = rng.integers(0, 4, size=int(rng.integers(1, 80)))
            pos = 0
            for start, end, label in spans(labels):
                assert start == pos
                pos = end
                assert (labels[start:end] == label).all()
            assert pos == labels.size

    @pytest.mark.parametrize("labels", [[], [[1, 2]]], ids=["empty", "2-d"])
    def test_rejects_empty_or_2d(self, labels):
        with pytest.raises(ValueError):
            segment_path(np.array(labels))


class TestSelectRepresentatives:
    def test_unique_maximum(self):
        path = path_of([1, 1, 1], [0.5, 0.9, 0.7])
        reps = select_representatives(segment_path(path.arg_labels), path.arg_scores)
        assert reps.tolist() == [1]

    def test_tie_takes_earliest(self):
        path = path_of([2, 2, 3, 3, 3], [0.6, 0.6, 0.4, 0.7, 0.7])
        reps = select_representatives(segment_path(path.arg_labels), path.arg_scores)
        assert reps.tolist() == [0, 3]

    def test_against_scan_oracle(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 3, size=50)
        scores = rng.uniform(0.1, 1.0, size=50)
        bounds = segment_path(labels)
        reps = select_representatives(bounds, scores)
        for start, end, rep in zip(bounds[:-1], bounds[1:], reps):
            best, best_score = start, scores[start]
            for t in range(start, end):
                if scores[t] > best_score:
                    best, best_score = t, scores[t]
            assert rep == best

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            select_representatives(segment_path(np.array([0, 0])), np.full(3, 0.5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        # a NaN sorts last, so its segment would silently get its runner-up
        with pytest.raises(ValueError, match="scores contains NaN or Inf"):
            select_representatives(np.array([0, 3]), [bad, 0.2, 0.3])

    @pytest.mark.parametrize("bounds", [[0, True, 3], [0.0, 1.0, 3.0], np.array([0.0, 3.0])])
    def test_non_integer_bounds_rejected(self, bounds):
        with pytest.raises(ValueError, match="segment bounds must be a 1-d integer sequence"):
            select_representatives(bounds, np.full(3, 0.5))

    def test_non_tiling_segments_rejected(self):
        # late start, short, an empty segment, backwards, no segment, no bounds
        for bounds in ([1, 4], [0, 2], [0, 2, 2, 4], [0, 3, 2, 4], [0], []):
            with pytest.raises(ValueError):
                select_representatives(np.array(bounds, dtype=np.int64), np.full(4, 0.5))


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
            bounds = segment_path(path.arg_labels)
            reps = select_representatives(bounds, path.arg_scores)
            summ = summarize(seq, proj)
            assert summ.vectors.tobytes() == seq.frames[reps].tobytes()
            assert summ.starts.tolist() == bounds[:-1].tolist()
            assert summ.ends.tolist() == bounds[1:].tolist()
            assert summ.labels.tolist() == path.arg_labels[bounds[:-1]].tolist()
            assert summ.rep_frames.tolist() == reps.tolist()
            assert summ.rep_scores.tobytes() == path.arg_scores[reps].tobytes()
            assert (summ.source_T, summ.frame_shift_ms) == (seq.num_frames, seq.frame_shift_ms)

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
            assert twice.labels.tolist() == once.labels.tolist()

    def test_drop_blank_segments(self):
        seq, proj, _ = random_case(123, t=40)
        kept = summarize(seq, proj)
        dropped = summarize(seq, proj, drop_blank_segments=True)
        assert all(s.label != 0 for s in dropped.segments)
        assert dropped.num_segments == sum(1 for s in kept.segments if s.label != 0)

    @pytest.mark.parametrize("blank", [2, np.int64(4)])
    def test_drop_blank_segments_of_another_blank(self, blank):
        seq, proj, _ = random_case(123, t=40)
        kept = summarize(seq, proj)
        dropped = summarize(seq, proj, drop_blank_segments=True, blank_index=blank)
        assert dropped.labels.tolist() == [label for label in kept.labels.tolist() if label != blank]

    @pytest.mark.parametrize(
        "blank, error", [(True, TypeError), (1.5, TypeError), (99, ValueError), (-1, ValueError)]
    )
    def test_blank_index_rejected(self, blank, error):
        # refused, not read as label 1 (True) or matching no label at all
        seq, proj, _ = random_case(123, t=40)
        with pytest.raises(error, match="blank_index"):
            summarize(seq, proj, drop_blank_segments=True, blank_index=blank)

    def test_drop_blank_segments_can_leave_nothing(self):
        seq = LatentSequence(np.ones((3, 2), dtype=np.float32))
        proj = ProjectionMatrix(np.array([[1.0, 1.0], [-1.0, -1.0]]))  # every frame blank
        summ = summarize(seq, proj, drop_blank_segments=True)
        assert summ.num_segments == 0 and summ.vectors.shape == (0, 2)
        assert summ.source_T == 3 and summ.segments == []

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**31), t=st.integers(1, 40))
    def test_summary_never_longer_than_source(self, seed, t):
        seq, proj, _ = random_case(seed, t=t)
        summ = summarize(seq, proj)
        assert 1 <= summ.num_segments <= t
        assert summ.source_T == t
        labels = summ.labels.tolist()
        assert all(a != b for a, b in zip(labels, labels[1:]))


def pooled_case(seed, picks, pool_size, d=3, v=4):
    """Frames drawn from a pool of ``pool_size`` vectors: a repeated pick
    repeats a frame bit for bit, so its segment has an exact score tie."""
    rng = np.random.default_rng(seed)
    pool = rng.normal(size=(pool_size, d)).astype(np.float32)
    seq = LatentSequence(pool[np.asarray(picks) % pool_size])
    return seq, ProjectionMatrix(rng.normal(size=(v, d)) * 2.0)


class TestAgainstReference:
    """``summarize`` against the per-segment loop in ``cts_reference``:
    the same vector bytes and the same segment table, exactly."""

    @staticmethod
    def check(seq, proj):
        for drop in (False, True):
            got = summarize(seq, proj, drop_blank_segments=drop)
            assert_same_summary(got, ref.summarize(seq, proj, drop_blank_segments=drop))

    @settings(deadline=None, max_examples=200)
    @given(
        seed=st.integers(0, 2**31),
        pool_size=st.integers(1, 4),
        picks=st.lists(st.integers(0, 3), min_size=1, max_size=40),
    )
    def test_pooled_frames_with_exact_ties(self, seed, pool_size, picks):
        self.check(*pooled_case(seed, picks, pool_size))

    @settings(deadline=None, max_examples=100)
    @given(seed=st.integers(0, 2**31), t=st.integers(1, 60))
    def test_random_frames(self, seed, t):
        seq, proj, _ = random_case(seed, t=t)
        self.check(seq, proj)

    @pytest.mark.parametrize("t", [1, 2, 17])
    def test_single_label_path(self, t):
        # the bias makes label 2 every frame's argmax
        rng = np.random.default_rng(t)
        seq = LatentSequence(rng.normal(size=(t, 3)).astype(np.float32) * 0.01)
        proj = ProjectionMatrix(rng.normal(size=(4, 3)), np.array([0.0, 0.0, 50.0, 0.0]))
        self.check(seq, proj)
        assert summarize(seq, proj).labels.tolist() == [2]

    @pytest.mark.parametrize("t", [1, 2, 9])
    def test_strictly_alternating_labels(self, t):
        seq = LatentSequence(np.array([[1.0, 0.0], [0.0, 1.0]] * 5, dtype=np.float32)[:t])
        proj = ProjectionMatrix(np.eye(2) * 4.0)
        self.check(seq, proj)
        summ = summarize(seq, proj)
        assert summ.labels.tolist() == [i % 2 for i in range(t)]
        assert summ.rep_frames.tolist() == list(range(t))

    def test_tie_inside_a_segment_takes_the_earliest_frame(self):
        frames = np.array([[1, 0], [1, 0], [3, 0], [3, 0], [2, 0]], dtype=np.float32)
        proj = ProjectionMatrix(np.array([[-1.0, 0.0], [1.0, 0.0]]))
        seq = LatentSequence(frames)
        self.check(seq, proj)
        summ = summarize(seq, proj)
        assert summ.num_segments == 1 and summ.rep_frames.tolist() == [2]

    def test_steps_against_reference_steps(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            t = int(rng.integers(1, 30))
            labels = rng.integers(0, 3, size=t)
            scores = rng.choice([0.25, 0.5, 0.75], size=t)  # many exact ties
            path = path_of(labels, scores)
            seq = LatentSequence(rng.normal(size=(t, 2)).astype(np.float32))
            want = ref.select_representatives(ref.segment_path(path), path, seq).segments
            bounds = segment_path(labels)
            assert bounds[:-1].tolist() == [s.start for s in want]
            assert bounds[1:].tolist() == [s.end for s in want]
            reps = select_representatives(bounds, scores)
            assert reps.tolist() == [s.rep_frame for s in want]


class TestBenchmarkSeams:
    """perfbench patches these module attributes to trace summarize's
    steps; a refactor that stops looking them up would zero its spans."""

    def test_each_step_called_once_per_summarize(self, monkeypatch):
        calls = {"segment_path": 0, "select_representatives": 0}

        def counting(name):
            original = getattr(cts, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return counted

        for name in calls:
            monkeypatch.setattr(cts, name, counting(name))
        for n, seed in enumerate(range(5), 1):
            seq, proj, _ = random_case(seed)
            cts.summarize(seq, proj, drop_blank_segments=bool(seed % 2))
            assert calls == {"segment_path": n, "select_representatives": n}

    def test_reimported_steps_exist(self):
        assert cts.project_softmax is project_softmax
        assert cts.frame_argmax is frame_argmax

    def test_segment_path_is_the_shared_encoder(self):
        assert cts.segment_path is seqcore.segment_path

    def test_greedy_decode_does_not_reach_the_patched_name(self, monkeypatch):
        # greedy_decode runs the same encoder, but not through cts's
        # name, so the benchmark's cts.segment_path span counts E2 only
        calls = []
        original = cts.segment_path
        monkeypatch.setattr(cts, "segment_path", lambda labels: calls.append(1) or original(labels))
        for n, seed in enumerate(range(5), 1):
            seq, proj, vocab = random_case(seed)
            greedy_decode(project_softmax(seq, proj), vocab)
            assert len(calls) == n - 1
            cts.summarize(seq, proj)
            assert len(calls) == n


class TestSegmentValidation:
    def test_bad_span(self):
        with pytest.raises(ValueError):
            Segment(3, 3, 0)

    def test_rep_outside_span(self):
        with pytest.raises(ValueError):
            Segment(0, 2, 0, rep_frame=2)

    @pytest.mark.parametrize(
        "args, name",
        [((0.0, 2, 1), "start"), ((0, 2.5, 1.5), "end"), ((0, 2, 1.0), "label"),
         ((0, 2, 1, 1.0), "rep_frame"), ((0, 2, True), "label"),
         ((0, 1, 0, 0, "0.5"), "rep_score"), ((0, 1, 0, 0, True), "rep_score")],
    )
    def test_integer_fields_refuse_floats_and_bools(self, args, name):
        # refused, not kept: Segment(0, 2.5, 1.5) used to build; rep_score,
        # the one real field, refuses a string or a bool the same way
        kind = "a number" if name == "rep_score" else "an integer"
        with pytest.raises(TypeError, match=f"^{name} must be {kind}"):
            Segment(*args)

    def test_numpy_integer_fields_become_ints(self):
        seg = Segment(np.int64(1), np.int32(4), np.uint8(2), np.int16(3))
        assert seg == Segment(1, 4, 2, 3)
        assert all(type(v) is int for v in (seg.start, seg.end, seg.label, seg.rep_frame))

    def test_rep_score_is_held_as_a_float(self):
        for score in (1, np.float32(0.25), np.int64(0), 0.5):
            seg = Segment(0, 1, 0, 0, score)
            assert type(seg.rep_score) is float and seg.rep_score == score
        assert np.isnan(Segment(0, 1, 0).rep_score)
        with pytest.raises(TypeError, match="^rep_score must be a finite number"):
            Segment(0, 1, 0, 0, 10**400)  # float() would overflow, naming no field


class TestSummarizedSequence:
    VALID = ([0, 2], [2, 5], [1, 0], [1, 4], [0.5, 0.25])

    @staticmethod
    def make(table, s=2, source_t=5, shift=10.0, d=3):
        table = tuple(np.asarray(col) for col in table)
        return SummarizedSequence(np.zeros((s, d), dtype=np.float32), table, source_t, shift)

    def test_valid_table(self):
        summ = self.make(self.VALID)
        assert summ.segments == [Segment(0, 2, 1, 1, 0.5), Segment(2, 5, 0, 4, 0.25)]
        assert summ.num_segments == 2

    @pytest.mark.parametrize(
        "column, value",
        [
            (0, [0, 5]),  # start == end
            (0, [-1, 2]),  # negative start
            (1, [2, 1]),  # end before start
            (2, [1, -3]),  # negative label
            (3, [2, 4]),  # rep_frame == end
            (3, [1, 1]),  # rep_frame before start
            (3, [1, -2]),  # negative rep_frame
        ],
    )
    def test_rejects_each_bad_row(self, column, value):
        table = list(self.VALID)
        table[column] = value
        with pytest.raises(ValueError):
            self.make(table)
        # the record form rejects the same rows, one Segment at a time
        with pytest.raises(ValueError):
            [Segment(*row) for row in zip(*table)]

    @pytest.mark.parametrize("column, name", enumerate(["starts", "ends", "labels", "rep_frames"]))
    def test_integer_columns_refuse_floats(self, column, name):
        # refused, not truncated: [2.7] would be stored as end 2
        table = [[0], [2], [1], [1], [0.5]]
        table[column] = [table[column][0] + 0.7]
        with pytest.raises(ValueError, match=f"{name} must be a 1-d integer sequence"):
            SummarizedSequence(np.ones((1, 2), np.float32), tuple(table), 3)

    def test_unselected_representative_rejected(self):
        # Segment's default rep_frame of -1 means "not selected yet"; a
        # summary takes selected segments only
        with pytest.raises(ValueError, match="every segment needs 0 <= start <= rep_frame < end"):
            self.make(([0], [4], [1], [-1], [float("nan")]), s=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(s=3), dict(source_t=1), dict(shift=0.0), dict(shift=float("inf")),
            dict(shift=1e39), dict(shift=1e-50), dict(d=0),
        ],
        ids=[
            "vector-rows", "more-segments-than-frames", "zero-shift", "infinite-shift",
            "shift-overflows-float32", "shift-underflows-float32", "zero-dim",
        ],
    )
    def test_rejects_bad_shape_or_shift(self, kwargs):
        with pytest.raises(ValueError):
            self.make(self.VALID, **kwargs)

    @pytest.mark.parametrize("shift", [True, "10"], ids=["bool", "numeric-string"])
    def test_shift_must_be_a_number(self, shift):
        # the type rule of every real field: not stored as 1.0 or 10.0
        with pytest.raises(TypeError, match="frame_shift_ms must be a number"):
            self.make(self.VALID, shift=shift)

    def test_shift_stored_as_float(self):
        summ = self.make(self.VALID, shift=np.float32(12.5))
        assert type(summ.frame_shift_ms) is float and summ.frame_shift_ms == 12.5

    @pytest.mark.parametrize("score", [1.5, -0.25, float("nan")])
    def test_rejects_selected_score_outside_unit_interval(self, score):
        with pytest.raises(ValueError, match=r"rep_score in \[0, 1\]"):
            self.make(self.VALID[:4] + ([0.5, score],))

    @pytest.mark.parametrize(
        "table, source_t",
        [
            (([0], [10], [1], [5], [0.5]), 3),
            (([0, 2], [2, 6], [1, 0], [1, 4], [0.5, 0.25]), 5),
            (([0, 0], [3, 3], [1, 1], [0, 0], [0.5, 0.5]), 5),
            (([2, 0], [5, 2], [0, 1], [4, 1], [0.25, 0.5]), 5),
        ],
        ids=["past-source", "last-past-source", "overlapping", "out-of-order"],
    )
    def test_rejects_segments_outside_source_or_overlapping(self, table, source_t):
        with pytest.raises(ValueError, match="segments must be in order, disjoint and end by source_T"):
            self.make(table, s=len(table[0]), source_t=source_t)

    @pytest.mark.parametrize("source_t", [2.9, 5.0, "5", True])
    def test_source_t_must_be_an_integer(self, source_t):
        with pytest.raises(TypeError, match="source_T must be an integer"):
            self.make(self.VALID, source_t=source_t)

    def test_rejects_non_finite_vector(self):
        table = tuple(np.asarray(col) for col in self.VALID)
        vectors = np.zeros((2, 3), dtype=np.float32)
        vectors[1, 2] = np.nan
        with pytest.raises(ValueError, match="vectors contains NaN"):
            SummarizedSequence(vectors, table, 5)

    def test_rejects_unequal_columns_and_1d_vectors(self):
        with pytest.raises(ValueError):
            self.make(([0, 2], [2, 5], [1], [1, 4], [0.5, 0.25]))
        with pytest.raises(ValueError):
            SummarizedSequence(np.zeros(2), tuple(np.asarray(c) for c in self.VALID), 5)

    def test_segment_list_round_trips(self):
        seq, proj, _ = random_case(21, t=30)
        summ = summarize(seq, proj)
        again = SummarizedSequence(summ.vectors, summ.segments, summ.source_T, summ.frame_shift_ms)
        assert_same_summary(again, summ)
        assert summ.segments is not summ.segments  # derived afresh on each access


class TestSseqFile:
    def test_round_trip(self, tmp_path):
        seq, proj, _ = random_case(42, t=30)
        summ = summarize(seq, proj)
        path = tmp_path / "x.sseq"
        write_sseq(path, summ)
        back = read_sseq(path)
        np.testing.assert_array_equal(back.vectors, summ.vectors)
        assert back.source_T == summ.source_T
        for name in ("starts", "ends", "labels", "rep_frames"):
            assert getattr(back, name).tolist() == getattr(summ, name).tolist()
        assert back.rep_scores.tobytes() == summ.rep_scores.astype("<f4").astype(np.float64).tobytes()

    def test_rejects_unselected_segments(self):
        # refused when the summary is built, so there is nothing to write
        with pytest.raises(ValueError, match="every segment needs 0 <= start <= rep_frame < end"):
            SummarizedSequence(np.zeros((1, 2), dtype=np.float32), [Segment(0, 4, 1)], 4)

    def test_refuses_segments_moved_past_source(self, tmp_path):
        # read_sseq recovers source_T as the last end, so a summary whose
        # segments end past its source would come back with another one
        seq, proj, _ = random_case(42, t=30)
        summ = summarize(seq, proj)
        summ.ends[-1] += 1
        with pytest.raises(ValueError, match="end by source_T=30"):
            write_sseq(tmp_path / "x.sseq", summ)
        assert not (tmp_path / "x.sseq").exists()

    def test_rejects_fields_wider_than_32_bits(self, tmp_path):
        big = 2**32
        summ = SummarizedSequence(
            np.zeros((1, 2), dtype=np.float32), [Segment(big - 1, big, 1, big - 1, 0.5)], big
        )
        with pytest.raises(ValueError):
            write_sseq(tmp_path / "x.sseq", summ)

    def test_32_bit_refusal_names_the_file(self, tmp_path):
        big = 2**32
        summ = SummarizedSequence(
            np.zeros((1, 2), dtype=np.float32), [Segment(0, big, 1, 0, 0.5)], big
        )
        path = tmp_path / "wide.sseq"
        with pytest.raises(ValueError, match="wide.sseq: segment ends and labels must fit in 32 bits"):
            write_sseq(path, summ)
        assert not path.exists()

    def test_empty_summary_refusal_names_the_file(self, tmp_path):
        seq = LatentSequence(np.ones((3, 2), dtype=np.float32))
        summ = summarize(seq, ProjectionMatrix(np.array([[1.0, 1.0], [0.0, 0.0]])),
                         drop_blank_segments=True)
        path = tmp_path / "empty.sseq"
        with pytest.raises(ValueError, match="empty.sseq: refusing to write an empty summary"):
            write_sseq(path, summ)
        assert not path.exists()

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
            ([(0, 0, 1, 0, 0.5)], None, 10.0),
            ([(0, 2, 1, 5, 0.5)], None, 10.0),
            ([(0, 2, 1, 2, 0.5)], None, 10.0),
            ([(0, 2, 1, 0, 0.5)], [[0.0, float("nan")]], 10.0),
            ([(0, 2, 1, 0, float("nan"))], None, 10.0),
            ([(0, 2, 1, 0, 1.5)], None, 10.0),
            ([(0, 2, 1, 0, 0.5)], None, float("nan")),
            ([(0, 2, 1, 0, 0.5), (0, 2, 2, 1, 0.5), (1, 2, 1, 1, 0.5)], None, 10.0),
        ],
        ids=[
            "no-segments", "empty-span", "empty-span-at-0", "rep-outside-span", "rep-at-end",
            "nan-vector", "nan-score", "score-above-1", "nan-shift", "overlap-exceeds-source-T",
        ],
    )
    def test_invalid_contents_raise_format_error(self, tmp_path, segments, vectors, shift):
        path = tmp_path / "x.sseq"
        path.write_bytes(self.sseq_bytes(segments, vectors=vectors, shift=shift))
        with pytest.raises(FormatError):
            read_sseq(path)

    def test_zero_dim_vectors_raise_format_error(self, tmp_path):
        # well framed, but a summary's vectors need D >= 1, as a sequence's do
        path = tmp_path / "x.sseq"
        path.write_bytes(self.sseq_bytes([(0, 2, 1, 0, 0.5)], d=0))
        with pytest.raises(FormatError, match=r"invalid summary: vectors must be \(S, D>=1\)") as e:
            read_sseq(path)
        assert str(path) in str(e.value)

    def test_declared_size_checked_before_reading(self, tmp_path):
        raw = self.sseq_bytes([(0, 2, 1, 0, 0.5), (2, 4, 0, 3, 0.5)])
        path = tmp_path / "x.sseq"
        path.write_bytes(raw[:18] + raw[18 + 8 :])  # one vector short
        with pytest.raises(FormatError, match="header declares 74 bytes, file has 66"):
            read_sseq(path)
