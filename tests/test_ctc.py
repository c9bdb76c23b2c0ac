import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctc_reference as ref
from ctsum.ctc import (
    LabelSequence,
    collapse_path,
    ctc_forward_logprob,
    enumerate_alignments_logprob,
    greedy_decode,
)
from ctsum.seqcore import (
    LatentSequence,
    PosteriorGrid,
    ProjectionMatrix,
    Vocabulary,
    project_softmax,
)


def make_grid(rows):
    return PosteriorGrid(np.asarray(rows, dtype=np.float64))


def random_grid(rng, t, v):
    return PosteriorGrid(rng.dirichlet(np.ones(v), size=t))


def vocab_of(v, blank_index=0):
    return Vocabulary(["_"] + [f"l{i}" for i in range(1, v)], blank_index=blank_index)


class TestCollapse:
    def test_canonical_example(self):
        # path [a,a,_,a,b,b] with a=1, b=2, blank=0
        out = collapse_path([1, 1, 0, 1, 2, 2], blank_index=0)
        assert out.tolist() == [1, 1, 2]

    def test_all_blank(self):
        assert collapse_path([0, 0, 0], blank_index=0).tolist() == []

    def test_empty_path_collapses_to_empty(self):
        out = collapse_path([], blank_index=0)
        assert out.dtype == np.int64 and out.shape == (0,)

    def test_matches_keep_mask_reference(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            v = int(rng.integers(1, 6))
            labels = rng.integers(0, v, size=int(rng.integers(1, 40)))
            blank = int(rng.integers(0, v))
            np.testing.assert_array_equal(
                collapse_path(labels, blank), ref.collapse_path(labels, blank)
            )

    def test_random_against_two_pass_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            v = int(rng.integers(2, 6))
            labels = rng.integers(0, v, size=50)
            # oracle: run-length encode, then drop blanks
            rle = [int(labels[0])]
            for lab in labels[1:]:
                if lab != rle[-1]:
                    rle.append(int(lab))
            expect = [lab for lab in rle if lab != 0]
            assert collapse_path(labels, 0).tolist() == expect

    def test_repeats_only_survive_across_blanks(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            labels = rng.integers(0, 4, size=30)
            out = collapse_path(labels, 0)
            assert not (out == 0).any()
            # two equal adjacent outputs imply a separating blank in the path
            positions = []
            prev = -1
            for i, lab in enumerate(labels):
                if lab != prev and lab != 0:
                    positions.append(i)
                prev = int(lab)
            for a, b in zip(positions, positions[1:]):
                if labels[a] == labels[b]:
                    assert (labels[a:b] == 0).any()


class TestGreedyDecode:
    def test_decode_and_score(self):
        grid = make_grid([[0.1, 0.9], [0.3, 0.7], [0.8, 0.2]])
        out = greedy_decode(grid, vocab_of(2))
        assert out.ids.tolist() == [1]
        assert out.score == pytest.approx(math.log(0.9) + math.log(0.7) + math.log(0.8))

    def test_all_blank_decodes_empty(self):
        grid = make_grid([[0.9, 0.1], [0.8, 0.2]])
        out = greedy_decode(grid, vocab_of(2))
        assert len(out) == 0

    def test_vocab_size_mismatch(self):
        grid = make_grid([[0.5, 0.5]])
        with pytest.raises(ValueError):
            greedy_decode(grid, vocab_of(3))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        grid = random_grid(rng, 40, 4)
        a = greedy_decode(grid, vocab_of(4))
        b = greedy_decode(grid, vocab_of(4))
        assert a.ids.tolist() == b.ids.tolist()
        assert a.score == b.score


def _normalised(weights):
    probs = np.asarray(weights, dtype=np.float64)
    return probs / probs.sum(axis=1, keepdims=True)


@st.composite
def tied_grids(draw):
    """(probs, blank_index): rows of small integer weights, normalised, so
    equal weights within a row are exact ties."""
    v = draw(st.integers(1, 5))
    row = st.lists(st.integers(0, 3), min_size=v, max_size=v).filter(any)
    rows = draw(st.lists(row, min_size=1, max_size=30))
    return _normalised(rows), draw(st.integers(0, v - 1))


# (weights, blank_index); each row's argmax is the lowest label of maximal weight
GREEDY_CASES = {
    "single-frame": ([[1, 3]], 0),
    "all-blank": ([[3, 1], [2, 1], [5, 4]], 0),
    "alternating": ([[0, 2, 1], [0, 1, 2]] * 4, 0),
    "ties": ([[1, 1, 1], [0, 1, 1], [1, 1, 0], [2, 2, 2]], 0),
    "blank-not-zero": ([[0, 0, 1], [0, 1, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0]], 2),
    "alternating-blank-not-zero": ([[0, 1], [1, 0]] * 5, 1),
}


class TestGreedyAgainstReference:
    """greedy_decode equals the keep-mask collapse and the score read
    from the whole floored log grid, exactly: the same cells are summed
    in the same order."""

    @staticmethod
    def assert_matches(probs, blank):
        got = greedy_decode(PosteriorGrid(probs), vocab_of(probs.shape[1], blank))
        want_ids, want_score = ref.greedy_decode(probs, blank)
        assert got.ids.tolist() == want_ids.tolist()
        assert got.score == want_score

    @pytest.mark.parametrize("weights, blank", GREEDY_CASES.values(), ids=GREEDY_CASES)
    def test_named_cases(self, weights, blank):
        self.assert_matches(_normalised(weights), blank)

    @settings(deadline=None, max_examples=200)
    @given(case=tied_grids())
    def test_tied_grids(self, case):
        self.assert_matches(*case)

    @settings(deadline=None, max_examples=100)
    @given(
        t=st.integers(1, 40),
        v=st.integers(1, 6),
        seed=st.integers(0, 2**31),
        data=st.data(),
    )
    def test_random_grids(self, t, v, seed, data):
        probs = np.random.default_rng(seed).dirichlet(np.full(v, 0.3), size=t)
        self.assert_matches(probs, data.draw(st.integers(0, v - 1)))


class TestForwardScoring:
    def test_single_frame_single_alignment(self):
        grid = make_grid([[0.4, 0.6]])
        lp = ctc_forward_logprob(grid, LabelSequence([1]), vocab_of(2))
        assert lp == pytest.approx(math.log(0.6), abs=1e-12)

    def test_two_frame_closed_form(self):
        grid = make_grid([[0.3, 0.7], [0.6, 0.4]])
        # alignments for [a]: (a,a), (_,a), (a,_)
        expect = math.log(0.7 * 0.4 + 0.3 * 0.4 + 0.7 * 0.6)
        lp = ctc_forward_logprob(grid, LabelSequence([1]), vocab_of(2))
        assert lp == pytest.approx(expect, abs=1e-12)

    def test_three_frame_hand_enumeration(self):
        # V=2 over 8 raw paths; those collapsing to [a] are
        # aaa, aa_, a__, _aa, _a_, __a
        pa = np.array([0.7, 0.6, 0.2])
        pb = 1.0 - pa
        grid = make_grid(np.stack([pb, pa], axis=1))
        expect = (
            pa[0] * pa[1] * pa[2]
            + pa[0] * pa[1] * pb[2]
            + pa[0] * pb[1] * pb[2]
            + pb[0] * pa[1] * pa[2]
            + pb[0] * pa[1] * pb[2]
            + pb[0] * pb[1] * pa[2]
        )
        target = LabelSequence([1])
        vocab = vocab_of(2)
        assert enumerate_alignments_logprob(grid, target, vocab) == pytest.approx(
            math.log(expect), abs=1e-12
        )
        assert ctc_forward_logprob(grid, target, vocab) == pytest.approx(
            math.log(expect), abs=1e-9
        )

    def test_empty_target_scores_all_blank_paths(self):
        rng = np.random.default_rng(2)
        grid = random_grid(rng, 6, 3)
        lp = ctc_forward_logprob(grid, LabelSequence([]), vocab_of(3))
        assert lp == pytest.approx(np.log(grid.probs[:, 0]).sum(), abs=1e-9)

    def test_infeasible_target_is_neg_inf(self):
        grid = make_grid([[0.5, 0.5], [0.5, 0.5]])
        vocab = vocab_of(2)
        assert ctc_forward_logprob(grid, LabelSequence([1, 1]), vocab) == -np.inf
        assert (
            ctc_forward_logprob(make_grid([[0.5, 0.5]]), LabelSequence([1, 1]), vocab)
            == -np.inf
        )

    def test_blank_in_target_rejected(self):
        grid = make_grid([[0.5, 0.5]])
        with pytest.raises(ValueError):
            ctc_forward_logprob(grid, LabelSequence([0]), vocab_of(2))

    def test_out_of_range_target_rejected(self):
        grid = make_grid([[0.5, 0.5]])
        with pytest.raises(ValueError):
            ctc_forward_logprob(grid, LabelSequence([2]), vocab_of(2))

    def test_projected_grid_scores_as_validated_grid(self):
        # project_softmax skips the public constructor's checks and
        # computes log_probs lazily; CTC scoring must not notice either
        rng = np.random.default_rng(8)
        for _ in range(20):
            t, v, d = int(rng.integers(1, 12)), int(rng.integers(2, 6)), 3
            seq = LatentSequence(rng.normal(size=(t, d)).astype(np.float32) * 3)
            grid = project_softmax(seq, ProjectionMatrix(rng.normal(size=(v, d))))
            target = LabelSequence(rng.integers(1, v, size=int(rng.integers(0, 4))))
            vocab = vocab_of(v)
            assert ctc_forward_logprob(grid, target, vocab) == ctc_forward_logprob(
                PosteriorGrid(grid.probs), target, vocab
            )

    def test_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(21)
        for _ in range(120):
            t = int(rng.integers(1, 9))
            v = int(rng.integers(2, 5))
            length = int(rng.integers(0, 4))
            grid = random_grid(rng, t, v)
            target = LabelSequence(rng.integers(1, v, size=length))
            vocab = vocab_of(v)
            brute = enumerate_alignments_logprob(grid, target, vocab)
            fast = ctc_forward_logprob(grid, target, vocab)
            if brute == -np.inf:
                assert fast == -np.inf
            else:
                assert fast == pytest.approx(brute, abs=1e-6)

    def test_raising_target_label_mass_never_hurts(self):
        # Spot property on instance families where monotonicity is provable
        # for a single-label target: any frame of a 2-frame grid, or the
        # middle frame of a 3-frame grid. (It is NOT true in general: mass
        # moved toward the target label at an edge frame can starve blank
        # paths that dominate when the label is far likelier elsewhere.)
        rng = np.random.default_rng(33)
        for _ in range(60):
            t = int(rng.integers(2, 4))
            v = int(rng.integers(2, 5))
            grid = random_grid(rng, t, v)
            target = LabelSequence([int(rng.integers(1, v))])
            vocab = vocab_of(v)
            base = ctc_forward_logprob(grid, target, vocab)
            frame = int(rng.integers(2)) if t == 2 else 1
            probs = grid.probs.copy()
            lab = int(target.ids[0])
            p = probs[frame, lab]
            boost = 0.5 * (1.0 - p)
            probs[frame] *= (1.0 - p - boost) / (1.0 - p)
            probs[frame, lab] = p + boost
            bumped = ctc_forward_logprob(PosteriorGrid(probs), target, vocab)
            assert bumped >= base - 1e-9


class TestEnumerationOracle:
    def test_single_frame_is_row_lookup(self):
        grid = make_grid([[0.25, 0.75]])
        vocab = vocab_of(2)
        assert enumerate_alignments_logprob(grid, LabelSequence([1]), vocab) == pytest.approx(
            math.log(0.75)
        )
        assert enumerate_alignments_logprob(grid, LabelSequence([]), vocab) == pytest.approx(
            math.log(0.25)
        )

    def test_size_guard(self):
        vocab = vocab_of(3)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="too large"):
            enumerate_alignments_logprob(
                random_grid(rng, 11, 3), LabelSequence([1]), vocab
            )
        with pytest.raises(ValueError, match="too large"):
            enumerate_alignments_logprob(
                random_grid(rng, 4, 6), LabelSequence([1]), vocab_of(6)
            )

    def test_impossible_target_is_neg_inf(self):
        grid = make_grid([[0.5, 0.5]])
        assert (
            enumerate_alignments_logprob(grid, LabelSequence([1, 1]), vocab_of(2))
            == -np.inf
        )


class TestLabelSequence:
    def test_rejects_negative_ids(self):
        with pytest.raises(ValueError):
            LabelSequence([-1])

    def test_len(self):
        assert len(LabelSequence([3, 4])) == 2
