"""CTC best-path decoding and forward scoring, with an exhaustive oracle.

greedy_decode is the no-beam realization of argmax decoding: take the
per-frame argmax path, collapse consecutive repeats, delete blanks.
Argmax and run-length encoder are ``seqcore``'s, shared with ``cts``.
ctc_forward_logprob sums over all alignments with the forward recursion,
handing ``_kernels.ctc_forward_ll`` the floored logs of only the blank's
and the target labels' columns; enumerate_alignments_logprob
brute-forces the same quantity on instances small enough to enumerate
and exists purely to cross-check it.
Both check their inputs alike: the grid's width must be the vocabulary
size (``_check_vocab``) and the target a transcript of the vocabulary,
its ids labels and none the blank (``Vocabulary.check_transcript``); a
target that passes and that no alignment fits scores -inf in both.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .seqcore import (
    PosteriorGrid,
    Vocabulary,
    _argmax_path,
    _as_int,
    _floored_log,
    _label_ids,
    segment_path,
)

ENUM_MAX_FRAMES = 10
ENUM_MAX_LABELS = 5


@dataclass
class LabelSequence:
    """Collapsed decode output: non-blank label ids plus an optional score."""

    ids: np.ndarray
    score: float | None = None

    def __post_init__(self):
        self.ids = np.ascontiguousarray(_label_ids(self.ids))
        if self.ids.size and self.ids.min() < 0:
            raise ValueError("ids must be non-negative")

    def __len__(self):
        return self.ids.shape[0]


def collapse_path(arg_labels, blank_index: int) -> np.ndarray:
    """Collapse consecutive repeats, then delete blanks."""
    labels = _label_ids(arg_labels)
    blank_index = _as_int("blank_index", blank_index, 0)
    if labels.size == 0:
        return labels
    runs = labels[segment_path(labels)[:-1]]
    return runs[runs != blank_index]


def _check_vocab(grid: PosteriorGrid, vocab: Vocabulary):
    if vocab.size != grid.num_labels:
        raise ValueError(f"vocabulary size {vocab.size} does not match grid V={grid.num_labels}")


def greedy_decode(grid: PosteriorGrid, vocab: Vocabulary) -> LabelSequence:
    """Best-path decode; score is the summed floored log of the per-frame maxima."""
    _check_vocab(grid, vocab)
    labels, scores = _argmax_path(grid.probs)
    score = float(_floored_log(scores).sum())
    return LabelSequence(collapse_path(labels, vocab.blank_index), score)


def ctc_forward_logprob(
    grid: PosteriorGrid, target: LabelSequence, vocab: Vocabulary
) -> float:
    """log P(target | grid) summed over all CTC alignments.

    A target that no alignment fits returns -inf rather than raising; the
    kernel, ``_kernels.ctc_forward_ll``, states when that is. An empty
    target scores the all-blank path set.
    """
    _check_vocab(grid, vocab)
    vocab.check_transcript(target.ids)
    rows = np.concatenate(([vocab.blank_index], target.ids))
    return float(_kernels.ctc_forward_ll(_floored_log(grid.probs.T[rows]), target.ids))


def enumerate_alignments_logprob(
    grid: PosteriorGrid, target: LabelSequence, vocab: Vocabulary
) -> float:
    """Brute-force oracle: enumerate every V^T frame path, keep those that
    collapse to the target, and sum their probabilities in float64."""
    _check_vocab(grid, vocab)
    vocab.check_transcript(target.ids)
    t, v = grid.probs.shape
    if t > ENUM_MAX_FRAMES or v > ENUM_MAX_LABELS:
        raise ValueError(
            f"instance too large to enumerate: T={t} (max {ENUM_MAX_FRAMES}), "
            f"V={v} (max {ENUM_MAX_LABELS})"
        )
    want = tuple(int(i) for i in target.ids)
    blank = vocab.blank_index
    rows = grid.probs
    total = 0.0
    for path in itertools.product(range(v), repeat=t):
        if tuple(lab for lab, _ in itertools.groupby(path) if lab != blank) != want:
            continue
        p = 1.0
        for i, lab in enumerate(path):
            p *= rows[i, lab]
        total += p
    return math.log(total) if total > 0.0 else float("-inf")
