"""Connectionist temporal summarization: one representative frame per
contiguous same-argmax segment.

The pipeline is segment -> select: maximal runs of equal per-frame argmax
labels become segments, and each segment is represented by its
highest-scoring frame, copied bit-for-bit from the source sequence. No
vector is ever synthesized, which is what makes the shortening behave like
an argmax-selection analogue of max-pooling over time.

A summary's segment table is five parallel length-S arrays (``starts``,
``ends``, ``labels``, ``rep_frames``, ``rep_scores``), the columns of the
``.sseq`` record layout, and ``summarize`` is one vectorised pass over the
frames: softmax, argmax, run boundaries from one ``nonzero``, then
each run's representative from one stable sort of the frames by
(segment, -score), whose first entry per segment is the earliest frame of
maximal score, then one gather of the representative vectors. No
per-segment object is built on that path or by the ``.sseq`` reader and
writer.

``Segment`` is the per-record form at the edge: ``SummarizedSequence``
also accepts a list of them, and ``.segments`` derives one per row on
demand. The benchmark under ``perfbench/`` builds and reads summaries in
that form, which is why it stays; so do the ``project_softmax`` and
``frame_argmax`` re-imports, which it patches on this module, and the
name ``segment_path``: the encoder lives in ``seqcore``, shared with CTC
best-path decoding, and ``summarize`` looks it up among this module's
globals, so the benchmark's patch traces summarize's calls alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seqcore import (
    FormatError,
    LatentSequence,
    ProjectionMatrix,
    _argmax_path,
    _as_int,
    _as_real,
    _as_reals,
    _frame_shift,
    _label_ids,
    _parse,
    _read_header,
    _read_payload,
    _require_finite,
    _softmax_probs,
    _writable,
    _write_container,
    frame_argmax,  # noqa: F401  perfbench traces these two on this module
    project_softmax,  # noqa: F401
    segment_path,
)

SSEQ_MAGIC = b"CTSS"


@dataclass
class Segment:
    """A maximal run [start, end) of frames sharing one argmax label.

    rep_frame/rep_score stay unset (-1 / nan) until a representative is
    selected, which a ``SummarizedSequence`` requires.
    """

    start: int
    end: int
    label: int
    rep_frame: int = -1
    rep_score: float = np.nan

    def __post_init__(self):
        self.start = _as_int("start", self.start, 0)
        self.end = _as_int("end", self.end)
        self.label = _as_int("label", self.label, 0)
        self.rep_frame = _as_int("rep_frame", self.rep_frame)
        self.rep_score = _as_real("rep_score", self.rep_score)  # NaN, the unset default, stays
        if self.end <= self.start:
            raise ValueError(f"bad segment span [{self.start}, {self.end})")
        if self.rep_frame != -1 and not self.start <= self.rep_frame < self.end:
            raise ValueError("rep_frame must lie inside the segment span")

    @property
    def length(self):
        return self.end - self.start


class SummarizedSequence:
    """S x D representative vectors plus the segment table they came from.

    ``table`` is five length-S arrays ``(starts, ends, labels,
    rep_frames, rep_scores)``, or a list of ``Segment`` records, each with
    its representative selected. ``_check`` holds every rule of the type:
    construction runs it, as ``read_sseq`` constructs, and ``write_sseq``
    runs it again. ``summarize`` builds its summary through ``_of_table``
    without re-running it, as ``project_softmax`` builds its grid.

    Unlike the frozen inputs (``LatentSequence``, ``ProjectionMatrix``),
    a summary stays mutable: the benchmark under ``perfbench/`` writes into
    a served summary's vectors to check that its checks catch it, which is
    also why ``write_sseq`` runs ``_check`` again.
    """

    def __init__(self, vectors, table, source_T: int, frame_shift_ms: float = 10.0):
        if not isinstance(table, tuple):
            rows = [(g.start, g.end, g.label, g.rep_frame, g.rep_score) for g in table]
            table = tuple(zip(*rows)) if rows else ((),) * 5
        starts, ends, labels, reps, scores = table
        self.vectors = _as_reals("vectors", vectors, np.float32)
        self.starts = _label_ids(starts, "starts")
        self.ends = _label_ids(ends, "ends")
        self.labels = _label_ids(labels, "labels")
        self.rep_frames = _label_ids(reps, "rep_frames")
        self.rep_scores = _as_reals("rep_scores", scores, np.float64)
        self.source_T = _as_int("source_T", source_T)
        self.frame_shift_ms = _frame_shift(frame_shift_ms)
        self._check()

    @classmethod
    def _of_table(cls, vectors, table, source_T: int, frame_shift_ms) -> SummarizedSequence:
        """Wrap what ``summarize`` derives, which holds ``_check``'s rules
        by construction: int64 columns from ``nonzero``, ``argmax`` and
        ``lexsort``, float64 softmax scores in [0, 1], a float32 ``take``
        of the frames, and the shift, both from a frozen
        ``LatentSequence`` that checked them when it was built."""
        summ = cls.__new__(cls)
        summ.vectors = vectors
        summ.starts, summ.ends, summ.labels, summ.rep_frames, summ.rep_scores = table
        summ.source_T = source_T
        summ.frame_shift_ms = frame_shift_ms
        return summ

    def _check(self):
        """Raise ``ValueError`` unless the summary holds its invariants."""
        _frame_shift(self.frame_shift_ms)
        if self.vectors.ndim != 2 or self.vectors.shape[1] < 1:
            raise ValueError(f"vectors must be (S, D>=1), got {self.vectors.shape}")
        _require_finite("vectors", self.vectors)
        starts, ends, labels, reps, scores = self.table
        s = self.vectors.shape[0]
        if not starts.shape == ends.shape == labels.shape == reps.shape == scores.shape == (s,):
            raise ValueError("vectors and segments must have equal length")
        if s > self.source_T:
            raise ValueError("cannot have more segments than source frames")
        # count_nonzero is the cheapest "any" on the few-row tables summarize makes;
        # (starts | labels) < 0 where either one is, start <= rep < end implies
        # start < end, and clipping changes a score outside [0, 1] or NaN
        bad = ((starts | labels) < 0) | (reps < starts) | (reps >= ends)
        if np.count_nonzero(bad | (scores.clip(0.0, 1.0) != scores)):
            raise ValueError("every segment needs 0 <= start <= rep_frame < end, label >= 0 "
                             "and rep_score in [0, 1]")
        if s and (ends[-1] > self.source_T or np.count_nonzero(starts[1:] < ends[:-1])):
            raise ValueError(f"segments must be in order, disjoint and end by source_T={self.source_T}")

    @property
    def table(self) -> tuple[np.ndarray, ...]:
        """``(starts, ends, labels, rep_frames, rep_scores)``, in ``.sseq``
        record order."""
        return self.starts, self.ends, self.labels, self.rep_frames, self.rep_scores

    @property
    def num_segments(self):
        return self.starts.shape[0]

    @property
    def segments(self) -> list[Segment]:
        """The table as ``Segment`` records, built afresh on each access."""
        return [Segment(*row) for row in zip(*(col.tolist() for col in self.table))]

    def to_latent(self) -> LatentSequence:
        """Copy the representatives into a frozen frame sequence, e.g. for
        re-decoding."""
        return LatentSequence(self.vectors, self.frame_shift_ms)


def select_representatives(bounds: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Each segment's maximal-score frame, the earliest on ties.

    ``bounds`` must be integers rising strictly from 0 to len(scores), as
    from ``segment_path``, and the scores finite. A stable sort of the
    frames by (segment, -score) puts each segment's representative first
    among its frames, at the position of the segment's start.
    """
    bounds = _label_ids(bounds, "segment bounds")
    scores = _as_reals("scores", scores, np.float64)
    _require_finite("scores", scores)
    lengths = bounds[1:] - bounds[:-1]
    if (
        bounds.size < 2
        or bounds[0] != 0
        or bounds[-1] != scores.size
        or np.count_nonzero(lengths <= 0)
    ):
        raise ValueError("segment bounds must rise strictly from 0 to T")
    segment_of = np.arange(lengths.size).repeat(lengths)
    return np.lexsort((-scores, segment_of))[bounds[:-1]]


def summarize(
    seq: LatentSequence,
    proj: ProjectionMatrix,
    *,
    drop_blank_segments: bool = False,
    blank_index: int = 0,
) -> SummarizedSequence:
    """Full shortening: project, argmax, segment, select.

    The probabilities go straight to the argmax (the lowest label wins
    ties) without building a ``PosteriorGrid`` or ``FramePath``.

    drop_blank_segments removes blank-labeled segments afterwards (ablation
    only; the summary then no longer tiles the source and greedy decodes
    are no longer guaranteed to be preserved).
    """
    blank_index = _as_int("blank_index", blank_index, 0, proj.num_labels)
    probs = _softmax_probs(seq, proj)
    path, scores = _argmax_path(probs)
    bounds = segment_path(path)
    reps = select_representatives(bounds, scores)
    starts, ends = bounds[:-1], bounds[1:]
    labels = path[starts]
    if drop_blank_segments:
        keep = labels != blank_index
        starts, ends, labels, reps = starts[keep], ends[keep], labels[keep], reps[keep]
    table = (starts, ends, labels, reps, scores[reps])
    vectors = seq.frames.take(reps, axis=0)
    return SummarizedSequence._of_table(vectors, table, seq.num_frames, seq.frame_shift_ms)


# ---------------------------------------------------------------------------
# .sseq payload (the container is described in ``seqcore``): f32[S*D]
# vectors, then S records of (u32 start, u32 end, u32 label, u32 rep_frame,
# f32 rep_score).
#
# source_T is recovered as the maximal segment end, which is exact whenever
# no segments were dropped.
# ---------------------------------------------------------------------------

_SEG_RECORD = np.dtype(
    [
        ("start", "<u4"),
        ("end", "<u4"),
        ("label", "<u4"),
        ("rep_frame", "<u4"),
        ("rep_score", "<f4"),
    ]
)
_U32_MAX = np.iinfo(np.uint32).max


def _check_writable(summ: SummarizedSequence):
    """The summary's own rules, plus what the ``.sseq`` records can hold."""
    summ._check()
    if summ.num_segments == 0:
        raise ValueError("refusing to write an empty summary")
    if summ.ends.max() > _U32_MAX or summ.labels.max() > _U32_MAX:
        raise ValueError("segment ends and labels must fit in 32 bits")


def write_sseq(path, summ: SummarizedSequence):
    _writable(path, _check_writable, summ)
    s, d = summ.vectors.shape
    table = np.empty(s, dtype=_SEG_RECORD)
    for name, col in zip(_SEG_RECORD.names, summ.table):
        table[name] = col
    header = (s, d, summ.frame_shift_ms)
    _write_container(path, SSEQ_MAGIC, "IIf", header, summ.vectors, table.tobytes())


def read_sseq(path) -> SummarizedSequence:
    with open(path, "rb") as fh:
        s, d, shift = _read_header(fh, SSEQ_MAGIC, path)
        if s == 0:
            raise FormatError(f"{path}: summary has no segments")
        payload = _read_payload(fh, path, (4 * d + _SEG_RECORD.itemsize) * s)
    vectors = np.frombuffer(payload, "<f4", s * d).reshape(s, d)
    table = np.frombuffer(payload, _SEG_RECORD, offset=4 * s * d)
    columns = tuple(table[name] for name in _SEG_RECORD.names)
    return _parse(path, "summary", SummarizedSequence, vectors, columns, table["end"].max(), shift)
