"""Connectionist temporal summarization: one representative frame per
contiguous same-argmax segment.

The pipeline is segment -> select: maximal runs of equal per-frame argmax
labels become segments, and each segment is represented by its
highest-scoring frame, copied bit-for-bit from the source sequence. No
vector is ever synthesized, which is what makes the shortening behave like
an argmax-selection analogue of max-pooling over time.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .ctc import LabelSequence
from .seqcore import (
    FORMAT_VERSION,
    FormatError,
    FramePath,
    LatentSequence,
    ProjectionMatrix,
    _argmax_path,
    _read_exact,
    _require_finite,
    _require_size,
    _softmax_probs,
    frame_argmax,  # noqa: F401  perfbench traces these two on this module
    project_softmax,  # noqa: F401
)

SSEQ_MAGIC = b"CTSS"


@dataclass
class Segment:
    """A maximal run [start, end) of frames sharing one argmax label.

    rep_frame/rep_score stay unset (-1 / nan) until a representative is
    selected.
    """

    start: int
    end: int
    label: int
    rep_frame: int = -1
    rep_score: float = math.nan

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise ValueError(f"bad segment span [{self.start}, {self.end})")
        if self.label < 0:
            raise ValueError("segment label must be non-negative")
        if self.rep_frame != -1 and not self.start <= self.rep_frame < self.end:
            raise ValueError("rep_frame must lie inside the segment span")

    @property
    def length(self):
        return self.end - self.start


@dataclass
class SummarizedSequence:
    """S x D representative vectors plus the segments they were taken from."""

    vectors: np.ndarray
    segments: list[Segment]
    source_T: int
    frame_shift_ms: float = 10.0

    def __post_init__(self):
        self.vectors = np.ascontiguousarray(self.vectors, dtype=np.float32)
        if self.vectors.ndim != 2:
            raise ValueError("vectors must be 2-d")
        if self.vectors.shape[0] != len(self.segments):
            raise ValueError("vectors and segments must have equal length")
        if len(self.segments) > self.source_T:
            raise ValueError("cannot have more segments than source frames")
        self.frame_shift_ms = float(self.frame_shift_ms)
        if not (math.isfinite(self.frame_shift_ms) and self.frame_shift_ms > 0):
            raise ValueError(f"frame_shift_ms must be positive, got {self.frame_shift_ms}")

    @property
    def num_segments(self):
        return len(self.segments)

    def to_latent(self) -> LatentSequence:
        """View the representatives as a frame sequence, e.g. for re-decoding."""
        return LatentSequence(self.vectors, self.frame_shift_ms)


@dataclass
class CompressionStats:
    ratio: float
    segments_per_label: float
    empty_decode: bool = False


def segment_path(path: FramePath) -> list[Segment]:
    """Run-length encode the argmax path into ordered, tiling segments."""
    labels = path.arg_labels
    if labels.size == 0:
        raise ValueError("cannot segment an empty path")
    change = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [labels.size]))
    return [
        Segment(int(s), int(e), int(labels[s])) for s, e in zip(starts, ends)
    ]


def select_representatives(
    segments: list[Segment], path: FramePath, seq: LatentSequence
) -> SummarizedSequence:
    """Pick each segment's maximal-score frame (earliest on ties) and copy
    its vector unchanged."""
    t = seq.num_frames
    if path.num_frames != t:
        raise ValueError(
            f"path length {path.num_frames} does not match sequence T={t}"
        )
    if not segments:
        raise ValueError("no segments given")
    pos = 0
    for seg in segments:
        if seg.start != pos or seg.end > t:
            raise ValueError("segments must tile [0, T) in order without gaps")
        pos = seg.end
    if pos != t:
        raise ValueError("segments must cover all frames")
    scores = path.arg_scores
    chosen = []
    for seg in segments:
        rep = seg.start + int(np.argmax(scores[seg.start : seg.end]))
        chosen.append(replace(seg, rep_frame=rep, rep_score=float(scores[rep])))
    vectors = seq.frames[[seg.rep_frame for seg in chosen]].copy()
    return SummarizedSequence(vectors, chosen, t, seq.frame_shift_ms)


def summarize(
    seq: LatentSequence,
    proj: ProjectionMatrix,
    *,
    drop_blank_segments: bool = False,
    blank_index: int = 0,
) -> SummarizedSequence:
    """Full shortening: project, argmax, segment, select.

    Equal to select_representatives(segment_path(path), path, seq) with
    path = frame_argmax(project_softmax(seq, proj)); the probabilities
    go straight to the argmax without building a ``PosteriorGrid``.

    drop_blank_segments removes blank-labeled segments afterwards (ablation
    only; the summary then no longer tiles the source and greedy decodes
    are no longer guaranteed to be preserved).
    """
    path = _argmax_path(_softmax_probs(seq, proj))
    summ = select_representatives(segment_path(path), path, seq)
    if drop_blank_segments:
        keep = [i for i, seg in enumerate(summ.segments) if seg.label != blank_index]
        summ = SummarizedSequence(
            summ.vectors[keep],
            [summ.segments[i] for i in keep],
            summ.source_T,
            summ.frame_shift_ms,
        )
    return summ


def compression_stats(
    summ: SummarizedSequence, decoded: LabelSequence
) -> CompressionStats:
    """T/S and S/L; an empty decode is reported as S per label and flagged."""
    s = summ.num_segments
    if s == 0:
        raise ValueError("summary has no segments")
    length = len(decoded)
    if length == 0:
        return CompressionStats(summ.source_T / s, float(s), empty_decode=True)
    return CompressionStats(summ.source_T / s, s / length)


# ---------------------------------------------------------------------------
# .sseq: "CTSS" | u16 version | u32 S | u32 D | f32 frame_shift_ms |
#        f32[S*D] vectors | S records of (u32 start, u32 end, u32 label,
#        u32 rep_frame, f32 rep_score)
#
# source_T is recovered as the maximal segment end, which is exact whenever
# no segments were dropped.
# ---------------------------------------------------------------------------

_SEG_RECORD = struct.Struct("<IIIIf")


def write_sseq(path, summ: SummarizedSequence):
    if summ.num_segments == 0:
        raise ValueError("refusing to write an empty summary")
    with open(path, "wb") as fh:
        s, d = summ.vectors.shape
        fh.write(SSEQ_MAGIC)
        fh.write(struct.pack("<HIIf", FORMAT_VERSION, s, d, summ.frame_shift_ms))
        fh.write(summ.vectors.astype("<f4").tobytes())
        for seg in summ.segments:
            if seg.rep_frame < 0:
                raise ValueError("segments must have representatives selected")
            fh.write(
                _SEG_RECORD.pack(
                    seg.start, seg.end, seg.label, seg.rep_frame, seg.rep_score
                )
            )


def read_sseq(path) -> SummarizedSequence:
    with open(path, "rb") as fh:
        head = _read_exact(fh, 18, "header")
        magic, version, s, d, shift = struct.unpack("<4sHIIf", head)
        if magic != SSEQ_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {SSEQ_MAGIC!r}")
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if s == 0:
            raise FormatError(f"{path}: summary has no segments")
        _require_size(fh, path, 18 + 4 * s * d + _SEG_RECORD.size * s)
        vectors = np.frombuffer(_read_exact(fh, 4 * s * d, "vectors"), dtype="<f4")
        table = _read_exact(fh, _SEG_RECORD.size * s, "segment table")
    try:
        segments = [Segment(*record) for record in _SEG_RECORD.iter_unpack(table)]
        source_t = max(seg.end for seg in segments)
        _require_finite("vectors", vectors)
        if not all(0.0 <= seg.rep_score <= 1.0 for seg in segments):
            raise ValueError("rep_score must lie in [0, 1]")
        return SummarizedSequence(vectors.reshape(s, d), segments, source_t, shift)
    except ValueError as exc:
        raise FormatError(f"{path}: invalid summary: {exc}") from exc
