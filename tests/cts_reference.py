"""Per-segment reference for connectionist temporal summarization.

One ``Segment`` record per run and one ``np.argmax`` per segment:
``ctsum.cts.summarize`` finds the same runs and representatives in one
vectorised pass over parallel arrays and is checked against this.
"""

from dataclasses import replace

import numpy as np

from ctsum.cts import Segment, SummarizedSequence
from ctsum.seqcore import FramePath, LatentSequence, frame_argmax, project_softmax


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


def summarize(seq, proj, *, drop_blank_segments=False, blank_index=0) -> SummarizedSequence:
    """Project, argmax, segment, select, then optionally drop the
    blank-labeled segments."""
    path = frame_argmax(project_softmax(seq, proj))
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
