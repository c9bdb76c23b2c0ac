"""Output checks. Each returns a list of problems; empty means correct.

Expected values come from ``reference`` or from properties the method
must have, never from stored program output.
"""

from __future__ import annotations

import numpy as np

import reference as ref

# Both sides compute in float64 and differ only in summation order, so
# agreement is near machine precision; these bounds leave ~1e5 ulps.
PROB_TOL = 1e-10
SCORE_TOL = 1e-12
CTC_TOL = 1e-9
GRAD_TOL = 1e-4
# Held-out accuracy must beat chance (1/num_intents) by this much.
ACCURACY_MARGIN = 0.15


class Expected:
    """Reference decode and summary of one source utterance."""

    def __init__(self, frames, weights, bias, blank):
        self.frames = frames
        self.weights, self.bias, self.blank = weights, bias, blank
        self._ctc = {}
        post = ref.frame_posteriors(frames, weights, bias)
        labels = np.argmax(post, axis=1)
        self.scores = post[np.arange(labels.size), labels]
        self.log_post = np.log(post)
        self.decode = ref.collapse(labels, blank)
        self.starts, self.ends, self.labels = ref.runs(labels)
        self.reps = np.asarray(
            [
                s + int(np.flatnonzero(self.scores[s:e] >= self.scores[s:e].max() - SCORE_TOL)[0])
                for s, e in zip(self.starts, self.ends)
            ],
            dtype=np.int64,
        )

    @property
    def summary_vectors(self):
        return self.frames[self.reps]

    def ctc(self, target) -> float:
        key = tuple(target.tolist())
        if key not in self._ctc:
            self._ctc[key] = ref.ctc_logprob(self.log_post, target, self.blank)
        return self._ctc[key]


def check_probs(probs, pred, expected) -> list[str]:
    probs = np.asarray(probs)
    if probs.shape != expected.shape or not np.all(np.abs(probs - expected) <= PROB_TOL):
        return ["probabilities differ from the reference BiGRU"]
    if pred != int(np.argmax(probs)):
        return ["prediction is not the argmax of its probabilities"]
    return []


def check_decode(ids, exp: Expected) -> list[str]:
    if not np.array_equal(np.asarray(ids), exp.decode):
        return ["decode differs from the reference argmax-collapse"]
    return []


def check_summary(summ, exp: Expected, weights, bias) -> list[str]:
    """Segments are the maximal argmax runs; each representative is the
    earliest maximal-score frame of its run, copied bit for bit; S <= 2L+1;
    the summary decodes like its source."""
    segs = summ.segments
    got = np.asarray([(s.start, s.end, s.label, s.rep_frame) for s in segs], dtype=np.int64)
    want = np.stack((exp.starts, exp.ends, exp.labels, exp.reps), axis=1)
    problems = []
    if got.shape != want.shape or not np.array_equal(got, want):
        problems.append("segments or representatives differ from the reference")
    elif summ.vectors.tobytes() != exp.summary_vectors.tobytes():
        problems.append("a representative is not bit-identical to its source frame")
    if summ.source_T != exp.frames.shape[0]:
        problems.append("source_T differs from the source length")
    if len(segs) > 2 * exp.decode.size + 1:
        problems.append("more than 2L+1 segments")
    if not np.array_equal(ref.decode(summ.vectors, weights, bias, exp.blank), exp.decode):
        problems.append("summary decodes differently from its source")
    return problems


def check_ctc(logprob, exp: Expected, target, decoded) -> list[str]:
    """Forward score against the reference recursion; it is a log
    probability, and at least the best path when that path is the target."""
    target = np.asarray(target, dtype=np.int64)
    want = exp.ctc(target)
    problems = []
    if not abs(logprob - want) <= CTC_TOL * max(1.0, abs(want)):
        problems.append(f"CTC log-probability {logprob!r} differs from reference {want!r}")
    if not logprob <= 0.0:
        problems.append("CTC log-probability is positive")
    if np.array_equal(np.asarray(decoded), target):
        best = float(exp.log_post.max(axis=1).sum())
        if not logprob >= best - CTC_TOL * max(1.0, abs(best)):
            problems.append("CTC log-probability is below the best-path log-probability")
    return problems


def check_sseq_roundtrip(summ, back, source_t) -> list[str]:
    fields = lambda s: [(g.start, g.end, g.label, g.rep_frame) for g in s.segments]
    scores = lambda s: np.asarray([g.rep_score for g in s.segments], dtype=np.float32)
    if (
        back.vectors.shape != summ.vectors.shape
        or back.vectors.tobytes() != summ.vectors.tobytes()
        or fields(back) != fields(summ)
        or scores(back).tobytes() != scores(summ).tobytes()
        or back.frame_shift_ms != np.float32(summ.frame_shift_ms)
    ):
        return [".sseq round trip is not bit-identical"]
    if back.source_T != source_t:
        return [f".sseq round trip gives source_T {back.source_T}, expected {source_t}"]
    return []


def check_same_frames(seq, frames, frame_shift_ms) -> list[str]:
    if seq.frames.shape != frames.shape or seq.frames.tobytes() != frames.tobytes():
        return ["read_lseq frames differ from the in-memory corpus"]
    if seq.frame_shift_ms != frame_shift_ms:
        return ["read_lseq frame shift differs from the in-memory corpus"]
    return []


def check_losses(model, epochs) -> list[str]:
    losses = model.train_losses
    if len(losses) != epochs or not np.all(np.isfinite(losses)):
        return [f"expected {epochs} finite epoch losses, got {losses}"]
    return []


def check_training(model, epochs, accuracy, num_intents, grad_error) -> list[str]:
    """Whole-fold training: losses fall, held-out accuracy beats chance,
    and the analytic gradients agree with finite differences."""
    losses = model.train_losses
    problems = check_losses(model, epochs)
    if not problems and not losses[-1] < losses[0]:
        problems.append(f"last-epoch loss {losses[-1]} is not below the first {losses[0]}")
    if not accuracy > 1.0 / num_intents + ACCURACY_MARGIN:
        problems.append(f"held-out accuracy {accuracy:.3f} does not beat chance by {ACCURACY_MARGIN}")
    if not grad_error < GRAD_TOL:
        problems.append(f"gradient check error {grad_error:.2e} is not below {GRAD_TOL}")
    return problems
