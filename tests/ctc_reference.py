"""References for CTC best-path decoding and the forward kernel.

``collapse_path`` and ``greedy_decode`` decode the best path without
``seqcore``'s run-length encoder: a keep-mask of the frames whose label
differs from the previous one, and a score read from the whole floored
log grid. ``ctsum.ctc`` must match them exactly.

The forward recursion is a double loop over frames and the states of
the expanded target (``expanded_target``), one two-term log-sum-exp at
a time: ``ctsum._kernels.ctc_forward_ll`` solves the same recursion
with two running scans per target label and is checked against this.
"""

import numpy as np

from ctsum.seqcore import PROB_FLOOR

NEG_INF = -np.inf


def collapse_path(arg_labels, blank_index):
    """Collapse consecutive repeats, then delete blanks."""
    labels = np.asarray(arg_labels, dtype=np.int64)
    if labels.size == 0:
        return labels
    keep = np.concatenate(([True], labels[1:] != labels[:-1]))
    runs = labels[keep]
    return runs[runs != blank_index]


def greedy_decode(probs, blank_index):
    """(ids, score) of the best path through a (T, V) posterior grid:
    the per-frame argmax collapsed, and the sum of its floored logs."""
    log_probs = np.log(np.maximum(probs, PROB_FLOOR))
    path = np.argmax(probs, axis=1)
    score = float(log_probs[np.arange(probs.shape[0]), path].sum())
    return collapse_path(path, blank_index), score


def expanded_target(ids, blank_index):
    """The target interleaved with blanks, blanks at even slots: (2L+1,)."""
    ext = np.full(2 * len(ids) + 1, blank_index, dtype=np.int64)
    ext[1::2] = ids
    return ext


def _logaddexp2(a, b):
    # two-term log-sum-exp; tolerates -inf on either side
    if a < b:
        a, b = b, a
    if b == NEG_INF:
        return a
    return a + np.log1p(np.exp(b - a))


def ctc_forward_ll_py(log_probs, ext):
    """Total log-probability of all alignments of an expanded CTC target.

    log_probs : (T, V) per-frame label log-posteriors
    ext       : (2L+1,) target interleaved with blanks, blanks at even slots

    Standard forward recursion over the expanded target, log domain. The
    skip transition s-2 -> s is allowed only between distinct non-blank
    labels, which is equivalent to ext[s] != ext[s-2] since even slots all
    hold the blank.
    """
    T = log_probs.shape[0]
    S = ext.shape[0]
    alpha = np.full(S, NEG_INF)
    alpha[0] = log_probs[0, ext[0]]
    if S > 1:
        alpha[1] = log_probs[0, ext[1]]
    for t in range(1, T):
        for s in range(S - 1, -1, -1):
            a = alpha[s]
            if s >= 1:
                a = _logaddexp2(a, alpha[s - 1])
            if s >= 2 and ext[s] != ext[s - 2]:
                a = _logaddexp2(a, alpha[s - 2])
            alpha[s] = a + log_probs[t, ext[s]]
    if S > 1:
        return _logaddexp2(alpha[S - 1], alpha[S - 2])
    return alpha[0]
