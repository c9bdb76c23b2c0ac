"""Independent float64 references the benchmark checks the program against.

Nothing here calls into ctsum's numeric code. Each function is written
from the documented maths: the frame softmax, the argmax-collapse
decoder, the log-domain CTC forward recursion, and the 3-gate BiGRU
classifier (cell equations from ``ctsum._kernels.gru_forward``'s
docstring, parameters read from the public ``LUModel`` fields).
"""

from __future__ import annotations

import numpy as np


def frame_posteriors(frames, weights, bias) -> np.ndarray:
    """Row softmax of ``frames @ weights.T + bias`` in float64."""
    logits = np.asarray(frames, np.float64) @ np.asarray(weights, np.float64).T
    logits = logits + np.asarray(bias, np.float64)
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def collapse(labels, blank: int) -> np.ndarray:
    """Merge consecutive repeats, then drop blanks."""
    out = []
    prev = None
    for lab in np.asarray(labels).tolist():
        if lab != prev and lab != blank:
            out.append(lab)
        prev = lab
    return np.asarray(out, dtype=np.int64)


def decode(frames, weights, bias, blank: int) -> np.ndarray:
    """Argmax-collapse decode of latent frames (ties to the lowest label)."""
    return collapse(np.argmax(frame_posteriors(frames, weights, bias), axis=1), blank)


def runs(labels):
    """Maximal runs of equal labels as (starts, ends, labels) arrays."""
    labels = np.asarray(labels)
    cut = [0] + [t for t in range(1, labels.size) if labels[t] != labels[t - 1]] + [labels.size]
    starts = np.asarray(cut[:-1], dtype=np.int64)
    ends = np.asarray(cut[1:], dtype=np.int64)
    return starts, ends, labels[starts].astype(np.int64)


def ctc_logprob(log_probs, target, blank: int) -> float:
    """log P(target | frames) by the forward recursion, vectorised over
    the 2L+1 states of the blank-interleaved target."""
    log_probs = np.asarray(log_probs, np.float64)
    ext = np.full(2 * len(target) + 1, blank, dtype=np.int64)
    ext[1::2] = np.asarray(target, dtype=np.int64)
    n = ext.size
    # state s may also be entered from s-2 when it holds a label that
    # differs from the label two states back
    skip = np.zeros(n, dtype=bool)
    skip[2:] = (ext[2:] != blank) & (ext[2:] != ext[:-2])
    alpha = np.full(n, -np.inf)
    alpha[: min(2, n)] = log_probs[0, ext[: min(2, n)]]
    for t in range(1, log_probs.shape[0]):
        padded = np.concatenate(([-np.inf, -np.inf], alpha))
        prev1 = padded[1 : n + 1]
        prev2 = np.where(skip, padded[:n], -np.inf)
        alpha = np.logaddexp(np.logaddexp(alpha, prev1), prev2) + log_probs[t, ext]
    return float(np.logaddexp.reduce(alpha[-2:]))


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def _gru_direction(x, w, u, b) -> np.ndarray:
    """Hidden states of one direction; gate blocks stacked [z; r; n]."""
    hidden = u.shape[1]
    pre = x @ w.T + b  # input part of every step at once
    h = np.zeros(hidden)
    out = np.empty((x.shape[0], hidden))
    for t in range(x.shape[0]):
        a = pre[t]
        v = u @ h
        z = _sigmoid(a[:hidden] + v[:hidden])
        r = _sigmoid(a[hidden : 2 * hidden] + v[hidden : 2 * hidden])
        n = np.tanh(a[2 * hidden :] + r * v[2 * hidden :])
        h = (1.0 - z) * n + z * h
        out[t] = h
    return out


def bigru_probs(model, x) -> np.ndarray:
    """Intent probabilities of an LUModel for one (T, D) input: stacked
    bidirectional layers, mean-pool of the top layer, linear + softmax."""
    cur = np.asarray(x, np.float64)
    for fw, bw in model.layers:
        fwd = _gru_direction(cur, fw.w, fw.u, fw.b)
        bwd = _gru_direction(cur[::-1], bw.w, bw.u, bw.b)[::-1]
        cur = np.concatenate((fwd, bwd), axis=1)
    logits = model.w_out @ cur.mean(axis=0) + model.b_out
    e = np.exp(logits - logits.max())
    return e / e.sum()


def embed(model, ids) -> np.ndarray:
    """Embedding rows of decoded ids; an empty decode is one zero row."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size == 0:
        return np.zeros((1, model.embedding.shape[1]))
    return model.embedding[ids]
