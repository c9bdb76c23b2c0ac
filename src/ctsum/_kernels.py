"""Hot numeric kernels: CTC forward recursion and GRU forward/backward.

The CTC recursion is a scalar double loop, JIT-compiled with numba at
import time when numba is installed. Set ``CTS_NO_NUMBA=1`` to skip
compilation and run the plain-Python original instead; it stays
importable as ``ctc_forward_ll_py`` so the two paths can be compared,
e.g. by ``benchmarks/kernel_bench.py``.

The GRU kernels are plain numpy over a packed minibatch (see ``Packing``):
the input projection of every row is one matrix product, and each time
step advances all sequences still running with one more.

All kernels expect C-contiguous float64 arrays.
"""

import os
from typing import NamedTuple

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAVE_NUMBA = False

USE_NUMBA = HAVE_NUMBA and os.environ.get("CTS_NO_NUMBA", "0").lower() not in (
    "1",
    "true",
    "yes",
)

NEG_INF = -np.inf


def _jit(fn):
    if USE_NUMBA:
        return njit(cache=True)(fn)
    return fn


def _logaddexp2_py(a, b):
    # two-term log-sum-exp; tolerates -inf on either side
    if a < b:
        a, b = b, a
    if b == NEG_INF:
        return a
    return a + np.log1p(np.exp(b - a))


_logaddexp2 = _jit(_logaddexp2_py)


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


ctc_forward_ll = _jit(ctc_forward_ll_py)


class Packing(NamedTuple):
    """Time-major layout of a minibatch of sequences, without padding.

    Sequences are ranked by length, longest first (ties keep input
    order). Step t owns the packed rows ``offsets[t]:offsets[t] +
    active[t]``, one per sequence still running, in rank order, so the
    sequences running at step t + 1 are a prefix of those at step t.
    """

    order: np.ndarray  # (B,) input index of each rank
    lengths: np.ndarray  # (B,) length of each rank, non-increasing
    offsets: list[int]  # (T_max,) first packed row of each step
    active: list[int]  # (T_max,) sequences running at each step
    rows: np.ndarray  # (N,) packed row of each frame, ranks concatenated
    rev: np.ndarray  # (N,) packed row of the same sequence at step len-1-t


def pack_lengths(lengths) -> Packing:
    """Packing for sequences of the given lengths (each >= 1).

    ``x[rows] = concatenate(seqs[i] for i in order)`` packs frames, and
    ``x[rev]`` reverses each sequence within the same layout, which is
    how the backward direction of a bidirectional layer is run.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    ranked = lengths[order]
    steps = np.arange(ranked[0])
    active = np.searchsorted(-ranked, -steps, side="left")
    offsets = np.concatenate(([0], np.cumsum(active)[:-1]))
    rank = np.repeat(np.arange(ranked.size), ranked)
    step = np.arange(rank.size) - np.repeat(np.cumsum(ranked) - ranked, ranked)
    rows = offsets[step] + rank
    rev = np.empty_like(rows)
    rev[rows] = offsets[ranked[rank] - 1 - step] + rank
    return Packing(order, ranked, offsets.tolist(), active.tolist(), rows, rev)


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def gru_forward(x, w, u, b, pk: Packing):
    """One direction of a 3-gate GRU layer over a packed minibatch.

    x : (N, Din) packed inputs, already in processing order
    w : (3H, Din) input weights, gate blocks stacked [update; reset; cand]
    u : (3H, H) recurrent weights, same block layout
    b : (3H,) bias

    Cell, with s = sigmoid and blocks a = w @ x_t + b, v = u @ h_prev:
        z = s(a_z + v_z)
        r = s(a_r + v_r)
        n = tanh(a_n + r * v_n)
        h = (1 - z) * n + z * h_prev

    Every sequence starts from h_prev = 0. Returns the packed hidden
    states h, (N, H); ``gru_backward`` recomputes the gates from them.
    """
    H = u.shape[1]
    a = x @ w.T + b
    ut = u.T
    h = np.empty((x.shape[0], H))
    h_prev = np.zeros((pk.active[0], H))
    for lo, k in zip(pk.offsets, pk.active):
        hp = h_prev[:k]
        at = a[lo : lo + k]
        v = hp @ ut
        zr = _sigmoid(at[:, : 2 * H] + v[:, : 2 * H])
        z = zr[:, :H]
        n = np.tanh(at[:, 2 * H :] + zr[:, H:] * v[:, 2 * H :])
        h_prev = h[lo : lo + k]
        np.add((1.0 - z) * n, z * hp, out=h_prev)
    return h


def _previous_states(h, pk: Packing):
    """h_prev of every packed row: zero at step 0, else the same
    sequence's row of the step before."""
    active = np.asarray(pk.active)
    first = pk.active[0]
    prev = np.zeros_like(h)
    back = np.repeat(active[:-1], active[1:])
    prev[first:] = h[np.arange(first, h.shape[0]) - back]
    return prev


def gru_backward(x, h, w, u, b, pk: Packing, dh_out):
    """Backward pass matching gru_forward; dh_out is dLoss/dh per row.

    The gates of every row are recomputed with one product each for w
    and u; only the carry dLoss/dh_prev runs step by step, in reverse.
    Returns (dw, du, db, dx), gradients summed over the minibatch, with
    dx packed like x for stacking layers.
    """
    H = u.shape[1]
    h_prev = _previous_states(h, pk)
    a = x @ w.T + b
    v = h_prev @ u.T
    z = _sigmoid(a[:, :H] + v[:, :H])
    r = _sigmoid(a[:, H : 2 * H] + v[:, H : 2 * H])
    vn = v[:, 2 * H :]
    n = np.tanh(a[:, 2 * H :] + r * vn)
    # dLoss/dv of a row is dh times these three blocks, row by row
    g_n = (1.0 - z) * (1.0 - n * n)
    g = np.stack(((h_prev - n) * z * (1.0 - z), g_n * vn * r * (1.0 - r), g_n * r), axis=1)
    dh = np.array(dh_out, dtype=np.float64)  # dh_out plus the carry, filled in below
    for t in range(len(pk.offsets) - 1, 0, -1):
        lo, k = pk.offsets[t], pk.active[t]
        dht = dh[lo : lo + k]
        dvt = (dht[:, None, :] * g[lo : lo + k]).reshape(k, 3 * H)
        prev = pk.offsets[t - 1]
        dh[prev : prev + k] += dvt @ u + dht * z[lo : lo + k]
    dv = (dh[:, None, :] * g).reshape(-1, 3 * H)
    da = dv.copy()
    da[:, 2 * H :] = dh * g_n
    return da.T @ x, dv.T @ h_prev, da.sum(axis=0), da @ w
