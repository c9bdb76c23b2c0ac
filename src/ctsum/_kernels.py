"""Hot numeric kernels: CTC forward recursion and GRU forward/backward.

All kernels are plain numpy. The CTC recursion runs state by state: the
column of one target state over all frames is a first-order recurrence,
solved with one ``np.logaddexp.accumulate``, so the Python loop has S =
2L+1 iterations rather than T x S.

The GRU kernels run over a packed minibatch (see ``Packing``): the input
projection of every row is one matrix product, and each time step
advances all sequences still running with one more. The forward kernel
takes a leading group axis, so both directions of a bidirectional layer
advance in one time loop, one batched recurrent product per step.

All kernels take float64 arrays, C-contiguous except ``gru_forward``'s
``ut``: the classifier passes the transposed view ``u.transpose(0, 2,
1)`` of its direction-stacked weights, and that view must stay a view.
A C-contiguous copy sends the per-step product down a different BLAS
path, whose results differ in the last bits.
"""

from typing import NamedTuple

import numpy as np

# No kernel is compiled; kept because benchmark reports record the flag.
USE_NUMBA = False


def ctc_forward_ll(log_probs, ext):
    """Total log-probability of all alignments of an expanded CTC target.

    log_probs : (T, V) per-frame label log-posteriors, all finite (the
                state-major solve subtracts running sums of them, so a
                -inf entry would turn into nan; ``PosteriorGrid`` floors
                probabilities, which guarantees this)
    ext       : (2L+1,) target interleaved with blanks, blanks at even slots

    Standard forward recursion over the expanded target, log domain. The
    skip transition s-2 -> s is allowed only between distinct non-blank
    labels, which is equivalent to ext[s] != ext[s-2] since even slots all
    hold the blank. Returns -inf when no alignment fits in T frames.

    Column s over time is alpha[t] = logaddexp(alpha[t-1], in[t-1]) +
    e[t], with e the emissions of state s and in the log-sum of the
    already-solved columns s-1 (and s-2 where the skip is allowed). With
    c = cumsum(e), alpha - c is the running log-sum-exp of
    [alpha0, in[0] - c[0], ..., in[T-2] - c[T-2]], where alpha0 is 0 for
    the two start states and -inf for the rest.
    """
    emit_cum = np.cumsum(log_probs.T[ext], axis=1)  # (S, T): c of each state
    labels = ext.tolist()
    scan = np.empty(log_probs.shape[0])
    col_1, col_2 = emit_cum[0], None  # alpha columns of states s-1 and s-2
    for s in range(1, len(labels)):
        c = emit_cum[s]
        skip = s >= 2 and labels[s] != labels[s - 2]
        into = np.logaddexp(col_1, col_2) if skip else col_1
        scan[0] = 0.0 if s == 1 else -np.inf
        np.subtract(into[:-1], c[:-1], out=scan[1:])
        col = np.logaddexp.accumulate(scan)
        col += c
        col_1, col_2 = col, col_1
    if col_2 is None:
        return col_1[-1]
    return np.logaddexp(col_1[-1], col_2[-1])


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
    if lengths.size == 1:  # one sequence: one row per step, in time order
        rows = np.arange(lengths[0])
        return Packing(
            np.zeros(1, dtype=np.int64), lengths, rows.tolist(), [1] * rows.size, rows, rows[::-1]
        )
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


def gru_forward(a, ut, pk: Packing):
    """G independent 3-gate GRU directions stepped through one time loop.

    a  : (G, N, 3H) input projections a = w @ x_t + b of each group's
         packed rows, each group in its own processing order
    ut : (G, H, 3H) transposed recurrent weights u.T of each group, gate
         blocks stacked [update; reset; cand]; any strides (see above)

    Cell, with s = sigmoid and blocks a = w @ x_t + b, v = u @ h_prev:
        z = s(a_z + v_z)
        r = s(a_r + v_r)
        n = tanh(a_n + r * v_n)
        h = (1 - z) * n + z * h_prev

    All groups share the packing ``pk``, so step t advances the same
    rows of every group with one batched product; a bidirectional layer
    runs as G = 2, its backward group fed the rows in ``pk.rev`` order.
    Every sequence starts from h_prev = 0. Returns the packed hidden
    states h, (G, N, H); ``gru_backward`` recomputes the gates from them.
    """
    G, N, _ = a.shape
    H = ut.shape[1]
    h = np.empty((G, N, H))
    h_prev = np.zeros((G, pk.active[0], H))
    for lo, k in zip(pk.offsets, pk.active):
        hp = h_prev[:, :k]
        at = a[:, lo : lo + k]
        v = hp @ ut
        zr = _sigmoid(at[..., : 2 * H] + v[..., : 2 * H])
        z = zr[..., :H]
        n = np.tanh(at[..., 2 * H :] + zr[..., H:] * v[..., 2 * H :])
        h_prev = h[:, lo : lo + k]
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
    """Backward pass of one direction (one group of gru_forward).

    x, h are that group's packed inputs and hidden states, (N, Din) and
    (N, H), with w, u, b as in ``a = x @ w.T + b`` and ``ut = u.T``;
    dh_out is dLoss/dh per row.

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
