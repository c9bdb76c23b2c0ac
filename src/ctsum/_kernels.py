"""Hot numeric kernels: CTC forward recursion and GRU forward/backward.

All kernels are plain numpy. The CTC recursion runs state by state: the
column of one target state over all frames is a first-order recurrence,
solved with one ``np.logaddexp.accumulate``, so the Python loop has S =
2L+1 iterations rather than T x S.

The GRU kernels run over a packed minibatch (see ``Packing``): the
input projection of every row is made once, for both kernels, and each
time step advances all sequences still running with one matrix product.
``gru_forward`` is one recurrence of any width; ``bigru_layer`` runs both
directions of a bidirectional layer as one recurrence of width 2H, and
its docstring is the one account of that layer's layout.
``bigru_layer_backward`` undoes the layout for ``gru_backward``, which
runs one direction at a time.

All kernels take float64 arrays.
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
    hold the blank. Returns exactly -inf when no alignment fits in T
    frames, that is when T is less than L plus the number of adjacent
    equal labels (each needs a blank between them); this is the one
    feasibility rule, and no caller counts frames first.

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


def _cell(a, v):
    """Gates (z, r, n) from input projections and recurrent products, each
    (..., 3, K) with the gate blocks on the second-to-last axis."""
    zr = 1.0 / (1.0 + np.exp(-(a[..., :2, :] + v[..., :2, :])))
    r = zr[..., 1, :]
    return zr[..., 0, :], r, np.tanh(a[..., 2, :] + r * v[..., 2, :])


def gru_forward(a, ut, pk: Packing):
    """One 3-gate GRU recurrence of width K over a packed minibatch.

    a  : (N, 3K) input projections a = w @ x_t + b of the packed rows,
         gate blocks [update | reset | cand]
    ut : (K, 3K) transposed recurrent weights u.T, same gate blocks

    Cell, with s = sigmoid and blocks a = w @ x_t + b, v = u @ h_prev:
        z = s(a_z + v_z)
        r = s(a_r + v_r)
        n = tanh(a_n + r * v_n)
        h = (1 - z) * n + z * h_prev

    Every sequence starts from h_prev = 0, and step t advances the rows
    of all sequences still running with one (k, K) @ (K, 3K) product.
    Returns the packed hidden states h, (N, K); ``gru_backward``
    recomputes the gates (``_cell``).
    """
    N, K = a.shape[0], ut.shape[0]
    a = a.reshape(N, 3, K)
    h = np.empty((N, K))
    h_prev = np.zeros((pk.active[0], K))
    for lo, k in zip(pk.offsets, pk.active):
        hp = h_prev[:k]
        z, _, n = _cell(a[lo : lo + k], (hp @ ut).reshape(k, 3, K))
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


def gru_backward(x, a, h, w, u, pk: Packing, dh_out):
    """Backward pass of one direction.

    x, a, h are that direction's packed inputs, input projections ``a =
    x @ w.T + b`` and hidden states, (N, Din), (N, 3H) and (N, H), in its
    own processing order; dh_out is dLoss/dh per row. a may also be an
    (N, 3, H) gate view and h a column view, as ``bigru_layer_backward``
    passes them uncopied.

    The gates of every row are recomputed from ``a`` and one product
    with u; only the carry dLoss/dh_prev runs step by step, in reverse.
    Returns (dw, du, db, dx), gradients summed over the minibatch, with
    dx packed like x for stacking layers.
    """
    H = u.shape[1]
    h_prev = _previous_states(h, pk)
    v = (h_prev @ u.T).reshape(-1, 3, H)
    z, r, n = _cell(a.reshape(-1, 3, H), v)
    vn = v[:, 2]
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


def bigru_layer(x, w, u, b, pk: Packing):
    """Both directions of a bidirectional GRU layer over packed rows.

    x       : (N, Din) packed inputs
    w, u, b : (2, 3H, Din), (2, 3H, H), (2, 3H) weights of the forward
              and backward direction, gate blocks [update; reset; cand]

    The backward direction reads each sequence reversed, ``x[pk.rev]``.
    Both run as one ``gru_forward`` recurrence of width 2H, state [h_f |
    h_b] with h_b in ``pk.rev`` row order: the input projections are
    gate-major, (N, 6H) = [z_f z_b | r_f r_b | n_f n_b], one product per
    gate and direction, and the recurrent weights one block-diagonal
    (2H, 6H) matrix, each direction's state feeding only its own gate
    columns. The zero blocks add exact zeros, so each direction's
    recurrent products equal those with its own C-ordered u.T.

    Returns (out, cache): out = [h_f | h_b], (N, 2H) in packed row
    order, and the cache ``bigru_layer_backward`` takes.
    """
    _, H3, din = w.shape
    H = H3 // 3
    N = x.shape[0]
    xs = (x, x[pk.rev])
    a = np.empty((N, 3, 2, H))
    for d, xd in enumerate(xs):  # one (N, Din) @ (Din, H) product per gate
        wt = w[d].reshape(3, H, din).transpose(0, 2, 1)
        np.matmul(xd, wt, out=a[:, :, d].transpose(1, 0, 2))
    a += b.reshape(2, 3, H).transpose(1, 0, 2)
    ubd = np.zeros((2, H, 3, 2, H))
    for d in range(2):
        ubd[d, :, :, d] = u[d].T.reshape(H, 3, H)
    h = gru_forward(a.reshape(N, 2 * H3), ubd.reshape(2 * H, 2 * H3), pk)
    return np.concatenate((h[:, :H], h[pk.rev, H:]), axis=1), (xs, a, h)


def bigru_layer_backward(cache, w, u, pk: Packing, dout):
    """Backward pass of ``bigru_layer`` for dout = dLoss/dout: one
    ``gru_backward`` per direction on its gate view of the cached
    projections and its half of the cached states. Returns (dw, du, db,
    dx), the gradients shaped like w, u and b (direction d on row d) and
    dLoss/dx summed over both directions, (N, Din) in packed row order.
    """
    xs, a, h = cache
    H = u.shape[2]
    fw = gru_backward(xs[0], a[:, :, 0], h[:, :H], w[0], u[0], pk, dout[:, :H])
    bw = gru_backward(xs[1], a[:, :, 1], h[:, H:], w[1], u[1], pk, dout[pk.rev, H:])
    dw, du, db = (np.stack(pair) for pair in zip(fw[:3], bw[:3]))
    # dx summed in place: freeing both directions' dx here let glibc trim the heap,
    # and the next layer's gru_backward page-faulted its temporaries back in
    return dw, du, db, np.add(fw[3], bw[3][pk.rev], out=fw[3])
