"""Hot numeric kernels: CTC forward recursion and GRU forward/backward.

All kernels are plain numpy. The CTC recursion runs label by label: the
blank after a label and the label share one running sum, and the label's
state and that sum over all frames are first-order recurrences, each
solved with one ``np.logaddexp.accumulate``, so the Python loop has L
iterations of two scans rather than T x (2L+1) steps.

The GRU kernels run over a packed minibatch (see ``Packing``): the
input projection of every row is made once, for both kernels, and each
time step advances all sequences still running with one matrix product;
a single sequence, as in every serving call, is stepped one 1-d row at
a time through the same gate function.
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

# The GRU step's 1, as a read-only 0-d float64 array: numpy converts a
# Python float operand on every call, so ``1.0 - z`` cost 0.64 us against
# 0.45 us with this operand (k = 1, K = 64, numpy 2.4).
_ONE = np.ones(())
_ONE.flags.writeable = False


def ctc_forward_ll(log_emit, target):
    """Total log-probability of all CTC alignments of a target.

    log_emit : (L+1, T) per-frame log-emissions, C-contiguous: row 0
               the blank's, row j the j-th target label's (a repeated
               label has a row per occurrence). All entries must be
               finite: the solve subtracts running sums of them, so a
               -inf entry would turn into nan (``ctc.ctc_forward_logprob``
               floors the probabilities it logs, which guarantees this).
    target   : (L,) the target's label ids, none the blank; only whether
               neighbours are equal is read.

    Returns exactly -inf when no alignment fits in T frames, that is
    when T is less than L plus the number of adjacent equal labels (each
    needs a blank between them). This is the one feasibility rule, and
    no caller counts frames first.

    In the linear domain, with e the emissions of row 0, b_j the forward
    sum of the blank after label j (b_0 the leading blank) and l_j that
    of label j, the blank after label j and label j share one running
    sum g_j = b_j + l_j, and the standard recursion becomes

        b_j[t] = e[t] * g_j[t-1]          (b_0 = g_0 = cumprod of e)
        g_j[t] = e[t] * g_j[t-1] + l_j[t]
        l_j[t] = e_j[t] * (l_j[t-1] + in_j[t-1])

    where in_j is g_{j-1} when j = 1 or y_j != y_{j-1} (the skip over
    the blank is allowed) and b_{j-1} when y_j = y_{j-1}; l_1 alone
    starts at frame 0. The score is g_L at the last frame. Each of l_j
    and g_j is a first-order recurrence, solved in the log domain with
    one ``np.logaddexp.accumulate`` against cumulative log-emissions:
    with c_j the cumulative log-emissions of label j, c those of the
    blank, d_j = c - c_j and G_j = g_j - c (so G_0 = 0),

        l_j - c_j = scan of [l_j[0] - c_j[0], in_j[t-1] - c_j[t-1] ...]
        G_j       = scan of (l_j - c_j) - d_j

    where in_j[t] - c_j[t] is G_{j-1}[t] + d_j[t] from g_{j-1}, and
    G_{j-1}[t-1] + d_j[t] from b_{j-1} (-inf at t = 0). So each label
    costs two scans and no two-term log-sum-exp. An unreachable frame
    enters a scan as -inf and stays -inf through every later label.
    """
    cum = np.cumsum(log_emit, axis=1)
    labels = target.tolist()
    d = cum[0] - cum[1:]  # (L, T): d_j of each label
    scan = np.empty(log_emit.shape[1])
    g = np.zeros_like(scan)  # G_0
    for j, y in enumerate(labels):
        dj = d[j]
        if j and y == labels[j - 1]:  # from b_{j-1}: no skip over the blank
            scan[:2] = -np.inf
            np.add(g[:-2], dj[1:-1], out=scan[2:])
        else:
            scan[0] = 0.0 if j == 0 else -np.inf  # only l_1 starts at frame 0
            np.add(g[:-1], dj[:-1], out=scan[1:])
        np.logaddexp.accumulate(scan, out=scan)  # l_j - c_j
        np.subtract(scan, dj, out=scan)
        np.logaddexp.accumulate(scan, out=g)  # G_j, once G_{j-1} is read
    return g[-1] + cum[0, -1]


class Packing(NamedTuple):
    """Time-major layout of a minibatch of sequences, without padding.

    Sequences are ranked by length, longest first (ties keep input
    order). Step t owns the packed rows ``offsets[t]:offsets[t] +
    active[t]``, one per sequence still running, in rank order, so the
    sequences running at step t + 1 are a prefix of those at step t.
    ``pack`` alone builds one, so ``starts`` and ``prev`` match the rest.
    """

    order: np.ndarray  # (B,) input index of each rank
    lengths: np.ndarray  # (B,) length of each rank, non-increasing
    offsets: list[int]  # (T_max,) first packed row of each step
    active: list[int]  # (T_max,) sequences running at each step
    rows: np.ndarray  # (N,) packed row of each frame, ranks concatenated
    rev: np.ndarray  # (N,) packed row of the same sequence at step len-1-t
    starts: np.ndarray  # (B,) first frame of each rank among the concatenated frames, for pooling
    prev: np.ndarray  # (N - active[0],) row one step earlier in the same sequence, of rows from step 1


def pack(xs) -> tuple[Packing, np.ndarray]:
    """Packing of the sequences xs (arrays of T_i >= 1 rows of one shape)
    and their packed rows ``packed[rows] = concatenate(xs[i] for i in
    order)``, of the input's dtype; ``packed[rev]`` reverses each sequence
    within the same layout, which is how the backward direction of a
    bidirectional layer is run.
    """
    lengths = np.array([x.shape[0] for x in xs], dtype=np.int64)
    if lengths.size == 1:  # one sequence: one row per step, in time order, packed as it is
        rows = np.arange(lengths[0])
        zero = np.zeros(1, dtype=np.int64)  # the one rank's input index and first frame
        return Packing(zero, lengths, rows.tolist(), [1] * rows.size, rows, rows[::-1], zero, rows[:-1]), xs[0]
    order = np.argsort(-lengths, kind="stable")
    ranked = lengths[order]
    steps = np.arange(ranked[0])
    active = np.searchsorted(-ranked, -steps, side="left")
    offsets = np.concatenate(([0], np.cumsum(active)[:-1]))
    rank = np.repeat(np.arange(ranked.size), ranked)
    starts = np.cumsum(ranked) - ranked
    step = np.arange(rank.size) - np.repeat(starts, ranked)
    rows = offsets[step] + rank
    rev = np.empty_like(rows)
    rev[rows] = offsets[ranked[rank] - 1 - step] + rank
    prev = np.arange(active[0], rows.size) - np.repeat(active[:-1], active[1:])
    packed = np.empty((rows.size, *xs[0].shape[1:]), xs[0].dtype)
    packed[rows] = np.concatenate([xs[i] for i in order])
    return Packing(order, ranked, offsets.tolist(), active.tolist(), rows, rev, starts, prev), packed


def _cell(nzr, an, v):
    """Gates (z, r, n) of K units from the negated update and reset
    projections nzr = -[a_z | a_r], (..., 2K), the candidate projection
    an = a_n, (..., K), and the recurrent products v = [v_z | v_r | v_n],
    (..., 3K): one 1-d row, or k rows as a 2-d block. The one copy of the
    gate equations.

    (-a) - v equals -(a + v) exactly, so the sigmoid's argument costs no
    negation here, and it is computed in place on its own temporary.
    """
    K = an.shape[-1]
    zr = nzr - v[..., : 2 * K]
    np.exp(zr, out=zr)
    zr += _ONE
    np.reciprocal(zr, out=zr)
    r = zr[..., K:]
    return zr[..., :K], r, np.tanh(an + r * v[..., 2 * K :])


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
    of all sequences still running with one (k, K) @ (K, 3K) product,
    taken with ``ndarray.dot``. It gave the same bits as ``@`` on every
    product checked and costs about 1.4 us a call less on these small
    operands (3.4 against 4.8 us for k = 1, K = 64 on a 2-vCPU Xeon VM,
    numpy 2.4 with OpenBLAS on one thread).

    A packing of one sequence (every serving call) has one row a step,
    in time order, so it is stepped over the 1-d row views that
    iterating the arrays yields, with a (K,) state: the same ``_cell``,
    update and bits, without three slices and a (1, K) block a step.
    Returns the packed hidden states h, (N, K); ``gru_backward``
    recomputes the gates (``_cell``).
    """
    N, K = a.shape[0], ut.shape[0]
    nzr, an = -a[:, : 2 * K], a[:, 2 * K :]  # negated once for the whole batch (``_cell``)
    h = np.empty((N, K))
    if pk.lengths.size == 1:
        h_prev = np.zeros(K)
        for nzr_t, an_t, ht in zip(nzr, an, h):
            z, _, n = _cell(nzr_t, an_t, h_prev.dot(ut))
            np.add((_ONE - z) * n, z * h_prev, out=ht)
            h_prev = ht
        return h
    h_prev = np.zeros((pk.active[0], K))
    for lo, k in zip(pk.offsets, pk.active):
        hp = h_prev[:k]
        z, _, n = _cell(nzr[lo : lo + k], an[lo : lo + k], hp.dot(ut))
        h_prev = h[lo : lo + k]
        np.add((_ONE - z) * n, z * hp, out=h_prev)
    return h


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
    h_prev = np.zeros_like(h)  # zero at step 0
    h_prev[pk.active[0] :] = h[pk.prev]
    v = h_prev @ u.T
    a = a.reshape(-1, 3, H)
    z, r, n = _cell((-a[:, :2]).reshape(-1, 2 * H), a[:, 2], v)
    vn = v[:, 2 * H :]
    # dLoss/dv of a row is dh times these three blocks, row by row
    g_n = (1.0 - z) * (1.0 - n * n)
    g = np.stack(((h_prev - n) * z * (1.0 - z), g_n * vn * r * (1.0 - r), g_n * r), axis=1)
    dh = np.array(dh_out, dtype=np.float64)  # dh_out plus the carry, filled in below
    for t in range(len(pk.offsets) - 1, 0, -1):
        lo, k = pk.offsets[t], pk.active[t]
        dht = dh[lo : lo + k]
        dvt = (dht[:, None, :] * g[lo : lo + k]).reshape(k, 3 * H)
        prev = pk.offsets[t - 1]
        dh[prev : prev + k] += dvt.dot(u) + dht * z[lo : lo + k]  # .dot: see gru_forward
    dv = (dh[:, None, :] * g).reshape(-1, 3 * H)
    da = dv.copy()
    da[:, 2 * H :] = dh * g_n
    return da.T @ x, dv.T @ h_prev, da.sum(axis=0), da @ w


def bigru_layer(x, w, u, b, pk: Packing, scratch: dict):
    """Both directions of a bidirectional GRU layer over packed rows.

    x       : (N, Din) packed inputs
    w, u, b : (2, 3H, Din), (2, 3H, H), (2, 3H) weights of the forward
              and backward direction, gate blocks [update; reset; cand]
    scratch : a dict the caller keeps for this layer across calls and
              otherwise leaves alone; it holds the recurrent matrix below

    The backward direction reads each sequence reversed, ``x[pk.rev]``.
    Both run as one ``gru_forward`` recurrence of width 2H, state [h_f |
    h_b] with h_b in ``pk.rev`` row order: the input projections are
    gate-major, (N, 6H) = [z_f z_b | r_f r_b | n_f n_b], one product per
    gate and direction, and the recurrent weights one block-diagonal
    (2H, 6H) matrix, each direction's state feeding only its own gate
    columns. The zero blocks add exact zeros, so each direction's
    recurrent products equal those with its own C-ordered u.T. The matrix
    is allocated, zeros and all, on a scratch's first use; every call
    copies u into its diagonal blocks, so it always follows u as it is
    now, in-place updates included.

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
    kept = scratch.get("recurrent")  # one lookup, so a thread never mixes two buffers
    if kept is None:  # first use: the zero blocks are written once
        ubd = np.zeros((2, H, 3, 2, H))
        s = ubd.strides  # the diagonal blocks ubd[d, :, :, d] of both directions, one view
        diag = np.lib.stride_tricks.as_strided(ubd, (2, H, 3, H), (s[0] + s[3], s[1], s[2], s[4]))
        kept = scratch["recurrent"] = (ubd.reshape(2 * H, 2 * H3), diag)
    ut, diag = kept
    diag[...] = u.reshape(2, 3, H, H).transpose(0, 3, 1, 2)  # u[d].T as (H, 3, H)
    h = gru_forward(a.reshape(N, 2 * H3), ut, pk)
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
