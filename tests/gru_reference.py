"""Per-sequence reference for the packed GRU kernels and the batched loss.

One sequence at a time, one time step at a time, straight from the cell
equations: the packed kernels in ``ctsum._kernels`` and the minibatch
loss in ``ctsum.lu`` are checked against these.
"""

import numpy as np

from ctsum.lu import embed_labels


def gru_forward_py(x, w, u, b):
    """One direction of a 3-gate GRU layer over a full sequence.

    x : (T, Din) inputs, already in processing order
    w : (3H, Din) input weights, gate blocks stacked [update; reset; cand]
    u : (3H, H) recurrent weights, same block layout
    b : (3H,) bias

    Cell, with s = sigmoid and blocks a = w @ x_t + b, v = u @ h_prev:
        z = s(a_z + v_z)
        r = s(a_r + v_r)
        n = tanh(a_n + r * v_n)
        h = (1 - z) * n + z * h_prev

    Returns (h, z, r, n, vn), each (T, H); vn is the recurrent candidate
    block v_n cached for the backward pass.
    """
    T = x.shape[0]
    H = u.shape[1]
    h = np.empty((T, H))
    z = np.empty((T, H))
    r = np.empty((T, H))
    n = np.empty((T, H))
    vn = np.empty((T, H))
    h_prev = np.zeros(H)
    for t in range(T):
        a = np.dot(w, x[t]) + b
        v = np.dot(u, h_prev)
        zt = 1.0 / (1.0 + np.exp(-(a[:H] + v[:H])))
        rt = 1.0 / (1.0 + np.exp(-(a[H : 2 * H] + v[H : 2 * H])))
        vnt = v[2 * H :]
        nt = np.tanh(a[2 * H :] + rt * vnt)
        ht = (1.0 - zt) * nt + zt * h_prev
        z[t] = zt
        r[t] = rt
        n[t] = nt
        vn[t] = vnt
        h[t] = ht
        h_prev = ht
    return h, z, r, n, vn


def gru_backward_py(x, h, z, r, n, vn, w, u, dh_out):
    """Backward pass matching gru_forward_py; dh_out is dLoss/dh per step.

    Returns (dw, du, db, dx) with dx shaped like x for stacking layers.
    """
    T, din = x.shape
    H = h.shape[1]
    dw = np.zeros_like(w)
    du = np.zeros_like(u)
    db = np.zeros(3 * H)
    dx = np.empty((T, din))
    carry = np.zeros(H)
    for t in range(T - 1, -1, -1):
        dh = dh_out[t] + carry
        if t > 0:
            h_prev = h[t - 1]
        else:
            h_prev = np.zeros(H)
        zt = z[t]
        nt = n[t]
        rt = r[t]
        ds_z = dh * (h_prev - nt) * zt * (1.0 - zt)
        ds_n = dh * (1.0 - zt) * (1.0 - nt * nt)
        ds_r = ds_n * vn[t] * rt * (1.0 - rt)
        da = np.empty(3 * H)
        da[:H] = ds_z
        da[H : 2 * H] = ds_r
        da[2 * H :] = ds_n
        dv = np.empty(3 * H)
        dv[:H] = ds_z
        dv[H : 2 * H] = ds_r
        dv[2 * H :] = ds_n * rt
        dw += np.outer(da, x[t])
        du += np.outer(dv, h_prev)
        db += da
        dx[t] = np.dot(w.T, da)
        carry = np.dot(u.T, dv) + dh * zt
    return dw, du, db, dx


def loss_and_grads_py(model, data, label):
    """Cross-entropy loss and gradients of one sample, canonical order.

    ``data`` is a (T, D) float sequence or, for a model with an embedding
    table, a 1-D integer array of label ids (empty: one zero row that
    receives no embedding gradient).
    """
    data = np.asarray(data)
    ids = data if data.dtype.kind in "iu" else None
    x = embed_labels(ids, model) if ids is not None else data.astype(np.float64)
    t = x.shape[0]
    hidden = model.config.hidden
    cur = x
    caches = []
    for fw, bw in model.layers:
        cf = gru_forward_py(cur, fw.w, fw.u, fw.b)
        xr = np.ascontiguousarray(cur[::-1])
        cb = gru_forward_py(xr, bw.w, bw.u, bw.b)
        caches.append((cur, cf, xr, cb))
        cur = np.concatenate((cf[0], cb[0][::-1]), axis=1)
    pool = cur.mean(axis=0)
    logits = model.w_out @ pool + model.b_out
    e = np.exp(logits - logits.max())
    probs = e / e.sum()
    loss = -float(np.log(max(probs[label], 1e-30)))

    dlogits = probs.copy()
    dlogits[label] -= 1.0
    dh = np.tile(model.w_out.T @ dlogits / t, (t, 1))
    layer_grads = []
    for (fw, bw), (xin, cf, xr, cb) in zip(reversed(model.layers), reversed(caches)):
        dwf, duf, dbf, dxf = gru_backward_py(xin, *cf, fw.w, fw.u, dh[:, :hidden])
        dwb, dub, dbb, dxb = gru_backward_py(xr, *cb, bw.w, bw.u, dh[::-1, hidden:])
        layer_grads.append([dwf, duf, dbf, dwb, dub, dbb])
        dh = dxf + dxb[::-1]

    grads = [g for layer in reversed(layer_grads) for g in layer]
    grads += [np.outer(dlogits, pool), dlogits]
    if model.embedding is not None:
        demb = np.zeros_like(model.embedding)
        if ids is not None and ids.size:
            np.add.at(demb, ids, dh)
        grads.append(demb)
    return loss, grads
