"""The downstream intent classifier, trained from scratch.

One architecture serves all three system flavors: stacked bidirectional
3-gate gated-recurrent layers, mean-pool over time of the top layer's
concatenated direction outputs, then a linear + softmax intent head. The
pipeline flavor additionally owns a label-embedding table so decoded label
ids can be fed through the same network; only input construction differs
between flavors.

Everything runs in float64. Training computes one loss and gradient per
minibatch: the batch is packed time-major without padding
(``_kernels.pack_lengths``). Both directions of a layer advance in one
time loop (``_kernels.gru_forward`` with one group per direction); the
backward pass runs each direction once over the batch
(``_kernels.gru_backward``). Inference is the same path with a batch of
one. Gradients are fully hand-derived and verified against central
finite differences by ``gradient_check``.

Parameters: every array lives in one flat float64 buffer,
``LUModel.params``, which the optimizer, the gradient, the gradient check
and the model file each treat as one vector. ``_layout`` is the one table
of its canonical order: for each layer, forward direction then backward
direction, each as (w, u, b); then output projection (w_out, b_out); then
the embedding table when present. The named fields of ``LUModel`` are
views into the buffer. So are the direction-stacked weights of each layer
(``LUModel.stacked``: w (2, 3H, Din), u (2, 3H, H), b (2, 3H)), which the
forward pass hands to the fused kernel with no per-call copy.

Model file (.ctsm, container layout in ``seqcore``): a UTF-8 JSON header
(config + training losses), then the float32 parameters in canonical
order.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from itertools import islice

import numpy as np

from . import _kernels
from .seqcore import (
    FormatError,
    _as_float,
    _as_int,
    _decode_json,
    _floored_log,
    _read_exact,
    _read_header,
    _read_payload,
    _softmax_rows,
    _write_container,
)

MODEL_MAGIC = b"CTSM"
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


@dataclass
class LUConfig:
    input_dim: int
    num_intents: int
    hidden: int = 32
    layers: int = 2
    learning_rate: float = 3e-3
    epochs: int = 30
    batch_size: int = 16
    seed: int = 0
    vocab_size: int | None = None  # set for the label-embedding (pipeline) flavor

    def __post_init__(self):
        for name in ("input_dim", "num_intents", "hidden", "layers", "epochs", "batch_size"):
            value = _as_int(name, getattr(self, name))
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
            setattr(self, name, value)
        if self.num_intents < 2:
            raise ValueError("num_intents must be >= 2")
        self.learning_rate = _as_float("learning_rate", self.learning_rate)
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        self.seed = _as_int("seed", self.seed)
        if self.vocab_size is not None:
            self.vocab_size = _as_int("vocab_size", self.vocab_size)
            if self.vocab_size < 1:
                raise ValueError("vocab_size must be >= 1 when set")


@dataclass
class GRUParams:
    """One direction's (w, u, b); in ``LUModel.stacked`` each array
    carries a leading direction axis of 2 (forward, backward)."""

    w: np.ndarray  # (3H, Din)
    u: np.ndarray  # (3H, H)
    b: np.ndarray  # (3H,)


def _layout(config: LUConfig) -> list[tuple[tuple[int, ...], int]]:
    """(shape, fan_in) of every parameter array, in canonical order.

    fan_in is the input width of each map: Din for w, H for u and b, 2H
    for the output head, input_dim for embedding rows.
    """
    h, h3 = config.hidden, 3 * config.hidden
    out = []
    for din in [config.input_dim] + [2 * h] * (config.layers - 1):
        out += [((h3, din), din), ((h3, h), h), ((h3,), h)] * 2  # forward, backward
    out += [((config.num_intents, 2 * h), 2 * h), ((config.num_intents,), 2 * h)]
    if config.vocab_size is not None:
        out.append(((config.vocab_size, config.input_dim), config.input_dim))
    return out


def _num_params(config: LUConfig) -> int:
    """Parameter count of the architecture ``lu_init`` builds for config."""
    return sum(math.prod(shape) for shape, _ in _layout(config))


@dataclass
class LUModel:
    config: LUConfig
    params: np.ndarray  # (_num_params(config),) float64, canonical order
    train_losses: list[float] = field(default_factory=list)
    # views into params
    layers: list[tuple[GRUParams, GRUParams]] = field(init=False, repr=False)  # (fw, bw) per layer
    stacked: list[GRUParams] = field(init=False, repr=False)  # per layer, both directions
    w_out: np.ndarray = field(init=False, repr=False)  # (K, 2H)
    b_out: np.ndarray = field(init=False, repr=False)  # (K,)
    embedding: np.ndarray | None = field(init=False, repr=False)  # (vocab_size, input_dim)

    def __post_init__(self):
        if self.params.shape != (_num_params(self.config),):
            raise ValueError(f"params must have shape ({_num_params(self.config)},)")
        views = iter(self.param_arrays())
        self.layers = [
            (GRUParams(*islice(views, 3)), GRUParams(*islice(views, 3)))
            for _ in range(self.config.layers)
        ]
        self.w_out, self.b_out = next(views), next(views)
        self.embedding = next(views, None)
        # A layer's backward (w, u, b) block follows its forward block of the
        # same size, so the two blocks are the rows of one (2, block) view.
        self.stacked, pos = [], 0
        for fw, _ in self.layers:
            nw, nu = fw.w.size, fw.u.size
            pair = self.params[pos : pos + 2 * (nw + nu + fw.b.size)].reshape(2, -1)
            self.stacked.append(
                GRUParams(
                    pair[:, :nw].reshape(2, *fw.w.shape),
                    pair[:, nw : nw + nu].reshape(2, *fw.u.shape),
                    pair[:, nw + nu :],
                )
            )
            pos += pair.size

    def param_arrays(self) -> list[np.ndarray]:
        """All parameters in canonical order, as views into ``params``."""
        out, pos = [], 0
        for shape, _ in _layout(self.config):
            size = math.prod(shape)
            out.append(self.params[pos : pos + size].reshape(shape))
            pos += size
        return out


def lu_init(config: LUConfig) -> LUModel:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per array."""
    rng = np.random.default_rng(config.seed)
    model = LUModel(config, np.empty(_num_params(config)))
    for view, (shape, fan_in) in zip(model.param_arrays(), _layout(config)):
        bound = 1.0 / np.sqrt(fan_in)
        view[...] = rng.uniform(-bound, bound, size=shape)
    return model


def _as_float_seq(model: LUModel, seq) -> np.ndarray:
    x = np.ascontiguousarray(seq, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"input must be (T>=1, D), got shape {x.shape}")
    if x.shape[1] != model.config.input_dim:
        raise ValueError(
            f"dimension mismatch: model expects D={model.config.input_dim}, "
            f"got {x.shape[1]}"
        )
    return x


def _label_ids(ids) -> np.ndarray:
    """Label ids as a 1-d int64 array, not copied when already one; float
    ids are an error, not truncated."""
    arr = np.asarray(ids)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise ValueError(f"label ids must be a 1-d integer sequence, got {arr.dtype} {arr.shape}")
    return arr.astype(np.int64, copy=False)


def embed_labels(ids, model: LUModel) -> np.ndarray:
    """Row-lookup of label ids (a 1-d integer sequence, e.g. a decode's
    ``ids``); an empty sequence maps to one all-zero vector so the
    classifier always sees T >= 1."""
    if model.embedding is None:
        raise ValueError("model has no embedding table")
    ids = _label_ids(ids)
    if ids.size == 0:
        return np.zeros((1, model.config.input_dim))
    if ids.min() < 0 or ids.max() >= model.embedding.shape[0]:
        raise ValueError("label id out of embedding range")
    return model.embedding[ids]


def _pack(xs):
    """Packing of (T_i, D) inputs and the packed (N, D) input rows."""
    pk = _kernels.pack_lengths([x.shape[0] for x in xs])
    if len(xs) == 1:  # one sequence is already in packed order
        return pk, xs[0]
    packed = np.empty((pk.rows.size, xs[0].shape[1]))
    packed[pk.rows] = np.concatenate([xs[i] for i in pk.order])
    return pk, packed


def _bigru_forward(model: LUModel, pk: _kernels.Packing, x):
    """Run all layers, both directions of a layer in one fused
    recurrence; caches hold per-direction (input, h), the backward
    direction's in its reversed row order. The weights are the
    direction-stacked views of ``model.stacked``, never copied."""
    cur = x
    caches = []
    for st in model.stacked:
        xr = cur[pk.rev]
        a = np.empty((2, cur.shape[0], st.b.shape[1]))
        np.matmul(cur, st.w[0].T, out=a[0])
        np.matmul(xr, st.w[1].T, out=a[1])
        a += st.b[:, None]
        hf, hb = _kernels.gru_forward(a, st.u.transpose(0, 2, 1), pk)
        caches.append((cur, hf, xr, hb))
        cur = np.concatenate((hf, hb[pk.rev]), axis=1)
    return cur, caches


def _head_forward(model: LUModel, pk: _kernels.Packing, top):
    """Mean-pool each sequence's top-layer rows, then linear + softmax;
    returns (pool, probs), one row per rank."""
    starts = np.cumsum(pk.lengths) - pk.lengths
    pool = np.add.reduceat(top[pk.rows], starts, axis=0) / pk.lengths[:, None]
    return pool, _softmax_rows(pool @ model.w_out.T + model.b_out)


def _probs(model: LUModel, xs) -> np.ndarray:
    """Class probabilities of each input, one row per rank."""
    pk, x = _pack(xs)
    top, _ = _bigru_forward(model, pk, x)
    return _head_forward(model, pk, top)[1]


def _nll(probs, labels) -> np.ndarray:
    return -_floored_log(probs[np.arange(labels.size), labels])


def lu_forward(model: LUModel, seq) -> np.ndarray:
    """Class probability vector for one sequence of D-dim vectors."""
    return _probs(model, [_as_float_seq(model, seq)])[0]


def _sample_input(model: LUModel, data) -> np.ndarray:
    """The classifier input of a corpus item: label ids through the
    embedding table for a model that has one, else a (T, D) sequence."""
    return _as_float_seq(model, data) if model.embedding is None else embed_labels(data, model)


def _batch_loss_and_grads(model: LUModel, items):
    """Cross-entropy loss and its flat gradient, laid out like
    ``model.params``, each summed over the (input, label) items of one
    minibatch."""
    pk, x = _pack([_sample_input(model, data) for data, _ in items])
    labels = np.array([int(items[i][1]) for i in pk.order])
    h = model.config.hidden
    top, caches = _bigru_forward(model, pk, x)
    pool, probs = _head_forward(model, pk, top)
    loss = float(_nll(probs, labels).sum())

    grad = LUModel(model.config, np.zeros_like(model.params))
    dlogits = probs.copy()
    dlogits[np.arange(labels.size), labels] -= 1.0
    grad.w_out[...] = dlogits.T @ pool
    grad.b_out[...] = dlogits.sum(axis=0)
    dpool = (dlogits @ model.w_out) / pk.lengths[:, None]
    dh = np.empty_like(top)
    dh[pk.rows] = np.repeat(dpool, pk.lengths, axis=0)

    for (fw, bw), (gf, gb), (xin, hf, xr, hb) in zip(
        reversed(model.layers), reversed(grad.layers), reversed(caches)
    ):
        gf.w[...], gf.u[...], gf.b[...], dxf = _kernels.gru_backward(
            xin, hf, fw.w, fw.u, fw.b, pk, dh[:, :h]
        )
        gb.w[...], gb.u[...], gb.b[...], dxb = _kernels.gru_backward(
            xr, hb, bw.w, bw.u, bw.b, pk, dh[pk.rev, h:]
        )
        dh = dxf + dxb[pk.rev]

    if model.embedding is not None:
        ids = np.empty(pk.rows.size, dtype=np.int64)
        ranked = (_label_ids(items[k][0]) for k in pk.order)
        ids[pk.rows] = np.concatenate([i if i.size else [-1] for i in ranked])
        real = ids >= 0  # an empty decode's zero row has no table row
        np.add.at(grad.embedding, ids[real], dh[real])
    return loss, grad.params


class _Adam:
    """Adaptive-moment estimation with bias correction, in place on one
    flat parameter vector."""

    def __init__(self, params, lr, betas=ADAM_BETAS, eps=ADAM_EPS):
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def step(self, grad):
        self.t += 1
        bc1 = 1.0 - self.b1**self.t
        bc2 = 1.0 - self.b2**self.t
        self.m *= self.b1
        self.m += (1.0 - self.b1) * grad
        self.v *= self.b2
        self.v += (1.0 - self.b2) * grad * grad
        self.params -= self.lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + self.eps)


def _clone_for_training(init_model: LUModel, config: LUConfig) -> LUModel:
    if _layout(init_model.config) != _layout(config):
        raise ValueError("init_model architecture does not match config")
    return LUModel(replace(config), init_model.params.copy())


def lu_train(config: LUConfig, corpus, init_model: LUModel | None = None) -> LUModel:
    """Mini-batch Adam on cross-entropy; deterministic given config.seed.

    corpus items are (input, intent) pairs where input is a sequence of
    integer label ids when config.vocab_size is set, else a (T, D)
    sequence. Pass init_model to fine-tune existing parameters instead of
    initializing fresh ones.
    """
    if not corpus:
        raise ValueError("corpus must be non-empty")
    for _, label in corpus:
        if not 0 <= int(label) < config.num_intents:
            raise ValueError(f"intent label {label} out of range")
    model = lu_init(config) if init_model is None else _clone_for_training(init_model, config)
    opt = _Adam(model.params, config.learning_rate)
    rng = np.random.default_rng(config.seed)
    n = len(corpus)
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for lo in range(0, n, config.batch_size):
            batch = perm[lo : lo + config.batch_size]
            batch_loss, grad = _batch_loss_and_grads(model, [corpus[i] for i in batch])
            grad *= 1.0 / len(batch)
            opt.step(grad)
            epoch_loss += batch_loss
        model.train_losses.append(epoch_loss / n)
    return model


def gradient_check(config: LUConfig, sample) -> float:
    """Analytic vs central-difference gradients on one sample.

    Returns the maximum guarded relative error
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-6) over every
    parameter of a freshly initialized model. Intended for tiny shapes in
    64-bit mode; cost is two forward passes per scalar parameter.
    """
    data, label = sample
    model = lu_init(config)
    labels = np.array([int(label)])

    def loss_only():
        return float(_nll(_probs(model, [_sample_input(model, data)]), labels)[0])

    _, grad = _batch_loss_and_grads(model, [sample])
    step = 1e-5
    max_rel = 0.0
    flat = model.params
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = loss_only()
        flat[i] = orig - step
        down = loss_only()
        flat[i] = orig
        numeric = (up - down) / (2.0 * step)
        rel = abs(numeric - grad[i]) / max(abs(numeric), abs(grad[i]), 1e-6)
        max_rel = max(max_rel, rel)
    return max_rel


def save_model(path, model: LUModel):
    """Write the .ctsm container; parameters in canonical order as f32."""
    cfg = asdict(model.config)
    header = json.dumps(
        {"config": cfg, "train_losses": [float(x) for x in model.train_losses]},
        sort_keys=True,
        allow_nan=False,
    ).encode("utf-8")
    _write_container(path, MODEL_MAGIC, "I", (len(header),), header, model.params)


def load_model(path) -> LUModel:
    with open(path, "rb") as fh:
        (hlen,) = _read_header(fh, MODEL_MAGIC, path, "I")
        left = os.fstat(fh.fileno()).st_size - fh.tell() - hlen  # bytes after the JSON header
        if left < 0:
            raise FormatError(f"{path}: truncated file: header declares a {hlen}-byte JSON header")
        meta = _decode_json(_read_exact(fh, hlen, "JSON header"), path, "model header")
        try:
            config = LUConfig(**meta["config"])
            losses = meta.get("train_losses", [])
            if not isinstance(losses, list):
                raise ValueError("train_losses must be a list of finite numbers")
            losses = [_as_float("train_losses", x) for x in losses]
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise FormatError(f"{path}: invalid model header: {exc}") from exc
        # Each layer holds at least 6 * 3H parameters (w, u, b of two
        # directions); bound the layer count before _layout walks it.
        if 4 * 6 * 3 * config.hidden * config.layers > left:
            raise FormatError(
                f"{path}: truncated file: header declares layers={config.layers} of "
                f"hidden={config.hidden}, more parameters than the file's {left} bytes hold"
            )
        n = _num_params(config)
        params = np.frombuffer(_read_payload(fh, path, 4 * n), "<f4").astype(np.float64)
    if not np.isfinite(params).all():
        raise FormatError(f"{path}: non-finite parameter values")
    return LUModel(config, params, losses)
