"""The downstream intent classifier, trained from scratch.

One architecture serves all three system flavors: stacked bidirectional
3-gate gated-recurrent layers, mean-pool over time of the top layer's
concatenated direction outputs, then a linear + softmax intent head. The
pipeline flavor additionally owns a label-embedding table so decoded label
ids can be fed through the same network; only input construction differs
between flavors.

Everything runs in float64. Training computes one loss and gradient per
minibatch: the batch is packed time-major without padding
(``_kernels.pack``), and each layer runs both directions forward
and backward through ``_kernels.bigru_layer`` and
``_kernels.bigru_layer_backward``, whose docstrings describe the layer's
layout. ``_forward`` is the one forward pass; inference runs it on a
batch of one. Gradients are fully hand-derived and verified against
central finite differences by ``gradient_check``.

Parameters: every array lives in one flat float64 buffer,
``LUModel.params``, which the optimizer, the gradient, the gradient check
and the model file each treat as one vector. ``_layout`` is the one table
of its canonical order: for each layer, forward direction then backward
direction, each as (w, u, b); then output projection (w_out, b_out); then
the embedding table when present. The named fields of ``LUModel`` are
views into the buffer: the direction-stacked weights of each layer
(``LUModel.stacked``: w (2, 3H, Din), u (2, 3H, H), b (2, 3H)), which the
forward and backward passes take, and each direction's own (w, u, b)
(``LUModel.layers``), rows of those.

Model file (.ctsm, container layout in ``seqcore``): a UTF-8 JSON header
(config + training losses), then the float32 parameters in canonical
order.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import _kernels
from .seqcore import (
    FormatError,
    _as_float,
    _as_int,
    _as_rate,
    _as_reals,
    _decode_json,
    _floored_log,
    _label_ids,
    _parse,
    _read_exact,
    _read_header,
    _read_payload,
    _require_finite,
    _softmax_rows,
    _writable,
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
        for name in ("input_dim", "hidden", "layers", "epochs", "batch_size"):
            setattr(self, name, _as_int(name, getattr(self, name), 1))
        self.num_intents = _as_int("num_intents", self.num_intents, 2)
        self.learning_rate = _as_rate("learning_rate", self.learning_rate)
        self.seed = _as_int("seed", self.seed, 0)
        if self.vocab_size is not None:
            self.vocab_size = _as_int("vocab_size", self.vocab_size, 1)


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
    layers: list[tuple[GRUParams, GRUParams]] = field(init=False, repr=False)  # (fw, bw) rows of stacked
    stacked: list[GRUParams] = field(init=False, repr=False)  # per layer, both directions
    w_out: np.ndarray = field(init=False, repr=False)  # (K, 2H)
    b_out: np.ndarray = field(init=False, repr=False)  # (K,)
    embedding: np.ndarray | None = field(init=False, repr=False)  # (vocab_size, input_dim)
    # per layer, the scratch ``_kernels.bigru_layer`` keeps between calls
    scratch: list[dict] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.params.shape != (_num_params(self.config),):
            raise ValueError(f"params must have shape ({_num_params(self.config)},)")
        views = self.param_arrays()
        n = 6 * self.config.layers  # (w, u, b) of two directions per layer
        # A layer's backward (w, u, b) block follows its forward block of the
        # same size, so the two blocks are the rows of one (2, block) view.
        self.stacked, pos = [], 0
        for w, u, b in zip(views[0:n:6], views[1:n:6], views[2:n:6]):  # forward blocks
            nw, nu = w.size, u.size
            pair = self.params[pos : pos + 2 * (nw + nu + b.size)].reshape(2, -1)
            self.stacked.append(
                GRUParams(
                    pair[:, :nw].reshape(2, *w.shape),
                    pair[:, nw : nw + nu].reshape(2, *u.shape),
                    pair[:, nw + nu :],
                )
            )
            pos += pair.size
        self.layers = [
            tuple(GRUParams(st.w[d], st.u[d], st.b[d]) for d in (0, 1)) for st in self.stacked
        ]
        self.w_out, self.b_out, *table = views[n:]
        self.embedding = table[0] if table else None
        self.scratch = [{} for _ in self.stacked]

    def __reduce__(self):  # copy and pickle rebuild the views into params and an empty scratch
        return LUModel, (self.config, self.params.copy(), list(self.train_losses))

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
    """A sequence as float64 input, checked to be finite and of the model's input width."""
    x = _as_reals("input sequence", seq, np.float64)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] != model.config.input_dim:
        raise ValueError(f"input dimensions must be (T>=1, D={model.config.input_dim}), got {x.shape}")
    _require_finite("input sequence", x)
    return x


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


def _forward(model: LUModel, xs):
    """The classifier on the sequences xs, one row per rank: pack them,
    run each layer, mean-pool each sequence's top-layer rows, then linear
    + softmax. Returns (packing, each layer's cache for the backward pass,
    the top layer's packed output, pool, probs)."""
    pk, x = _kernels.pack(xs)
    caches = []
    for st, scratch in zip(model.stacked, model.scratch):
        x, cache = _kernels.bigru_layer(x, st.w, st.u, st.b, pk, scratch)
        caches.append(cache)
    pool = np.add.reduceat(x[pk.rows], pk.starts, axis=0) / pk.lengths[:, None]
    return pk, caches, x, pool, _softmax_rows(pool @ model.w_out.T + model.b_out)


def _nll(probs, labels) -> np.ndarray:
    return -_floored_log(probs[np.arange(labels.size), labels])


def lu_forward(model: LUModel, seq) -> np.ndarray:
    """Class probability vector for one sequence of D-dim vectors."""
    return _forward(model, [_as_float_seq(model, seq)])[-1][0]


def _sample_input(model: LUModel, data) -> np.ndarray:
    """The classifier input of a corpus item: label ids through the
    embedding table for a model that has one, else a (T, D) sequence."""
    return _as_float_seq(model, data) if model.embedding is None else embed_labels(data, model)


def _batch_loss_and_grads(model: LUModel, items):
    """Cross-entropy loss and its flat gradient, laid out like
    ``model.params``, each summed over the (input, label) items of one
    minibatch; each label already checked by ``lu_train``."""
    pk, caches, top, pool, probs = _forward(model, [_sample_input(model, data) for data, _ in items])
    labels = np.array([items[i][1] for i in pk.order])
    loss = float(_nll(probs, labels).sum())

    grad = LUModel(model.config, np.zeros_like(model.params))
    dlogits = probs.copy()
    dlogits[np.arange(labels.size), labels] -= 1.0
    grad.w_out[...] = dlogits.T @ pool
    grad.b_out[...] = dlogits.sum(axis=0)
    dpool = (dlogits @ model.w_out) / pk.lengths[:, None]
    dh = np.empty_like(top)
    dh[pk.rows] = np.repeat(dpool, pk.lengths, axis=0)

    for st, g, cache in zip(reversed(model.stacked), reversed(grad.stacked), reversed(caches)):
        g.w[...], g.u[...], g.b[...], dh = _kernels.bigru_layer_backward(cache, st.w, st.u, pk, dh)

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

    def __init__(self, params, lr):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def step(self, grad):
        b1, b2 = ADAM_BETAS
        self.t += 1
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        self.m *= b1
        self.m += (1.0 - b1) * grad
        self.v *= b2
        self.v += (1.0 - b2) * grad * grad
        self.params -= self.lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + ADAM_EPS)


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
    corpus = [(data, _as_int("intent label", label, 0, config.num_intents)) for data, label in corpus]
    # An untouched 4 MiB block, freed at once, keeps each minibatch's freed
    # whole-batch arrays in the heap for the next one instead of letting
    # glibc trim them and fault them in again. glibc mmaps the block; on
    # its free the dynamic mmap threshold rises to its size and the trim
    # threshold to twice that, 8 MiB (mallopt(3)). It does nothing off
    # glibc, or once MALLOC_TRIM_THRESHOLD_, MALLOC_TOP_PAD_ or
    # MALLOC_MMAP_THRESHOLD_ is set or mallopt called, which turns the
    # dynamic threshold off. A process that has trained may keep about
    # 8 MiB of freed heap resident; batches far above 16 may churn more.
    np.empty(1 << 22, dtype=np.uint8)
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
    label = _as_int("intent label", label, 0, config.num_intents)
    model = lu_init(config)

    def loss_only():
        return float(_nll(_forward(model, [_sample_input(model, data)])[-1], np.array([label]))[0])

    _, grad = _batch_loss_and_grads(model, [(data, label)])
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
    losses = _writable(path, lambda: [_as_float("train_losses", x) for x in model.train_losses])
    meta = {"config": asdict(model.config), "train_losses": losses}
    header = json.dumps(meta, sort_keys=True, allow_nan=False).encode("utf-8")
    _write_container(path, MODEL_MAGIC, "I", (len(header),), header, model.params)


def _model_header(meta) -> tuple[LUConfig, list[float]]:
    """The config and training losses of a decoded .ctsm JSON header."""
    config = LUConfig(**meta["config"])
    losses = meta.get("train_losses", [])
    if not isinstance(losses, list):
        raise ValueError("train_losses must be a list of finite numbers")
    return config, [_as_float("train_losses", x) for x in losses]


def load_model(path) -> LUModel:
    with open(path, "rb") as fh:
        (hlen,) = _read_header(fh, MODEL_MAGIC, path, "I")
        left = os.fstat(fh.fileno()).st_size - fh.tell() - hlen  # bytes after the JSON header
        if left < 0:
            raise FormatError(f"{path}: truncated file: header declares a {hlen}-byte JSON header")
        meta = _decode_json(_read_exact(fh, hlen, "JSON header"), path, "model header")
        config, losses = _parse(path, "model header", _model_header, meta)
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
