"""The downstream intent classifier, trained from scratch.

One architecture serves all three system flavors: stacked bidirectional
3-gate gated-recurrent layers, mean-pool over time of the top layer's
concatenated direction outputs, then a linear + softmax intent head. The
pipeline flavor additionally owns a label-embedding table so decoded label
ids can be fed through the same network; only input construction differs
between flavors.

Everything runs in float64. Training computes one loss and gradient per
minibatch: the batch is packed time-major without padding
(``_kernels.pack_lengths``) and each GRU direction runs once over it
(``_kernels.gru_forward`` / ``_kernels.gru_backward``); inference is the
same path with a batch of one. Gradients are fully hand-derived and
verified against central finite differences by ``gradient_check``.

Parameter order (canonical, used by the optimizer, the gradient check and
the model file): for each layer, forward direction then backward
direction, each as (w, u, b); then output projection (w_out, b_out); then
the embedding table when present.

Model file (.ctsm): magic "CTSM" | u16 version | u32 header length |
UTF-8 JSON header (config + training losses) | float32 little-endian
parameters flattened in canonical order.
"""

from __future__ import annotations

import copy
import json
import os
import struct
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import _kernels
from .ctc import LabelSequence
from .seqcore import FORMAT_VERSION, FormatError, _read_exact

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
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.num_intents < 2:
            raise ValueError("num_intents must be >= 2")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        self.seed = int(self.seed)
        if self.vocab_size is not None and int(self.vocab_size) < 1:
            raise ValueError("vocab_size must be >= 1 when set")


@dataclass
class GRUParams:
    w: np.ndarray  # (3H, Din)
    u: np.ndarray  # (3H, H)
    b: np.ndarray  # (3H,)


@dataclass
class LUModel:
    config: LUConfig
    layers: list[tuple[GRUParams, GRUParams]]  # (forward, backward) per layer
    w_out: np.ndarray  # (K, 2H)
    b_out: np.ndarray  # (K,)
    embedding: np.ndarray | None = None  # (vocab_size, input_dim)
    train_losses: list[float] = field(default_factory=list)

    def param_arrays(self) -> list[np.ndarray]:
        """All parameters in canonical order (live references)."""
        out = []
        for fw, bw in self.layers:
            out += [fw.w, fw.u, fw.b, bw.w, bw.u, bw.b]
        out += [self.w_out, self.b_out]
        if self.embedding is not None:
            out.append(self.embedding)
        return out

    def num_params(self) -> int:
        return sum(p.size for p in self.param_arrays())


def _layer_input_dims(config: LUConfig) -> list[int]:
    return [config.input_dim] + [2 * config.hidden] * (config.layers - 1)


def _num_params(config: LUConfig) -> int:
    """Parameter count of the architecture ``lu_init`` builds for config."""
    h3 = 3 * config.hidden
    total = sum(2 * (h3 * din + h3 * config.hidden + h3) for din in _layer_input_dims(config))
    total += config.num_intents * (2 * config.hidden + 1)
    if config.vocab_size is not None:
        total += config.vocab_size * config.input_dim
    return total


def lu_init(config: LUConfig) -> LUModel:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per array.

    fan_in is the input width of each map: Din for w, H for u and b, 2H
    for the output head, input_dim for embedding rows.
    """
    rng = np.random.default_rng(config.seed)
    h = config.hidden

    def draw(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    layers = []
    for din in _layer_input_dims(config):
        fw = GRUParams(draw((3 * h, din), din), draw((3 * h, h), h), draw(3 * h, h))
        bw = GRUParams(draw((3 * h, din), din), draw((3 * h, h), h), draw(3 * h, h))
        layers.append((fw, bw))
    w_out = draw((config.num_intents, 2 * h), 2 * h)
    b_out = draw(config.num_intents, 2 * h)
    embedding = None
    if config.vocab_size is not None:
        embedding = draw((config.vocab_size, config.input_dim), config.input_dim)
    return LUModel(config, layers, w_out, b_out, embedding)


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


def embed_labels(ids, model: LUModel) -> np.ndarray:
    """Row-lookup of decoded label ids; an empty decode maps to one
    all-zero vector so the classifier always sees T >= 1."""
    if model.embedding is None:
        raise ValueError("model has no embedding table")
    if isinstance(ids, LabelSequence):
        ids = ids.ids
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size == 0:
        return np.zeros((1, model.config.input_dim))
    if ids.min() < 0 or ids.max() >= model.embedding.shape[0]:
        raise ValueError("label id out of embedding range")
    return model.embedding[ids]


def _pack(xs):
    """Packing of (T_i, D) inputs and the packed (N, D) input rows."""
    pk = _kernels.pack_lengths([x.shape[0] for x in xs])
    packed = np.empty((pk.rows.size, xs[0].shape[1]))
    packed[pk.rows] = np.concatenate([xs[i] for i in pk.order])
    return pk, packed


def _bigru_forward(model: LUModel, pk: _kernels.Packing, x):
    """Run all layers; caches hold per-direction (input, h), the
    backward direction's in its reversed row order."""
    cur = x
    caches = []
    for fw, bw in model.layers:
        hf = _kernels.gru_forward(cur, fw.w, fw.u, fw.b, pk)
        xr = cur[pk.rev]
        hb = _kernels.gru_forward(xr, bw.w, bw.u, bw.b, pk)
        caches.append((cur, hf, xr, hb))
        cur = np.concatenate((hf, hb[pk.rev]), axis=1)
    return cur, caches


def _head_forward(model: LUModel, pk: _kernels.Packing, top):
    """Mean-pool each sequence's top-layer rows, then linear + softmax;
    returns (pool, probs), one row per rank."""
    starts = np.cumsum(pk.lengths) - pk.lengths
    pool = np.add.reduceat(top[pk.rows], starts, axis=0) / pk.lengths[:, None]
    logits = pool @ model.w_out.T + model.b_out
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return pool, e / e.sum(axis=1, keepdims=True)


def _probs(model: LUModel, xs) -> np.ndarray:
    """Class probabilities of each input, one row per rank."""
    pk, x = _pack(xs)
    top, _ = _bigru_forward(model, pk, x)
    return _head_forward(model, pk, top)[1]


def _nll(probs, labels) -> np.ndarray:
    return -np.log(np.maximum(probs[np.arange(labels.size), labels], 1e-30))


def lu_forward(model: LUModel, seq) -> np.ndarray:
    """Class probability vector for one sequence of D-dim vectors."""
    return _probs(model, [_as_float_seq(model, seq)])[0]


def lu_classify(model: LUModel, seq) -> int:
    """Argmax intent; ties break to the lowest class id."""
    return int(np.argmax(lu_forward(model, seq)))


def _sample_input(model: LUModel, data):
    """Resolve a corpus item: either a (T, D) float sequence or label ids
    routed through the embedding table. Returns (x, ids-or-None)."""
    if isinstance(data, LabelSequence) or (
        isinstance(data, np.ndarray) and data.dtype.kind in "iu"
    ) or (isinstance(data, (list, tuple)) and all(isinstance(v, (int, np.integer)) for v in data)):
        ids = data.ids if isinstance(data, LabelSequence) else np.asarray(data, dtype=np.int64)
        x = np.ascontiguousarray(embed_labels(ids, model))
        return x, (ids if ids.size else None)
    return _as_float_seq(model, data), None


def _batch_loss_and_grads(model: LUModel, items):
    """Cross-entropy loss and gradients in canonical parameter order,
    each summed over the (input, label) items of one minibatch."""
    resolved = [_sample_input(model, data) for data, _ in items]
    pk, x = _pack([xi for xi, _ in resolved])
    labels = np.array([int(items[i][1]) for i in pk.order])
    h = model.config.hidden
    top, caches = _bigru_forward(model, pk, x)
    pool, probs = _head_forward(model, pk, top)
    loss = float(_nll(probs, labels).sum())

    dlogits = probs.copy()
    dlogits[np.arange(labels.size), labels] -= 1.0
    dw_out = dlogits.T @ pool
    db_out = dlogits.sum(axis=0)
    dpool = (dlogits @ model.w_out) / pk.lengths[:, None]
    dh = np.empty_like(top)
    dh[pk.rows] = np.repeat(dpool, pk.lengths, axis=0)

    layer_grads = []
    for (fw, bw), (xin, hf, xr, hb) in zip(reversed(model.layers), reversed(caches)):
        dwf, duf, dbf, dxf = _kernels.gru_backward(xin, hf, fw.w, fw.u, fw.b, pk, dh[:, :h])
        dwb, dub, dbb, dxb = _kernels.gru_backward(xr, hb, bw.w, bw.u, bw.b, pk, dh[pk.rev, h:])
        layer_grads.append([dwf, duf, dbf, dwb, dub, dbb])
        dh = dxf + dxb[pk.rev]

    grads = []
    for g in reversed(layer_grads):
        grads += g
    grads += [dw_out, db_out]
    if model.embedding is not None:
        ids = np.empty(pk.rows.size, dtype=np.int64)
        ranked = (resolved[k] for k in pk.order)
        ids[pk.rows] = np.concatenate(
            [np.full(len(xi), -1) if xi_ids is None else xi_ids for xi, xi_ids in ranked]
        )
        real = ids >= 0  # an empty decode's zero row has no table row
        demb = np.zeros_like(model.embedding)
        np.add.at(demb, ids[real], dh[real])
        grads.append(demb)
    return loss, grads


def _loss_and_grads(model: LUModel, data, label: int):
    """Cross-entropy loss and gradients of one sample (a batch of one)."""
    return _batch_loss_and_grads(model, [(data, label)])


class _Adam:
    """Adaptive-moment estimation with bias correction."""

    def __init__(self, params, lr, betas=ADAM_BETAS, eps=ADAM_EPS):
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads):
        self.t += 1
        bc1 = 1.0 - self.b1**self.t
        bc2 = 1.0 - self.b2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def _clone_for_training(init_model: LUModel, config: LUConfig) -> LUModel:
    base = init_model.config
    same = (
        base.input_dim == config.input_dim
        and base.hidden == config.hidden
        and base.layers == config.layers
        and base.num_intents == config.num_intents
        and base.vocab_size == config.vocab_size
    )
    if not same:
        raise ValueError("init_model architecture does not match config")
    model = copy.deepcopy(init_model)
    model.config = replace(config)
    model.train_losses = []
    return model


def lu_train(config: LUConfig, corpus, init_model: LUModel | None = None) -> LUModel:
    """Mini-batch Adam on cross-entropy; deterministic given config.seed.

    corpus items are (input, intent) pairs where input is a (T, D) float
    sequence or, in embedding mode, a sequence of label ids. Pass
    init_model to fine-tune existing parameters instead of initializing
    fresh ones.
    """
    if not corpus:
        raise ValueError("corpus must be non-empty")
    for _, label in corpus:
        if not 0 <= int(label) < config.num_intents:
            raise ValueError(f"intent label {label} out of range")
    model = lu_init(config) if init_model is None else _clone_for_training(init_model, config)
    params = model.param_arrays()
    opt = _Adam(params, config.learning_rate)
    rng = np.random.default_rng(config.seed)
    n = len(corpus)
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for lo in range(0, n, config.batch_size):
            batch = perm[lo : lo + config.batch_size]
            batch_loss, grads = _batch_loss_and_grads(model, [corpus[i] for i in batch])
            scale = 1.0 / len(batch)
            for g in grads:
                g *= scale
            opt.step(grads)
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
        return float(_nll(_probs(model, [_sample_input(model, data)[0]]), labels)[0])

    _, grads = _loss_and_grads(model, data, int(label))
    step = 1e-5
    max_rel = 0.0
    for p, g in zip(model.param_arrays(), grads):
        flat = p.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_only()
            flat[i] = orig - step
            down = loss_only()
            flat[i] = orig
            numeric = (up - down) / (2.0 * step)
            rel = abs(numeric - gflat[i]) / max(abs(numeric), abs(gflat[i]), 1e-6)
            max_rel = max(max_rel, rel)
    return max_rel


def save_model(path, model: LUModel):
    """Write the .ctsm container; parameters in canonical order as f32."""
    cfg = asdict(model.config)
    header = json.dumps(
        {"config": cfg, "train_losses": [float(x) for x in model.train_losses]},
        sort_keys=True,
    ).encode("utf-8")
    flat = np.concatenate([p.ravel() for p in model.param_arrays()])
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<HI", FORMAT_VERSION, len(header)))
        fh.write(header)
        fh.write(flat.astype("<f4").tobytes())


def load_model(path) -> LUModel:
    with open(path, "rb") as fh:
        head = _read_exact(fh, 10, "header")
        magic, version, hlen = struct.unpack("<4sHI", head)
        if magic != MODEL_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {MODEL_MAGIC!r}")
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if 10 + hlen > os.fstat(fh.fileno()).st_size:
            raise FormatError(f"{path}: truncated file: header declares a {hlen}-byte JSON header")
        try:
            meta = json.loads(_read_exact(fh, hlen, "JSON header").decode("utf-8"))
            config = LUConfig(**meta["config"])
        except (ValueError, KeyError, TypeError) as exc:
            raise FormatError(f"{path}: invalid model header: {exc}") from exc
        blob = fh.read()
    expected = _num_params(config)
    if len(blob) != 4 * expected:
        raise FormatError(
            f"{path}: {len(blob)} parameter bytes do not match config "
            f"({expected} float32 parameters, {4 * expected} bytes)"
        )
    flat = np.frombuffer(blob, dtype="<f4").astype(np.float64)
    if not np.isfinite(flat).all():
        raise FormatError(f"{path}: non-finite parameter values")
    model = lu_init(config)
    pos = 0
    for p in model.param_arrays():
        p[...] = flat[pos : pos + p.size].reshape(p.shape)
        pos += p.size
    model.train_losses = [float(x) for x in meta.get("train_losses", [])]
    return model
