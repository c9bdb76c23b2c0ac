"""Core sequence types, frame-level softmax/argmax, and their file formats."""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

PROB_FLOOR = 1e-30
FORMAT_VERSION = 1
LSEQ_MAGIC = b"CTSQ"
PROJ_MAGIC = b"CTSP"

_HEADER = struct.Struct("<4sHII")


class FormatError(ValueError):
    """A binary or JSON artifact on disk is malformed."""


def _require_finite(name, arr):
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or Inf")


@dataclass
class LatentSequence:
    """A T x D matrix of per-frame encoder activations."""

    frames: np.ndarray
    frame_shift_ms: float = 10.0

    def __post_init__(self):
        self.frames = np.ascontiguousarray(self.frames, dtype=np.float32)
        if self.frames.ndim != 2 or self.frames.shape[0] < 1 or self.frames.shape[1] < 1:
            raise ValueError(f"frames must be (T>=1, D>=1), got {self.frames.shape}")
        _require_finite("frames", self.frames)
        self.frame_shift_ms = float(self.frame_shift_ms)
        if not (np.isfinite(self.frame_shift_ms) and self.frame_shift_ms > 0):
            raise ValueError(f"frame_shift_ms must be positive, got {self.frame_shift_ms}")

    @property
    def num_frames(self):
        return self.frames.shape[0]

    @property
    def dim(self):
        return self.frames.shape[1]


@dataclass
class Vocabulary:
    """Ordered label set with a designated blank label."""

    labels: list[str]
    blank_index: int = 0

    def __post_init__(self):
        self.labels = list(self.labels)
        if not self.labels:
            raise ValueError("labels must be non-empty")
        if any(not isinstance(s, str) or not s for s in self.labels):
            raise ValueError("labels must be non-empty strings")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be unique")
        self.blank_index = int(self.blank_index)
        if not 0 <= self.blank_index < len(self.labels):
            raise ValueError(f"blank_index {self.blank_index} out of range")

    @property
    def size(self):
        return len(self.labels)

    @property
    def blank_label(self):
        return self.labels[self.blank_index]


@dataclass
class ProjectionMatrix:
    """The V x D linear map from latent space to label logits."""

    weights: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self):
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float32)
        if self.weights.ndim != 2 or min(self.weights.shape) < 1:
            raise ValueError(f"weights must be (V>=1, D>=1), got {self.weights.shape}")
        if self.bias is None:
            self.bias = np.zeros(self.weights.shape[0], dtype=np.float32)
        self.bias = np.ascontiguousarray(self.bias, dtype=np.float32)
        if self.bias.shape != (self.weights.shape[0],):
            raise ValueError(
                f"bias shape {self.bias.shape} does not match V={self.weights.shape[0]}"
            )
        _require_finite("weights", self.weights)
        _require_finite("bias", self.bias)

    @property
    def num_labels(self):
        return self.weights.shape[0]

    @property
    def dim(self):
        return self.weights.shape[1]


@dataclass
class PosteriorGrid:
    """T x V row-stochastic per-frame label posteriors and their logs.

    log_probs are floored at PROB_FLOOR before the log so that -inf never
    enters downstream forward sums.
    """

    probs: np.ndarray
    log_probs: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.probs = np.ascontiguousarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 2 or min(self.probs.shape) < 1:
            raise ValueError(f"probs must be (T>=1, V>=1), got {self.probs.shape}")
        _require_finite("probs", self.probs)
        if self.probs.min() < 0.0 or self.probs.max() > 1.0 + 1e-9:
            raise ValueError("probs must lie in [0, 1]")
        row_sums = self.probs.sum(axis=1)
        if np.abs(row_sums - 1.0).max() > 1e-6:
            raise ValueError("each probs row must sum to 1 within 1e-6")
        expected_logs = np.log(np.maximum(self.probs, PROB_FLOOR))
        if self.log_probs is None:
            self.log_probs = expected_logs
        else:
            self.log_probs = np.ascontiguousarray(self.log_probs, dtype=np.float64)
            if self.log_probs.shape != self.probs.shape:
                raise ValueError("log_probs shape must match probs")
            if np.abs(self.log_probs - expected_logs).max() > 1e-6:
                raise ValueError("log_probs must equal ln(floored probs) within 1e-6")

    @property
    def num_frames(self):
        return self.probs.shape[0]

    @property
    def num_labels(self):
        return self.probs.shape[1]


@dataclass
class FramePath:
    """Per-frame argmax labels and their posterior scores."""

    arg_labels: np.ndarray
    arg_scores: np.ndarray

    def __post_init__(self):
        self.arg_labels = np.ascontiguousarray(self.arg_labels, dtype=np.int64)
        self.arg_scores = np.ascontiguousarray(self.arg_scores, dtype=np.float64)
        if self.arg_labels.ndim != 1 or self.arg_labels.shape[0] < 1:
            raise ValueError("arg_labels must be a non-empty 1-d array")
        if self.arg_scores.shape != self.arg_labels.shape:
            raise ValueError("arg_scores must match arg_labels in length")
        if self.arg_labels.min() < 0:
            raise ValueError("arg_labels must be non-negative")
        if self.arg_scores.min() < 0.0 or self.arg_scores.max() > 1.0 + 1e-9:
            raise ValueError("arg_scores must lie in [0, 1]")

    @property
    def num_frames(self):
        return self.arg_labels.shape[0]


def _softmax_probs(seq: LatentSequence, proj: ProjectionMatrix) -> np.ndarray:
    """The (T, V) float64 softmax of weights @ frame + bias, per frame.

    Inputs are taken as finite, which ``LatentSequence`` and
    ``ProjectionMatrix`` enforce at construction.
    """
    if proj.dim != seq.dim:
        raise ValueError(
            f"dimension mismatch: projection expects D={proj.dim}, sequence has D={seq.dim}"
        )
    logits = seq.frames.astype(np.float64) @ proj.weights.T.astype(np.float64)
    logits += proj.bias.astype(np.float64)
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def _argmax_path(probs: np.ndarray) -> FramePath:
    labels = np.argmax(probs, axis=1)
    return FramePath(labels, probs[np.arange(probs.shape[0]), labels])


def project_softmax(seq: LatentSequence, proj: ProjectionMatrix) -> PosteriorGrid:
    """Per-frame softmax over label logits weights @ frame + bias.

    Logits are computed in float64 with the per-row maximum subtracted
    before exponentiation, so magnitudes up to ~1e4 stay stable.
    """
    _require_finite("frames", seq.frames)
    _require_finite("weights", proj.weights)
    return PosteriorGrid(_softmax_probs(seq, proj))


def frame_argmax(grid: PosteriorGrid) -> FramePath:
    """Argmax label per frame; ties break to the lowest label index."""
    return _argmax_path(grid.probs)


# ---------------------------------------------------------------------------
# file formats (all little-endian)
#
# .lseq : "CTSQ" | u16 version | u32 T | u32 D | f32 frame_shift_ms | f32[T*D]
# .proj : "CTSP" | u16 version | u32 V | u32 D | f32[V*D] weights | f32[V] bias
# vocab : JSON {"blank_index": int, "labels": [str, ...]}
# ---------------------------------------------------------------------------


def _read_exact(fh, count, what):
    data = fh.read(count)
    if len(data) != count:
        raise FormatError(f"truncated file while reading {what}")
    return data


def _require_size(fh, path, declared):
    """Reject a file whose size differs from the ``declared`` total its
    header implies, before any payload is read (or allocated)."""
    actual = os.fstat(fh.fileno()).st_size
    if actual < declared:
        raise FormatError(f"{path}: truncated file: header declares {declared} bytes, file has {actual}")
    if actual > declared:
        raise FormatError(f"{path}: trailing bytes: header declares {declared} bytes, file has {actual}")


def _read_header(fh, magic, path):
    raw = _read_exact(fh, _HEADER.size + 4, "header")
    got_magic, version, a, b = _HEADER.unpack(raw[: _HEADER.size])
    if got_magic != magic:
        raise FormatError(f"{path}: bad magic {got_magic!r}, expected {magic!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    (extra,) = struct.unpack("<f", raw[_HEADER.size :])
    return a, b, extra


def write_lseq(path, seq: LatentSequence):
    with open(path, "wb") as fh:
        t, d = seq.frames.shape
        fh.write(_HEADER.pack(LSEQ_MAGIC, FORMAT_VERSION, t, d))
        fh.write(struct.pack("<f", seq.frame_shift_ms))
        fh.write(seq.frames.astype("<f4").tobytes())


def read_lseq(path) -> LatentSequence:
    with open(path, "rb") as fh:
        t, d, shift = _read_header(fh, LSEQ_MAGIC, path)
        _require_size(fh, path, _HEADER.size + 4 + 4 * t * d)
        data = _read_exact(fh, 4 * t * d, "frame data")
    try:
        return LatentSequence(np.frombuffer(data, dtype="<f4").reshape(t, d), shift)
    except ValueError as exc:
        raise FormatError(f"{path}: invalid latent sequence: {exc}") from exc


def write_proj(path, proj: ProjectionMatrix):
    with open(path, "wb") as fh:
        v, d = proj.weights.shape
        fh.write(PROJ_MAGIC)
        fh.write(struct.pack("<HII", FORMAT_VERSION, v, d))
        fh.write(proj.weights.astype("<f4").tobytes())
        fh.write(proj.bias.astype("<f4").tobytes())


def read_proj(path) -> ProjectionMatrix:
    with open(path, "rb") as fh:
        raw = _read_exact(fh, _HEADER.size, "header")
        magic, version, v, d = _HEADER.unpack(raw)
        if magic != PROJ_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {PROJ_MAGIC!r}")
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        _require_size(fh, path, _HEADER.size + 4 * v * d + 4 * v)
        weights = np.frombuffer(_read_exact(fh, 4 * v * d, "weights"), dtype="<f4")
        bias = np.frombuffer(_read_exact(fh, 4 * v, "bias"), dtype="<f4")
    try:
        return ProjectionMatrix(weights.reshape(v, d), bias)
    except ValueError as exc:
        raise FormatError(f"{path}: invalid projection: {exc}") from exc


def write_vocab(path, vocab: Vocabulary):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"blank_index": vocab.blank_index, "labels": vocab.labels}, fh)
        fh.write("\n")


def read_vocab(path) -> Vocabulary:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return Vocabulary(obj["labels"], obj["blank_index"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: invalid vocabulary: {exc}") from exc
