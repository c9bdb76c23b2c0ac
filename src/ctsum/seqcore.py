"""Core sequence types, frame-level softmax/argmax, and their file formats."""

from __future__ import annotations

import json
import math
import numbers
import operator
import os
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

PROB_FLOOR = 1e-30
FORMAT_VERSION = 1
LSEQ_MAGIC = b"CTSQ"
PROJ_MAGIC = b"CTSP"


class FormatError(ValueError):
    """A binary or JSON artifact on disk is malformed."""


def _as_int(name: str, value) -> int:
    """An integer field, e.g. from JSON: a float or bool is an error, not
    truncated."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def _as_float(name: str, value) -> float:
    """A real field, e.g. from JSON: a bool, a string or a non-finite
    value is an error."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
        return float(value)
    raise TypeError(f"{name} must be a finite number, got {value!r}")


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
        if isinstance(self.labels, str):
            raise ValueError("labels must be a list of strings, not one string")
        self.labels = list(self.labels)
        if not self.labels:
            raise ValueError("labels must be non-empty")
        if any(not isinstance(s, str) or not s for s in self.labels):
            raise ValueError("labels must be non-empty strings")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be unique")
        self.blank_index = _as_int("blank_index", self.blank_index)
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
    """T x V row-stochastic per-frame label posteriors.

    ``log_probs`` is computed on first use and kept: the logs are floored
    at PROB_FLOOR so that -inf never enters downstream forward sums, and
    only CTC scoring reads the whole grid.
    """

    probs: np.ndarray

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

    @classmethod
    def _of_softmax(cls, probs: np.ndarray) -> PosteriorGrid:
        """Wrap the softmax of inputs ``project_softmax`` checked finite: it
        holds ``__post_init__``'s invariants, so they are not checked again."""
        grid = cls.__new__(cls)
        grid.probs = probs
        return grid

    @cached_property
    def log_probs(self) -> np.ndarray:
        return np.log(np.maximum(self.probs, PROB_FLOOR))

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


def _argmax_path(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each frame's argmax label (the lowest on ties) and its probability."""
    labels = np.argmax(probs, axis=1)
    return labels, probs[np.arange(probs.shape[0]), labels]


def segment_path(labels: np.ndarray) -> np.ndarray:
    """Run-length encode a per-frame label path into the S + 1 bounds of
    its maximal runs of equal labels: run i covers frames
    [bounds[i], bounds[i + 1]), from 0 to T."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("cannot segment an empty path")
    edge = np.empty(labels.size + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(labels[1:], labels[:-1], out=edge[1:-1])
    return edge.nonzero()[0]


def project_softmax(seq: LatentSequence, proj: ProjectionMatrix) -> PosteriorGrid:
    """Per-frame softmax over label logits weights @ frame + bias.

    Logits are computed in float64 with the per-row maximum subtracted
    before exponentiation, so magnitudes up to ~1e4 stay stable.
    """
    _require_finite("frames", seq.frames)
    _require_finite("weights", proj.weights)
    _require_finite("bias", proj.bias)
    return PosteriorGrid._of_softmax(_softmax_probs(seq, proj))


def frame_argmax(grid: PosteriorGrid) -> FramePath:
    """Argmax label per frame; ties break to the lowest label index."""
    return FramePath(*_argmax_path(grid.probs))


# ---------------------------------------------------------------------------
# file formats (all little-endian)
#
# A binary container is "magic | u16 version | header fields", then its
# payloads, f32 arrays row-major. ``_write_container`` and ``_read_header``
# are the only code that frames one.
#
# .lseq : "CTSQ" | u16 version | u32 T | u32 D | f32 frame_shift_ms | f32[T*D]
# .proj : "CTSP" | u16 version | u32 V | u32 D | f32[V*D] weights | f32[V] bias
# .sseq : "CTSS" | u16 version | u32 S | u32 D | f32 frame_shift_ms |
#         f32[S*D] vectors | S segment records (``cts``)
# .ctsm : "CTSM" | u16 version | u32 n | n bytes UTF-8 JSON header |
#         f32 parameters (``lu``)
# vocab : JSON {"blank_index": int, "labels": [str, ...]}; spec and
#         manifest lines are JSON too, all read through ``_decode_json``
# ---------------------------------------------------------------------------


def _read_exact(fh, count, what):
    data = fh.read(count)
    if len(data) != count:
        raise FormatError(f"truncated file while reading {what}")
    return data


def _read_f32(fh, count, what) -> np.ndarray:
    return np.frombuffer(_read_exact(fh, 4 * count, what), dtype="<f4")


def _require_size(fh, path, payload):
    """Reject a file whose bytes after the header differ from its declared
    ``payload`` count, before any payload is read (or allocated)."""
    actual = os.fstat(fh.fileno()).st_size
    declared = fh.tell() + payload
    if actual < declared:
        raise FormatError(f"{path}: truncated file: header declares {declared} bytes, file has {actual}")
    if actual > declared:
        raise FormatError(f"{path}: trailing bytes: header declares {declared} bytes, file has {actual}")


def _read_header(fh, magic, path, fields="IIf"):
    """Read a "magic | u16 version | fields" header (struct codes), check
    its magic and version, and return the fields' values."""
    header = struct.Struct("<4sH" + fields)
    got_magic, version, *values = header.unpack(_read_exact(fh, header.size, "header"))
    if got_magic != magic:
        raise FormatError(f"{path}: bad magic {got_magic!r}, expected {magic!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    return values


def _write_container(path, magic, fields, values, *payloads):
    """Write a "magic | u16 version | fields" header (struct codes), then
    each payload: bytes as they are, arrays as f32."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sH" + fields, magic, FORMAT_VERSION, *values))
        for data in payloads:
            fh.write(data if isinstance(data, bytes) else data.astype("<f4").tobytes())


def _decode_json(data: bytes, where, what="JSON"):
    """The UTF-8 JSON document in ``data``; ``where`` names its file."""
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise FormatError(f"{where}: invalid {what}: {exc}") from exc


def write_lseq(path, seq: LatentSequence):
    _write_container(path, LSEQ_MAGIC, "IIf", (*seq.frames.shape, seq.frame_shift_ms), seq.frames)


def read_lseq(path) -> LatentSequence:
    with open(path, "rb") as fh:
        t, d, shift = _read_header(fh, LSEQ_MAGIC, path)
        _require_size(fh, path, 4 * t * d)
        frames = _read_f32(fh, t * d, "frame data")
    try:
        return LatentSequence(frames.reshape(t, d), shift)
    except ValueError as exc:
        raise FormatError(f"{path}: invalid latent sequence: {exc}") from exc


def write_proj(path, proj: ProjectionMatrix):
    _write_container(path, PROJ_MAGIC, "II", proj.weights.shape, proj.weights, proj.bias)


def read_proj(path) -> ProjectionMatrix:
    with open(path, "rb") as fh:
        v, d = _read_header(fh, PROJ_MAGIC, path, "II")
        _require_size(fh, path, 4 * v * d + 4 * v)
        weights = _read_f32(fh, v * d, "weights")
        bias = _read_f32(fh, v, "bias")
    try:
        return ProjectionMatrix(weights.reshape(v, d), bias)
    except ValueError as exc:
        raise FormatError(f"{path}: invalid projection: {exc}") from exc


def write_vocab(path, vocab: Vocabulary):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"blank_index": vocab.blank_index, "labels": vocab.labels}, fh)
        fh.write("\n")


def read_vocab(path) -> Vocabulary:
    with open(path, "rb") as fh:
        obj = _decode_json(fh.read(), path)
    try:
        return Vocabulary(obj["labels"], obj["blank_index"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: invalid vocabulary: {exc}") from exc
