"""Core sequence types, frame-level softmax/argmax, and their file formats."""

from __future__ import annotations

import json
import numbers
import operator
import os
import stat
import struct
from dataclasses import dataclass
from sys import float_info

import numpy as np

PROB_FLOOR = 1e-30
FORMAT_VERSION = 1
LSEQ_MAGIC = b"CTSQ"
PROJ_MAGIC = b"CTSP"
_INT64 = np.dtype(np.int64)


class FormatError(ValueError):
    """A binary or JSON artifact on disk is malformed."""


def _as_int(name: str, value, lo=None, hi=None) -> int:
    """An integer field, e.g. from JSON: a float or bool is an error, not
    truncated. With ``lo`` it must be >= lo; with ``hi`` too, in [lo, hi).
    The one code that turns a caller's scalar into an integer."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if hi is not None and not lo <= value < hi:
        raise ValueError(f"{name} {value} out of range: {name} must be in [{lo}, {hi})")
    if lo is not None and value < lo:
        raise ValueError(f"{name} must be >= {lo}, got {value}")
    return value


def _label_ids(ids, name="label ids") -> np.ndarray:
    """Integer ids as a 1-d int64 array, not copied when already one; float,
    bool and string ids are an error, not truncated or parsed. The one code
    that turns a caller's array into integers."""
    if type(ids) is np.ndarray and ids.dtype is _INT64 and ids.ndim == 1:
        return ids  # what numpy's argmax, nonzero and sorts return, as is
    arr = np.asarray(ids)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise ValueError(f"{name} must be a 1-d integer sequence, got {arr.dtype} {arr.shape}")
    # the cast below wraps a uint64 id above the int64 range to a negative one
    if arr.dtype.kind == "u" and arr.dtype.itemsize == 8 and arr.size and arr.max() >= 2**63:
        raise ValueError(f"{name} must fit in int64, got {arr.max()}")
    # numpy casts a bool among ints to int64, so a sequence, not yet an
    # array, is searched for one; an array is not searched
    if arr is not ids and any(isinstance(i, (bool, np.bool_)) for i in ids):
        raise ValueError(f"{name} must be a 1-d integer sequence, got a bool in {ids!r}")
    return arr.astype(np.int64, copy=False)


def _as_reals(name: str, values, dtype) -> np.ndarray:
    """A caller's real-valued array as a C-contiguous ``dtype`` array; bool,
    complex, string and object arrays, ragged nestings and values of a
    wider float beyond ``dtype``'s range are an error, not cast, parsed or
    turned into infinities. The one code that turns a caller's array into
    floats."""
    try:
        arr = np.asarray(values)
    except ValueError:  # numpy's "inhomogeneous shape", which names no input
        raise ValueError(f"{name} must be real numbers, got a ragged sequence") from None
    if arr.dtype.kind not in "fiu":
        raise ValueError(f"{name} must be real numbers, got {arr.dtype}")
    try:
        return _cast(arr, dtype, over="raise")
    except FloatingPointError:
        raise ValueError(f"{name} holds a value beyond the {np.dtype(dtype)} range") from None


def _cast(arr: np.ndarray, dtype, over: str) -> np.ndarray:
    """``arr`` as a C-contiguous ``dtype`` array. A narrowing float cast,
    whose overflow numpy would warn of and turn into an infinity, runs
    under ``np.errstate(over=over)``; no other cast pays for that."""
    if arr.dtype <= dtype or arr.dtype.kind != "f":  # the same or a safe cast, or from integers
        return np.ascontiguousarray(arr, dtype=dtype)
    with np.errstate(over=over):
        return np.ascontiguousarray(arr, dtype=dtype)


def _is_real(value) -> bool:
    """The type rule of every real field: a real number, not a bool (or
    a string, which is no number)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _as_float(name: str, value) -> float:
    """A real field, e.g. from JSON: a bool, a string, NaN, an infinity or
    an int too large for a float (so beyond the bound) is an error.

    An exact number (an int, a numpy integer, a fraction) is held to the
    bound before ``float()`` sees it; any other real is converted first,
    since numpy would compare a float32 with the bound cast to float32,
    which overflows. No ``abs``: it overflows on int8's -128."""
    if _is_real(value):
        x = value if isinstance(value, numbers.Rational) else float(value)
        if -float_info.max <= x <= float_info.max:
            return float(x)
    raise TypeError(f"{name} must be a finite number, got {value!r}")


def _as_rate(name: str, value) -> float:
    """A step size: a finite number > 0."""
    if (rate := _as_float(name, value)) > 0:
        return rate
    raise ValueError(f"{name} must be positive")


def _floored_log(probs: np.ndarray) -> np.ndarray:
    """Logs of probabilities floored at PROB_FLOOR: -inf never enters a sum."""
    return np.log(np.maximum(probs, PROB_FLOOR))


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Softmax of each row of float64 logits, in place: the row maximum
    is subtracted before exponentiation."""
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def _require_finite(name, arr):
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or Inf")


def _as_real(name: str, value) -> float:
    """A real field as a float, NaN and the infinities included: a bool, a
    string or an exact number beyond the float range is a ``TypeError``,
    as for every real field (``_is_real``, ``_as_float``)."""
    if not _is_real(value):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if isinstance(value, numbers.Rational):  # float() would overflow, naming no field
        return _as_float(name, value)
    return float(value)


def _frame_shift(value) -> float:
    """``frame_shift_ms`` as a float (``_as_real``), positive and finite
    also as the float32 ``.lseq`` and ``.sseq`` store: the bounds are the
    halfway points that round to 0 and to inf in float32."""
    shift = _as_real("frame_shift_ms", value)
    if not 2.0**-150 < shift < 2.0**128 - 2.0**103:  # NaN fails too
        raise ValueError(f"frame_shift_ms must be positive and finite as float32, got {shift}")
    return shift


def _sealed(name: str, values, ndim: int) -> np.ndarray:
    """``values`` as ``_as_reals`` makes it float32: ``ndim``-d with no
    empty axis, finite, read-only and written by nothing else. It is
    copied, unless the conversion made a new array (from a list, or by a
    cast); an object's ``__array__`` may return an array the object still
    holds, so that is copied too."""
    arr = _as_reals(name, values, np.float32)
    if arr.ndim != ndim or 0 in arr.shape:
        raise ValueError(f"{name} must be a {ndim}-d array with no empty axis, got {arr.shape}")
    _require_finite(name, arr)
    if arr is values or arr.base is not None or not isinstance(values, (np.ndarray, list, tuple)):
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class LatentSequence:
    """A T x D matrix of per-frame encoder activations.

    Frozen, over a read-only float32 array of its own: construction checks
    it once, and no later assignment or write can break what was checked.
    """

    frames: np.ndarray
    frame_shift_ms: float = 10.0

    def __post_init__(self):
        object.__setattr__(self, "frames", _sealed("frames", self.frames, 2))
        object.__setattr__(self, "frame_shift_ms", _frame_shift(self.frame_shift_ms))

    def __reduce__(self):  # copy and pickle rebuild through __post_init__
        return type(self), (self.frames, self.frame_shift_ms)

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
        if not isinstance(self.labels, (list, tuple)):
            kind = "one string" if isinstance(self.labels, str) else type(self.labels).__name__
            raise ValueError(f"labels must be a list of strings, not {kind}")
        self.labels = list(self.labels)
        if not self.labels:
            raise ValueError("labels must be non-empty")
        if any(not isinstance(s, str) or not s for s in self.labels):
            raise ValueError("labels must be non-empty strings")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be unique")
        self.blank_index = _as_int("blank_index", self.blank_index, 0, len(self.labels))

    @property
    def size(self):
        return len(self.labels)

    @property
    def blank_label(self):
        return self.labels[self.blank_index]

    def check_transcript(self, ids):
        """The transcript rule, e.g. of a CTC target: ``ids`` (integer, as
        ``_label_ids`` takes them) are labels of this vocabulary, none of
        them the blank. The first id that is not is named."""
        ids = _label_ids(ids)
        bad = (ids < 0) | (ids >= self.size) | (ids == self.blank_index)
        if np.count_nonzero(bad):
            lab = int(ids[bad.argmax()])
            what = "the blank" if lab == self.blank_index else f"outside [0, {self.size})"
            raise ValueError(f"label {lab} is {what}")


@dataclass(frozen=True)
class ProjectionMatrix:
    """The V x D linear map from latent space to label logits; frozen over
    read-only float32 arrays of its own, as ``LatentSequence`` is."""

    weights: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self):
        weights = _sealed("weights", self.weights, 2)
        bias = _sealed("bias", np.zeros(len(weights)) if self.bias is None else self.bias, 1)
        if len(bias) != len(weights):
            raise ValueError(f"bias length {len(bias)} does not match V={len(weights)}")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "bias", bias)

    def __reduce__(self):
        return type(self), (self.weights, self.bias)

    @property
    def num_labels(self):
        return self.weights.shape[0]

    @property
    def dim(self):
        return self.weights.shape[1]


@dataclass
class PosteriorGrid:
    """T x V row-stochastic per-frame label posteriors.

    A grid keeps no logs: each reader logs the cells it needs from the
    ``probs`` of that moment, floored at PROB_FLOOR (``_floored_log``)
    so that -inf never enters a sum. CTC scoring logs the blank's and
    the target labels' columns, best-path decoding the T path cells.
    """

    probs: np.ndarray

    def __post_init__(self):
        self.probs = _as_reals("probs", self.probs, np.float64)
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
        """Wrap the output of ``_softmax_probs``: it holds ``__post_init__``'s
        invariants, so they are not checked again."""
        grid = cls.__new__(cls)
        grid.probs = probs
        return grid

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
        self.arg_labels = np.ascontiguousarray(_label_ids(self.arg_labels, "arg_labels"))
        self.arg_scores = _as_reals("arg_scores", self.arg_scores, np.float64)
        _require_finite("arg_scores", self.arg_scores)
        if self.arg_labels.size == 0:
            raise ValueError("arg_labels must be non-empty")
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

    Both inputs are frozen over finite float32 arrays, so every float64
    logit is finite: at most D * (3.4e38)**2 + 3.4e38, about D * 1.2e77.
    The row maximum is subtracted before exp, so logits up to ~1e4 stay
    stable."""
    if proj.dim != seq.dim:
        raise ValueError(
            f"dimension mismatch: projection expects D={proj.dim}, sequence has D={seq.dim}"
        )
    logits = seq.frames.astype(np.float64) @ proj.weights.T.astype(np.float64)
    logits += proj.bias.astype(np.float64)
    return _softmax_rows(logits)


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
    """Per-frame softmax over label logits weights @ frame + bias, as a
    grid (see ``_softmax_probs``)."""
    return PosteriorGrid._of_softmax(_softmax_probs(seq, proj))


def frame_argmax(grid: PosteriorGrid) -> FramePath:
    """Argmax label per frame; ties break to the lowest label index."""
    return FramePath(*_argmax_path(grid.probs))


# ---------------------------------------------------------------------------
# file formats (all little-endian)
#
# A binary container is "magic | u16 version | header fields", then its
# payloads, f32 arrays row-major. ``_write_container``, ``_read_header``
# and ``_read_payload`` are the only code that frames one.
#
# Each in-memory type validates itself at construction. A reader only
# frames and constructs through ``_parse``. ``LatentSequence`` and
# ``ProjectionMatrix`` are frozen over read-only arrays, so they hold
# when written what they held when built, and ``write_lseq`` checks no
# field again. A writer refuses what its reader would reject before it
# opens the file (``write_sseq`` a summary that fails its rules, as
# ``SummarizedSequence`` is mutable; ``_write_container`` any float
# payload not finite as f32), so any file a ctsum writer produces loads.
# (``load_model`` checks the parameters, which ``LUModel`` does not.)
#
# .lseq : "CTSQ" | u16 version | u32 T | u32 D | f32 frame_shift_ms | f32[T*D]
# .proj : "CTSP" | u16 version | u32 V | u32 D | f32[V*D] weights | f32[V] bias
# .sseq : "CTSS" | u16 version | u32 S | u32 D | f32 frame_shift_ms |
#         f32[S*D] vectors | S segment records (``cts``)
# .ctsm : "CTSM" | u16 version | u32 n | n bytes UTF-8 JSON header |
#         f32 parameters (``lu``)
# vocab : JSON {"blank_index": int, "labels": [str, ...]}; spec and
#         manifest lines are JSON too, all read through ``_decode_json``
#
# A container is rewritten in place, never truncated on open: on ext4, a
# file truncated to zero and written again has its writeback started on
# close (``auto_da_alloc``), which costs only when the target exists. On
# a 2-vCPU VM, rewriting 600 .sseq-sized files cost 28-94 us a file that
# way against 7-15 us in place (several runs), and the benchmark's
# ``offline`` workload, which rewrites the same 600 paths on every pass,
# went from 1673 to 2296 utterances/s (medians of 20 runs). A new file
# costs the same either way (450-720 us a .lseq there).
# On a regular file the writer therefore
#   1. writes the whole container with its 4 magic bytes zeroed,
#   2. truncates the file to the new length (an older, longer file's
#      tail would otherwise stay),
#   3. writes the magic at offset 0,
# and on any error truncates the file to zero before re-raising. A
# device or FIFO (``/dev/null``) can be neither truncated nor sought, so
# it gets the container once, in order.
#
# Limits. If the writing process dies, a rewrite cut short leaves a file
# with no magic, or an empty one, and every reader rejects both with
# ``FormatError``. Nothing calls fsync, and an OS crash or power cut is
# worse: dirty pages reach the disk in no fixed order, so an in-place
# rewrite of a file longer than one page can keep the new first page
# (magic and header) over old payload pages. If the header declares the
# same size as before, readers accept that mixed file. A truncating
# writer leaves an empty or short file there instead, which readers
# reject. JSON documents (vocab, spec, manifest) are small, off the hot
# path, and still written by truncation: a manifest torn part-way
# through an in-place rewrite could still parse.
# ---------------------------------------------------------------------------

# O_BINARY exists (and matters) only on Windows.
_REWRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _read_exact(fh, count, what):
    data = fh.read(count)
    if len(data) != count:
        raise FormatError(f"{fh.name}: truncated file while reading {what}")
    return data


def _read_payload(fh, path, nbytes) -> bytes:
    """The rest of the file, ``nbytes`` long by its header; a file of any
    other size is rejected before anything is read (or allocated)."""
    actual = os.fstat(fh.fileno()).st_size
    declared = fh.tell() + nbytes
    if actual < declared:
        raise FormatError(f"{path}: truncated file: header declares {declared} bytes, file has {actual}")
    if actual > declared:
        raise FormatError(f"{path}: trailing bytes: header declares {declared} bytes, file has {actual}")
    return _read_exact(fh, nbytes, "payload")


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


def _write_all(fd, data):
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _write_container(path, magic, fields, values, *payloads):
    """Write a "magic | u16 version | fields" header (struct codes), then
    each payload: bytes as they are, arrays as f32, refused before the
    file is opened unless finite.

    An existing regular file is rewritten in place, in the order the
    format comment above gives, so that no reader accepts a file whose
    writer died part-way (an OS crash is another matter, see there).
    """
    # a float64 beyond the float32 range becomes inf, refused below
    payloads = [p if isinstance(p, bytes) else _cast(p, "<f4", over="ignore") for p in payloads]
    if not all(isinstance(p, bytes) or np.isfinite(p).all() for p in payloads):
        raise ValueError(f"{path}: refusing to write non-finite float32 values")
    header = struct.pack("<4sH" + fields, bytes(len(magic)), FORMAT_VERSION, *values)
    data = b"".join([header, *payloads])
    fd = os.open(path, _REWRITE_FLAGS, 0o666)
    try:
        if stat.S_ISREG(os.fstat(fd).st_mode):
            _rewrite_in_place(fd, data, magic)
        else:
            # a device or FIFO: no truncation, no seeking
            _write_all(fd, magic + data[len(magic):])
    finally:
        os.close(fd)


def _rewrite_in_place(fd, data, magic):
    """Write ``data`` (its magic zeroed) over the regular file ``fd``,
    cut the file to its length, then write ``magic``; empty the file on
    any error."""
    try:
        _write_all(fd, data)
        os.ftruncate(fd, len(data))
        os.lseek(fd, 0, os.SEEK_SET)
        _write_all(fd, magic)
    except BaseException:
        os.ftruncate(fd, 0)
        raise


def _parse(where, what, build, *args):
    """``build(*args)`` on contents of the file ``where``: the one place where
    malformed contents become a FormatError naming the file (and ``what``)."""
    try:
        return build(*args)
    except (ValueError, TypeError, KeyError, OverflowError, RecursionError) as exc:
        prefix = f"{where}: invalid {what}" if what else where
        raise FormatError(f"{prefix}: {exc}") from exc


def _writable(path, check, *args):
    """``check(*args)``; its ``ValueError`` or ``TypeError`` becomes a
    ``ValueError`` naming the file to be written."""
    try:
        return check(*args)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _decode_json(data: bytes, where, what="JSON"):
    """The UTF-8 JSON document in ``data``; ``where`` names its file."""
    return _parse(where, what, lambda: json.loads(data.decode("utf-8")))


def write_lseq(path, seq: LatentSequence):
    _write_container(path, LSEQ_MAGIC, "IIf", (*seq.frames.shape, seq.frame_shift_ms), seq.frames)


def read_lseq(path) -> LatentSequence:
    with open(path, "rb") as fh:
        t, d, shift = _read_header(fh, LSEQ_MAGIC, path)
        frames = np.frombuffer(_read_payload(fh, path, 4 * t * d), "<f4")
    return _parse(path, "latent sequence", LatentSequence, frames.reshape(t, d), shift)


def write_proj(path, proj: ProjectionMatrix):
    _write_container(path, PROJ_MAGIC, "II", proj.weights.shape, proj.weights, proj.bias)


def read_proj(path) -> ProjectionMatrix:
    with open(path, "rb") as fh:
        v, d = _read_header(fh, PROJ_MAGIC, path, "II")
        floats = np.frombuffer(_read_payload(fh, path, 4 * v * (d + 1)), "<f4")
    return _parse(path, "projection", ProjectionMatrix, floats[: v * d].reshape(v, d), floats[v * d :])


def write_vocab(path, vocab: Vocabulary):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"blank_index": vocab.blank_index, "labels": vocab.labels}, fh)
        fh.write("\n")


def read_vocab(path) -> Vocabulary:
    with open(path, "rb") as fh:
        obj = _decode_json(fh.read(), path)
    return _parse(path, "vocabulary", lambda: Vocabulary(obj["labels"], obj["blank_index"]))
