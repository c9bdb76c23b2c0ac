"""Deterministic corruption sweep over every on-disk format.

Each format's tiny valid file is truncated at every offset and, one byte
at a time, has each byte XORed with 0xFF. Every variant must either load
or raise ``FormatError``: never a bare numpy or builtin error. The files
hold T, S, V <= 4 and D <= 3, and the readers check declared sizes
before allocating, so no variant can make a reader allocate much.
"""

import numpy as np
import pytest

from ctsum.cts import Segment, SummarizedSequence, read_sseq, write_sseq
from ctsum.lu import LUConfig, load_model, lu_init, save_model
from ctsum.seqcore import (
    FormatError,
    LatentSequence,
    ProjectionMatrix,
    Vocabulary,
    read_lseq,
    read_proj,
    read_vocab,
    write_lseq,
    write_proj,
    write_vocab,
)


def tiny_model():
    model = lu_init(LUConfig(input_dim=2, num_intents=2, hidden=1, layers=1, seed=3))
    model.train_losses = [0.75, 0.5]
    return model


def tiny_summary():
    vectors = np.array([[0.5, -1.0], [2.0, 0.25]], dtype=np.float32)
    segments = [Segment(0, 2, 1, 1, 0.75), Segment(2, 4, 2, 2, 0.5)]
    return SummarizedSequence(vectors, segments, 4, 12.5)


FORMATS = {
    "lseq": (
        lambda path: write_lseq(path, LatentSequence(np.arange(6.0).reshape(3, 2) - 2.5, 12.5)),
        read_lseq,
    ),
    "proj": (
        lambda path: write_proj(
            path, ProjectionMatrix(np.linspace(-1.0, 1.0, 12).reshape(4, 3), np.arange(4.0))
        ),
        read_proj,
    ),
    "sseq": (lambda path: write_sseq(path, tiny_summary()), read_sseq),
    "ctsm": (lambda path: save_model(path, tiny_model()), load_model),
    "vocab": (lambda path: write_vocab(path, Vocabulary(["_", "a", "b"])), read_vocab),
}


def variants(raw):
    """Every truncation (the empty file included), then every one-byte XOR."""
    for i in range(len(raw)):
        yield f"truncated at {i}", raw[:i]
    for i in range(len(raw)):
        flipped = bytearray(raw)
        flipped[i] ^= 0xFF
        yield f"byte {i} xor 0xff", bytes(flipped)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_every_corruption_loads_or_raises_format_error(tmp_path, fmt):
    write, read = FORMATS[fmt]
    path = tmp_path / f"valid.{fmt}"
    write(path)
    raw = path.read_bytes()
    read(path)  # the untouched file loads
    bad = tmp_path / f"variant.{fmt}"
    escaped = []
    for what, data in variants(raw):
        bad.write_bytes(data)
        try:
            read(bad)
        except FormatError:
            pass
        except Exception as exc:  # any other exception is the finding
            escaped.append(f"{what}: {type(exc).__name__}: {exc}")
    assert not escaped, f"{len(escaped)} of {2 * len(raw)} variants escaped:\n" + "\n".join(
        escaped[:20]
    )


@pytest.mark.parametrize("fmt", ["ctsm", "lseq", "proj", "sseq"])
@pytest.mark.parametrize("size", [5, 9])
def test_truncated_header_names_the_file(tmp_path, fmt, size):
    # every container header is at least 10 bytes long
    write, read = FORMATS[fmt]
    path = tmp_path / f"short.{fmt}"
    write(path)
    path.write_bytes(path.read_bytes()[:size])
    with pytest.raises(FormatError, match="truncated") as exc:
        read(path)
    assert str(path) in str(exc.value)
