"""Deterministic corruption sweep over every on-disk format.

Each format's tiny valid file is truncated at every offset and, one byte
at a time, has each byte XORed with 0xFF. Every variant must either load
or raise ``FormatError``: never a bare numpy or builtin error. The files
hold T, S, V <= 4 and D <= 3, and the readers check declared sizes
before allocating, so no variant can make a reader allocate much.
"""

import dataclasses
import json
import struct

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
from ctsum.synth import MANIFEST_NAME, SynthSpec, generate_corpus, load_corpus, load_spec, save_spec


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


HUGE = 10**400  # 401 digits: JSON reads it as an int that no float holds
# Fields that take any integer, so HUGE loads there: seeds (a SeedSequence
# takes any non-negative int) and a model's epochs and batch_size, which
# only training reads.
ANY_INTEGER = {"seed", "epochs", "batch_size"}


def _with_huge(doc):
    """(field, copy of the JSON object ``doc`` with HUGE in that field) for
    each numeric field, list items included."""
    def numeric(value):
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    for key, value in doc.items():
        if isinstance(value, list):
            for i in (i for i, item in enumerate(value) if numeric(item)):
                yield f"{key}[{i}]", {**doc, key: value[:i] + [HUGE] + value[i + 1 :]}
        elif numeric(value):
            yield key, {**doc, key: HUGE}


def _ctsm_with_header(raw, header):
    """A .ctsm file's bytes with its JSON header replaced."""
    (hlen,) = struct.unpack_from("<I", raw, 6)
    data = json.dumps(header).encode("utf-8")
    return raw[:6] + struct.pack("<I", len(data)) + data + raw[10 + hlen :]


@pytest.mark.parametrize("fmt", ["spec", "manifest", "vocab", "ctsm"])
def test_huge_integer_in_each_numeric_field(tmp_path, fmt):
    spec = SynthSpec(num_intents=2, vocab_size=3, latent_dim=2, templates_per_intent=1,
                     utterances_per_intent=1, seed=0)
    if fmt == "spec":
        path = tmp_path / "spec.json"
        save_spec(path, spec)
        doc, read = json.loads(path.read_text()), lambda: load_spec(path)
        put = lambda d: path.write_text(json.dumps(d))  # noqa: E731
    elif fmt == "manifest":
        generate_corpus(spec, tmp_path)
        path = tmp_path / MANIFEST_NAME
        first, rest = path.read_text().split("\n", 1)
        doc, read = json.loads(first), lambda: load_corpus(tmp_path)
        put = lambda d: path.write_text(json.dumps(d) + "\n" + rest)  # noqa: E731
    elif fmt == "vocab":
        path = tmp_path / "vocab.json"
        write_vocab(path, Vocabulary(["_", "a", "b"], 1))
        doc, read = json.loads(path.read_text()), lambda: read_vocab(path)
        put = lambda d: path.write_text(json.dumps(d))  # noqa: E731
    else:
        path = tmp_path / "m.ctsm"
        model = lu_init(LUConfig(input_dim=2, num_intents=2, hidden=1, layers=1, vocab_size=3))
        save_model(path, model)
        raw = path.read_bytes()
        doc, read = dataclasses.asdict(model.config), lambda: load_model(path)
        put = lambda d: path.write_bytes(  # noqa: E731
            _ctsm_with_header(raw, {"config": d, "train_losses": []})
        )
    wrong = []
    for field, variant in _with_huge(doc):
        put(variant)
        try:
            read()
            if field not in ANY_INTEGER:
                wrong.append(f"{field}: loaded")
        except FormatError as exc:
            if field in ANY_INTEGER or str(path) not in str(exc):
                wrong.append(f"{field}: {exc}")
        except Exception as exc:  # any other exception is the finding
            wrong.append(f"{field}: {type(exc).__name__}: {exc}")
    assert not wrong, "\n".join(wrong)
