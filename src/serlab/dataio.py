"""File formats and the synthetic dataset generator.

Two binary formats, both little-endian:

* FEMB (embeddings): magic ``FEMB``, u32 version, u32 feature dim D,
  u64 record count, then per record a u16-length-prefixed UTF-8 id,
  u32 frame count T >= 1, and T*D float32 values.  A record read back
  stays float32, as a read-only view of the file's bytes; ``model.pack``
  casts a batch to float64 when it packs it.
* FCKP (checkpoints): magic ``FCKP``, u32 version, u32-length-prefixed
  UTF-8 JSON metadata, u32 tensor count, then per tensor a u16-length-
  prefixed name, u32 rank, u32 dims, and float64 data.

Labels and predictions are CSV with fixed headers and unique ids.  Every
writer/reader pair round-trips bit-exactly, and every artifact write is
atomic: the target keeps its old content unless the new one was written in
full.

Every input reader reads its file once and, inside a ``recording_reads``
block, records ``str(path) -> sha256`` of the bytes it parsed.  Every writer
goes through ``atomic_write``, which inside a ``staging_writes`` block
records ``str(path) -> sha256`` of the bytes it wrote and holds them back
until the block completes.  A command's manifest inputs and outputs are
these two records: exactly the files it parsed and the files it wrote.

``load_dataset(data_dir, modalities)`` parses ``labels.csv`` and the FEMB
file of each modality its caller's model reads, and opens no other file: a
needed FEMB file that is missing fails with its path, and one not needed
stays out of the manifest.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import struct
import uuid
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .metrics import (
    ATTRIBUTE_RANGE,
    EMOTION_CODES,
    clamp_attributes,
    code_to_index,
    validate_attributes,
)

EMB_MAGIC = b"FEMB"
EMB_VERSION = 1
CKPT_MAGIC = b"FCKP"
CKPT_VERSION = 1

SPLITS = ("train", "dev", "test1")

LABELS_HEADER = ["id", "split", "emotion", "arousal", "valence", "dominance"]
PREDICTIONS_HEADER = ["id", "emotion", "arousal", "valence", "dominance"]


class FormatError(ValueError):
    """Malformed binary file; carries its path and the byte offset of the defect."""

    def __init__(self, path, message: str, offset: int) -> None:
        super().__init__(f"{path}: {message} (byte offset {offset})")
        self.offset = offset


# ---------------------------------------------------------------------------
# input reads

_reads: ContextVar[dict[str, str] | None] = ContextVar("serlab_reads", default=None)


@contextmanager
def recording_reads() -> Iterator[None]:
    """Record ``str(path) -> sha256`` of every input parsed inside the block.

    Blocks nest: an inner block keeps its own record, and the outer one
    does not see it.
    """
    token = _reads.set({})
    try:
        yield
    finally:
        _reads.reset(token)


def recorded_reads() -> dict[str, str]:
    """The innermost ``recording_reads`` block's record so far; empty outside one."""
    return dict(_reads.get() or {})


def _record(path, digest: str) -> None:
    record = _reads.get()
    if record is not None:
        record[str(path)] = digest


def read_text(path) -> IO[str]:
    """An input text file, recorded as read, as a UTF-8 stream with its line
    ends kept; a stream over the bytes, as a ``StringIO`` takes 4 bytes a char.
    Bytes that are not UTF-8 fail here, with the path and line."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise ValueError(f"{path}: line {line}: byte 0x{data[err.start]:02x} at offset "
                         f"{err.start} is not valid UTF-8 ({err.reason})") from None
    _record(path, hashlib.sha256(data).hexdigest())
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")


def csv_rows(path, header: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """(line number, cells) of each row of a CSV input after its header.

    The first line must be ``header``, every row must have as many fields,
    and the first column, ``id``, must not repeat.
    """
    reader = csv.reader(read_text(path))
    first = next(reader, None)
    if first != list(header):
        raise ValueError(f"{path}: line 1: expected header {','.join(header)}, got {first!r}")
    seen: set[str] = set()
    for cells in reader:
        lineno = reader.line_num  # a quoted field may span lines; cite the row's last
        if len(cells) != len(header):
            raise ValueError(f"{path}: line {lineno}: expected {len(header)} fields, got {len(cells)}")
        if cells[0] in seen:
            raise ValueError(f"{path}: line {lineno}: duplicate id {cells[0]!r}")
        seen.add(cells[0])
        yield lineno, cells


class _Reader:
    """A binary input read once, front to back, hashing what it reads.

    ``take`` checks each length against the bytes left before reading them,
    so a corrupt length field fails with an offset, never with a huge
    allocation.  ``finish`` rejects trailing bytes and only then records the
    file's hash.
    """

    def __init__(self, f, path) -> None:
        self.f = f
        self.path = path
        self.size = os.fstat(f.fileno()).st_size
        self.offset = 0
        self.sha = hashlib.sha256()

    def take(self, n: int, what: str, at: int | None = None) -> bytes:
        """The next ``n`` bytes, holding ``what``.  When ``n`` came from a
        length field, ``at`` is that field's offset, which the error cites;
        otherwise it cites the current offset."""
        left = self.size - self.offset
        if n > left:
            raise FormatError(self.path, f"{what} needs {n} bytes, only {left} left",
                              self.offset if at is None else at)
        buf = self.f.read(n)
        if len(buf) != n:  # the file shrank since it was opened
            raise FormatError(self.path, f"truncated file while reading {what}", self.offset)
        self.sha.update(buf)
        self.offset += n
        return buf

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def text(self, n: int, what: str, at: int) -> str:
        """The next ``n`` bytes as UTF-8 text; ``at`` is the offset of the
        length field ``n`` came from.  Invalid UTF-8 cites the text's offset."""
        start = self.offset
        try:
            return self.take(n, what, at).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(self.path, f"{what} is not valid UTF-8", start) from None

    def finish(self, last: str) -> None:
        if self.f.read(1):
            raise FormatError(self.path, f"trailing bytes after last {last}", self.offset)
        _record(self.path, self.sha.hexdigest())


# ---------------------------------------------------------------------------
# atomic writes

# (str(path), temporary file, sha256) of each write held back, in write order
_staged: ContextVar[list[tuple[str, Path, str]] | None] = ContextVar("serlab_staged", default=None)
# str(path) -> sha256 of every write inside a ``withholding_writes`` block
_withheld: ContextVar[dict[str, str] | None] = ContextVar("serlab_withheld", default=None)


@contextmanager
def staging_writes() -> Iterator[None]:
    """Hold back every ``atomic_write`` inside the block, so that its files
    land together: each replaces its target, in write order, when the block
    completes, and none does if it fails.

    A failed block removes every temporary file.  Blocks nest: an inner
    block lands its own files when it completes, and the outer one does not
    see them.  Inside a ``withholding_writes`` block nothing lands.
    """
    staged: list[tuple[str, Path, str]] = []
    token = _staged.set(staged)
    try:
        yield
        withheld = _withheld.get()
        if withheld is not None:
            withheld.update((path, digest) for path, _, digest in staged)
        else:
            for path, tmp, _ in staged:
                os.replace(tmp, path)
    finally:
        _staged.reset(token)
        for _, tmp, _ in staged:
            tmp.unlink(missing_ok=True)


@contextmanager
def withholding_writes() -> Iterator[dict[str, str]]:
    """A block in which no file lands: every ``staging_writes`` block inside
    it that completes records its files' ``str(path) -> sha256`` in the
    yielded map, and each of its temporary files is removed, as after a
    failure.  An ``atomic_write`` outside any staging block is not held back.
    """
    withheld: dict[str, str] = {}
    token = _withheld.set(withheld)
    try:
        yield withheld
    finally:
        _withheld.reset(token)


def staged_writes() -> dict[str, str]:
    """The innermost ``staging_writes`` block's ``str(path) -> sha256`` of
    every file written so far; empty outside one."""
    return {path: digest for path, _, digest in _staged.get() or ()}


@contextmanager
def atomic_write(path, binary: bool = False) -> Iterator[IO]:
    """A file whose content replaces ``path`` only if the block completes.

    The content goes to a temporary file in the target's directory, which
    ``os.replace`` then moves over ``path``; on any error the temporary file
    is removed and ``path`` is left as it was.  Inside a ``staging_writes``
    block the replace waits for that block, and the file is recorded as
    ``str(path)`` with the sha256 of its bytes.  Text is UTF-8 with ``\n``
    line ends.
    """
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{uuid.uuid4().hex[:12]}.tmp")
    text = {} if binary else {"encoding": "utf-8", "newline": ""}
    staged = _staged.get()
    try:
        with open(tmp, "xb" if binary else "x", **text) as f:
            yield f
        if staged is None:
            os.replace(tmp, target)
        else:
            staged.append((str(path), tmp, sha256_file(tmp)))
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def sha256_file(path) -> str:
    """The sha256 of a file's bytes, read in 64 KiB chunks."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_json(path, doc) -> None:
    """A JSON artifact: sorted keys, indent 2, trailing newline."""
    with atomic_write(path) as f:
        f.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# embeddings (FEMB)

def write_embeddings(path, items: Sequence[tuple[str, np.ndarray]], dim: int | None = None) -> None:
    """Write (id, T x D float matrix) pairs; ``dim`` is required when empty."""
    if items:
        first = np.asarray(items[0][1])
        if first.ndim != 2:
            raise ValueError(f"embeddings must be T x D matrices, got shape {first.shape}")
        if dim is None:
            dim = first.shape[1]
    elif dim is None:
        raise ValueError("dim is required when writing an empty embeddings file")
    if dim < 1:
        raise ValueError(f"feature dim must be >= 1, got {dim}")
    with atomic_write(path, binary=True) as f:
        f.write(struct.pack("<4sIIQ", EMB_MAGIC, EMB_VERSION, dim, len(items)))
        for name, mat in items:
            arr = np.asarray(mat, dtype=np.float64)
            if arr.ndim != 2 or arr.shape[1] != dim:
                raise ValueError(
                    f"record {name!r}: expected T x {dim} matrix, got shape {arr.shape}"
                )
            if arr.shape[0] < 1:
                raise ValueError(f"record {name!r}: empty frame sequence")
            encoded = name.encode("utf-8")
            if len(encoded) > 0xFFFF:
                raise ValueError(f"record id too long: {name!r}")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<I", arr.shape[0]))
            f.write(arr.astype("<f4").tobytes())


def read_embeddings(path) -> list[tuple[str, np.ndarray]]:
    """Read an FEMB file into (id, T x D float32 matrix) pairs, each a
    read-only view of its record's bytes; ``model.pack`` casts to float64."""
    with open(path, "rb") as f:
        r = _Reader(f, path)
        magic, version, dim, count = r.unpack("<4sIIQ", "header")
        if magic != EMB_MAGIC:
            raise FormatError(path, f"bad magic {magic!r}, expected {EMB_MAGIC!r}", 0)
        if version != EMB_VERSION:
            raise FormatError(path, f"unsupported version {version}", 4)
        if dim == 0:
            raise FormatError(path, "feature dim 0", 8)
        out: list[tuple[str, np.ndarray]] = []
        seen: set[str] = set()
        for _ in range(count):
            at = r.offset
            (id_len,) = r.unpack("<H", "id length")
            name = r.text(id_len, "record id", at)
            if name in seen:
                raise FormatError(path, f"duplicate record id {name!r}", at)
            seen.add(name)
            at = r.offset
            (frames,) = r.unpack("<I", "frame count")
            if frames == 0:
                raise FormatError(path, f"record {name!r}: frame count 0", at)
            raw = r.take(frames * dim * 4, f"record {name!r} data", at)
            out.append((name, np.frombuffer(raw, dtype="<f4").reshape(frames, dim)))
        r.finish("record")
    return out


# ---------------------------------------------------------------------------
# labels and records

def _in_range(triple: tuple[float, float, float]) -> bool:
    lo, hi = ATTRIBUTE_RANGE
    return lo <= triple[0] <= hi and lo <= triple[1] <= hi and lo <= triple[2] <= hi


@dataclass
class UtteranceRecord:
    id: str
    split: str
    speech_frames: np.ndarray | None = None
    text_tokens: np.ndarray | None = None
    emotion: str | None = None
    attributes: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        if self.split not in SPLITS:
            raise ValueError(f"record {self.id!r}: unknown split {self.split!r}")
        a = self.attributes
        if self.emotion is not None:
            code_to_index(self.emotion)
        elif a is None:
            raise ValueError(f"record {self.id!r}: needs an emotion or attributes")
        # a triple read_labels made is already three floats in range
        if a is not None and not (type(a) is tuple and len(a) == 3
                                  and type(a[0]) is type(a[1]) is type(a[2]) is float and _in_range(a)):
            self.attributes = validate_attributes(a)
        for name, mat in (("speech_frames", self.speech_frames), ("text_tokens", self.text_tokens)):
            if mat is not None and (mat.ndim != 2 or mat.shape[0] < 1):
                raise ValueError(f"record {self.id!r}: {name} must be a T x D matrix with T >= 1")


class LabelRow(NamedTuple):
    id: str
    split: str
    emotion: str | None
    attributes: tuple[float, float, float] | None


def _emotion(path, lineno: int, code: str) -> str | None:
    if code and code not in EMOTION_CODES:
        raise ValueError(f"{path}: line {lineno}: unknown emotion code {code!r}")
    return code or None


def _triple(path, lineno: int, a: str, v: str, d: str) -> tuple[float, float, float] | None:
    """A row's attribute triple; None when all three cells are empty."""
    if a and v and d:
        try:
            return float(a), float(v), float(d)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric attribute") from None
    if a or v or d:
        raise ValueError(f"{path}: line {lineno}: partial attribute triple")
    return None


def read_labels(path) -> list[LabelRow]:
    rows: list[LabelRow] = []
    for lineno, (rid, split, emotion, a, v, d) in csv_rows(path, LABELS_HEADER):
        triple = None
        if a and v and d:
            try:
                triple = float(a), float(v), float(d)
            except ValueError:
                pass
        # the common row: known split and emotion code, three numbers in range
        if not (split in SPLITS and emotion in EMOTION_CODES and triple is not None and _in_range(triple)):
            emotion, triple = _label_row(path, lineno, split, emotion, a, v, d)
        rows.append(LabelRow(rid, split, emotion, triple))
    return rows


def _label_row(path, lineno: int, split: str, emotion: str, a: str, v: str, d: str):
    """(emotion, triple) of a row the common path did not take; raises the
    row's first defect, naming the file and line."""
    if split not in SPLITS:
        raise ValueError(f"{path}: line {lineno}: unknown split {split!r}")
    emo = _emotion(path, lineno, emotion)
    triple = _triple(path, lineno, a, v, d)
    if triple is None:
        if emo is None:
            raise ValueError(f"{path}: line {lineno}: neither emotion nor attributes present")
    elif not _in_range(triple):
        try:
            validate_attributes(triple)  # names the first attribute out of range
        except ValueError as err:
            raise ValueError(f"{path}: line {lineno}: {err}") from None
    return emo, triple


def write_labels(path, rows: Sequence[LabelRow]) -> None:
    with atomic_write(path) as f:
        writer = csv.writer(f)
        writer.writerow(LABELS_HEADER)
        for row in rows:
            attrs = ["", "", ""] if row.attributes is None else [repr(v) for v in row.attributes]
            writer.writerow([row.id, row.split, row.emotion or ""] + attrs)


def assemble_records(
    labels: Sequence[LabelRow],
    speech: Sequence[tuple[str, np.ndarray]] | None = None,
    text: Sequence[tuple[str, np.ndarray]] | None = None,
    sources: Mapping[str, Path] | None = None,
) -> list[UtteranceRecord]:
    """Join label rows with per-modality embeddings by id; ``sources`` names
    the file each modality was read from, for errors."""
    smap = dict(speech) if speech is not None else {}
    tmap = dict(text) if text is not None else {}
    where = {modality: f"{path}: " for modality, path in (sources or {}).items()}
    records = []
    for row in labels:
        sf = smap.get(row.id)
        tt = tmap.get(row.id)
        if speech is not None and sf is None:
            raise ValueError(
                f"{where.get('speech', '')}record {row.id!r}: missing speech embeddings")
        if text is not None and tt is None:
            raise ValueError(f"{where.get('text', '')}record {row.id!r}: missing text embeddings")
        records.append(UtteranceRecord(row.id, row.split, sf, tt, row.emotion, row.attributes))
    return records


# ---------------------------------------------------------------------------
# synthetic data

DEFAULT_ANCHORS = np.array(
    [
        # arousal, valence, dominance per class, conventional affect positions
        [5.8, 2.0, 5.2],  # A anger
        [3.4, 2.4, 4.6],  # C contempt
        [4.4, 1.8, 4.0],  # D disgust
        [5.4, 2.2, 2.2],  # F fear
        [5.0, 6.2, 5.0],  # H happiness
        [4.0, 4.0, 4.0],  # N neutral
        [2.4, 1.9, 2.4],  # S sadness
        [5.6, 4.8, 3.4],  # U surprise
    ]
)


@dataclass(frozen=True)
class SynthConfig:
    class_counts: tuple[int, ...] = (250,) * 8
    speech_dim: int = 12
    text_dim: int = 12
    frame_range: tuple[int, int] = (4, 10)
    separation: float = 1.5
    noise_sigma: float = 0.3
    anchors: np.ndarray = field(default_factory=lambda: DEFAULT_ANCHORS.copy())
    split_fractions: tuple[float, float, float] = (0.7, 0.15, 0.15)
    seed: int = 0

    def __post_init__(self) -> None:
        counts = tuple(int(c) for c in self.class_counts)
        if len(counts) != 8 or any(c < 0 for c in counts):
            raise ValueError("class_counts must be 8 non-negative integers")
        if sum(1 for c in counts if c > 0) < 2:
            raise ValueError("need at least 2 non-empty classes")
        object.__setattr__(self, "class_counts", counts)
        if self.speech_dim < 1 or self.text_dim < 1:
            raise ValueError("feature dims must be >= 1")
        lo, hi = self.frame_range
        if not 1 <= lo <= hi:
            raise ValueError(f"bad frame range {self.frame_range}")
        if not 0 < self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and > 0, got {self.noise_sigma}")
        if not 0 <= self.separation < math.inf:
            raise ValueError(f"separation must be finite and >= 0, got {self.separation}")
        a = np.asarray(self.anchors, dtype=np.float64)
        if a.shape != (8, 3):
            raise ValueError(f"anchors must be 8 x 3, got shape {a.shape}")
        rlo, rhi = ATTRIBUTE_RANGE
        if not rlo <= a.min() <= a.max() <= rhi:  # NaN fails every comparison
            raise ValueError(f"anchors must be finite and lie in [{rlo:g}, {rhi:g}]")
        object.__setattr__(self, "anchors", a)
        fr = self.split_fractions
        if len(fr) != 3 or not all(0 <= x <= 1 for x in fr) or abs(sum(fr) - 1.0) > 1e-9:
            raise ValueError("split_fractions must be 3 finite, non-negative values summing to 1")


def _unit_direction(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def gen_synthetic(cfg: SynthConfig) -> list[UtteranceRecord]:
    """Seeded synthetic records with class-informative features.

    Each class gets a unit direction per modality; frames are that
    direction scaled by the separation plus Gaussian noise.  Attributes
    are the class anchor plus noise, clamped to the attribute range.
    Output is a deterministic function of the config.

    Frames stay float64, unlike records read from FEMB (float32): a batch
    packs to float64 exactly whatever mix of the two its records hold, and
    the in-memory records are what the tests train on.
    """
    rng = np.random.default_rng(cfg.seed)
    lo, hi = cfg.frame_range
    records: list[UtteranceRecord] = []
    uid = 0
    for c, count in enumerate(cfg.class_counts):
        if count == 0:
            continue
        s_dir = _unit_direction(rng, cfg.speech_dim) * cfg.separation
        t_dir = _unit_direction(rng, cfg.text_dim) * cfg.separation
        class_records = []
        for _ in range(count):
            ts = int(rng.integers(lo, hi + 1))
            tt = int(rng.integers(lo, hi + 1))
            frames = s_dir + rng.normal(0.0, cfg.noise_sigma, size=(ts, cfg.speech_dim))
            tokens = t_dir + rng.normal(0.0, cfg.noise_sigma, size=(tt, cfg.text_dim))
            attrs = cfg.anchors[c] + rng.normal(0.0, cfg.noise_sigma, size=3)
            attrs, _ = clamp_attributes(attrs)
            class_records.append((frames, tokens, attrs))
        # stratified split so each class appears in every non-empty split
        n = len(class_records)
        n_dev = int(n * cfg.split_fractions[1])
        n_test = int(n * cfg.split_fractions[2])
        n_train = n - n_dev - n_test
        splits = ["train"] * n_train + ["dev"] * n_dev + ["test1"] * n_test
        for (frames, tokens, attrs), split in zip(class_records, splits):
            records.append(
                UtteranceRecord(
                    id=f"synth-{uid:05d}",
                    split=split,
                    speech_frames=frames,
                    text_tokens=tokens,
                    emotion=EMOTION_CODES[c],
                    attributes=attrs,
                )
            )
            uid += 1
    return records


def write_dataset(out_dir, records: Sequence[UtteranceRecord]) -> dict[str, Path]:
    """Write the labels CSV, and a speech or text FEMB file when some record
    has those features, into a directory; the paths written, by kind."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    features = {
        "speech": [(r.id, r.speech_frames) for r in records if r.speech_frames is not None],
        "text": [(r.id, r.text_tokens) for r in records if r.text_tokens is not None],
    }
    paths = {modality: out / f"{modality}.femb" for modality, items in features.items() if items}
    for modality, path in paths.items():
        write_embeddings(path, features[modality])
    paths["labels"] = out / "labels.csv"
    rows = [
        LabelRow(id=r.id, split=r.split, emotion=r.emotion, attributes=r.attributes)
        for r in records
    ]
    write_labels(paths["labels"], rows)
    return paths


def load_dataset(data_dir, modalities: Sequence[str]) -> list[UtteranceRecord]:
    """The records of a ``write_dataset`` directory, with the features of
    ``modalities`` (``speech``, ``text``) only; see the module docstring."""
    d = Path(data_dir)
    labels = read_labels(d / "labels.csv")
    sources = {modality: d / f"{modality}.femb" for modality in modalities}
    features = {modality: read_embeddings(path) for modality, path in sources.items()}
    return assemble_records(labels, **features, sources=sources)


# ---------------------------------------------------------------------------
# checkpoints (FCKP)

def write_checkpoint(path, tensors: dict[str, np.ndarray], metadata: dict) -> None:
    meta_bytes = json.dumps(metadata, sort_keys=True).encode("utf-8")
    with atomic_write(path, binary=True) as f:
        f.write(struct.pack("<4sI", CKPT_MAGIC, CKPT_VERSION))
        f.write(struct.pack("<I", len(meta_bytes)))
        f.write(meta_bytes)
        f.write(struct.pack("<I", len(tensors)))
        for name, values in tensors.items():
            arr = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.astype("<f8").tobytes())


def read_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as f:
        r = _Reader(f, path)
        magic, version = r.unpack("<4sI", "header")
        if magic != CKPT_MAGIC:
            raise FormatError(path, f"bad magic {magic!r}, expected {CKPT_MAGIC!r}", 0)
        if version != CKPT_VERSION:
            raise FormatError(path, f"unsupported version {version}", 4)
        (meta_len,) = r.unpack("<I", "metadata length")
        meta_at = r.offset
        raw = r.take(meta_len, "metadata", 8)
        try:
            metadata = json.loads(raw.decode("utf-8"))
        except UnicodeDecodeError as err:
            raise FormatError(path, "metadata is not valid UTF-8", meta_at + err.start) from None
        except json.JSONDecodeError as err:
            at = meta_at + len(err.doc[:err.pos].encode("utf-8"))
            raise FormatError(path, f"metadata is not JSON: {err.msg}", at) from None
        (count,) = r.unpack("<I", "tensor count")
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            at = r.offset
            (name_len,) = r.unpack("<H", "tensor name length")
            name = r.text(name_len, "tensor name", at)
            at = r.offset
            (rank,) = r.unpack("<I", "tensor rank")
            shape_at = r.offset
            shape = struct.unpack(f"<{rank}I", r.take(4 * rank, f"tensor {name!r} shape", at))
            raw = r.take(math.prod(shape) * 8, f"tensor {name!r} data", shape_at)
            tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        r.finish("tensor")
    return tensors, metadata


# ---------------------------------------------------------------------------
# prediction sets

@dataclass
class PredictionSet:
    ids: list[str] = field(default_factory=list)
    labels: dict[str, str] = field(default_factory=dict)
    logits: dict[str, np.ndarray] = field(default_factory=dict)
    attributes: dict[str, tuple[float, float, float]] = field(default_factory=dict)

    def add_label(self, rid: str, label: str, logits: np.ndarray | None = None) -> None:
        self.ids.append(rid)
        self.labels[rid] = label
        if logits is not None:
            self.logits[rid] = logits

    def add_attributes(self, rid: str, triple) -> None:
        self.ids.append(rid)
        self.attributes[rid] = tuple(float(v) for v in triple)


def write_predictions(path, preds: PredictionSet) -> None:
    with atomic_write(path) as f:
        writer = csv.writer(f)
        writer.writerow(PREDICTIONS_HEADER)
        for rid in preds.ids:
            emo = preds.labels.get(rid, "")
            triple = preds.attributes.get(rid)
            attrs = ["", "", ""] if triple is None else [repr(v) for v in triple]
            writer.writerow([rid, emo] + attrs)


def read_predictions(path) -> PredictionSet:
    preds = PredictionSet()
    for lineno, (rid, emotion, a, v, d) in csv_rows(path, PREDICTIONS_HEADER):
        preds.ids.append(rid)
        emo = _emotion(path, lineno, emotion)
        if emo is not None:
            preds.labels[rid] = emo
        triple = _triple(path, lineno, a, v, d)
        if triple is not None:
            preds.attributes[rid] = triple
    return preds
