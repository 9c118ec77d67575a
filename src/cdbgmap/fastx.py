"""Streaming FASTA/FASTQ readers (plain or gzip) and a FASTA writer.

Compression is detected by magic bytes, never by file extension.  Sequences
are uppercased and any symbol outside ACGT becomes N at this boundary, so
ambiguity codes beyond N never reach the rest of the toolkit.  Record order
is preserved, and a run of records with the same id is made unique by
suffixing.  Corrupt or truncated gzip data is reported as ValueError
naming the file.
"""

from __future__ import annotations

import gzip
import io
import zlib
from collections.abc import Iterator
from operator import itemgetter
from pathlib import Path

from .sequences import Read

_GZIP_MAGIC = b"\x1f\x8b"

_NORMALIZE = {}
for _i in range(256):
    _ch = chr(_i).upper()
    _NORMALIZE[_i] = _ch if _ch in "ACGT" else "N"
_NORMALIZE_TABLE = str.maketrans(_NORMALIZE)


def _open_text(path: str | Path):
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if magic == _GZIP_MAGIC:
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="ascii")
    return open(path, "rt", encoding="ascii")


def normalize_sequence(seq: str) -> str:
    return seq.translate(_NORMALIZE_TABLE)


class _IdDeduplicator:
    """Appends .2, .3, ... to an id that repeats the record just before it
    (a run of equal ids, as interleaved read pairs have).  Only the last id
    is kept, so memory does not grow with the file."""

    def __init__(self):
        self._last: str | None = None
        self._run = 0

    def __call__(self, name: str) -> str:
        if name != self._last:
            self._last, self._run = name, 1
            return name
        self._run += 1
        return f"{name}.{self._run}"


def _name_and_description(header: str) -> tuple[str, str]:
    """A header line without its marker split into the record name and the
    text after it ('' when there is none)."""
    fields = header.split(None, 1)
    if not fields:
        return "", ""
    return fields[0], fields[1].strip() if len(fields) > 1 else ""


def _parse_fasta(handle) -> Iterator[tuple[Read, str]]:
    dedup = _IdDeduplicator()
    name = None
    chunks: list[str] = []
    for line in handle:
        line = line.rstrip("\r\n")
        if not line:
            continue
        if line.startswith(">"):
            if name is not None:
                read = Read(id=dedup(name), sequence=normalize_sequence("".join(chunks)))
                chunks = []  # not held while the consumer works on the record
                yield read, text
            name, text = _name_and_description(line[1:])
            if not name:
                raise ValueError("FASTA header without a name")
        else:
            if name is None:
                raise ValueError("FASTA data before first header")
            chunks.append(line)
    if name is not None:
        read = Read(id=dedup(name), sequence=normalize_sequence("".join(chunks)))
        del chunks
        yield read, text


def _parse_fastq(handle) -> Iterator[tuple[Read, str]]:
    dedup = _IdDeduplicator()
    while True:
        header = handle.readline()
        if not header:
            return
        header = header.rstrip("\r\n")
        if not header:
            continue
        if not header.startswith("@"):
            raise ValueError(f"malformed FASTQ record header: {header[:30]!r}")
        seq = handle.readline().rstrip("\r\n")
        plus = handle.readline()
        if not plus.startswith("+"):
            raise ValueError("malformed FASTQ record: missing '+' line")
        qual = handle.readline().rstrip("\r\n")
        if len(qual) != len(seq):
            raise ValueError("malformed FASTQ record: quality length mismatch")
        name, text = _name_and_description(header[1:])
        if not name:
            raise ValueError("FASTQ header without a name")
        yield Read(id=dedup(name), sequence=normalize_sequence(seq), quality=qual), text


def read_sequences(path: str | Path) -> Iterator[Read]:
    """Iterate reads from a FASTA or FASTQ file, plain or gzipped."""
    return map(itemgetter(0), read_described(path))


def read_described(path: str | Path) -> Iterator[tuple[Read, str]]:
    """`read_sequences` with each record's header description: the text
    after the name, '' when there is none.  Corrupt or truncated gzip data
    raises ValueError naming the file."""
    handle = _open_text(path)
    try:
        first = handle.read(1)
        if not first:
            return
        handle.seek(0)
        if first == ">":
            yield from _parse_fasta(handle)
        elif first == "@":
            yield from _parse_fastq(handle)
        else:
            raise ValueError(f"unrecognized sequence file format: {path}")
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise ValueError(f"corrupt or truncated gzip file {path}: {exc}") from exc
    finally:
        handle.close()


def write_fasta(path: str | Path, records, width: int = 80) -> int:
    """Write (id, sequence) pairs or Read objects as FASTA; returns count."""
    n = 0
    with open(path, "w", encoding="ascii") as out:
        for rec in records:
            if isinstance(rec, Read):
                name, seq = rec.id, rec.sequence
            else:
                name, seq = rec
            out.write(f">{name}\n")
            for i in range(0, len(seq), width):
                out.write(seq[i : i + width])
                out.write("\n")
            n += 1
    return n
