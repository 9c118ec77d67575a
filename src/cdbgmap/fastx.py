"""Streaming FASTA/FASTQ readers (plain or gzip) and a FASTA writer.

Each input is opened once and read forward, so it may be a pipe or a FIFO.
Compression is detected by magic bytes, never by file extension.  Sequences
are uppercased and any symbol outside ACGT becomes N at this boundary, so
ambiguity codes beyond N never reach the rest of the toolkit.  Record order
is preserved, and a run of records with the same id is made unique by
suffixing.  Corrupt or truncated gzip data, malformed records and
non-ASCII bytes are reported as ValueError naming the file.
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
                read = Read(dedup(name), normalize_sequence("".join(chunks)))
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
        read = Read(dedup(name), normalize_sequence("".join(chunks)))
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
        if len(handle.readline().rstrip("\r\n")) != len(seq):
            raise ValueError("malformed FASTQ record: quality length mismatch")
        name, text = _name_and_description(header[1:])
        if not name:
            raise ValueError("FASTQ header without a name")
        yield Read(dedup(name), normalize_sequence(seq)), text


def read_sequences(path: str | Path) -> Iterator[Read]:
    """Iterate reads from a FASTA or FASTQ file, plain or gzipped."""
    return map(itemgetter(0), read_described(path))


def read_described(path: str | Path) -> Iterator[tuple[Read, str]]:
    """`read_sequences` with each record's header description: the text
    after the name, '' when there is none.  Every ValueError it raises
    (corrupt or truncated gzip data, an unrecognized format, a malformed or
    empty record, a non-ASCII byte) names the file once."""
    raw = open(path, "rb")
    try:
        # the gzip magic and the format byte are peeked, not read, so the
        # parsers start at the first byte of a pipe as of a file
        stream = gzip.GzipFile(fileobj=raw) if raw.peek(2)[:2] == _GZIP_MAGIC else raw
        first = stream.peek(1)[:1]
        handle = io.TextIOWrapper(stream, encoding="ascii")
        if first == b">":
            yield from _parse_fasta(handle)
        elif first == b"@":
            yield from _parse_fastq(handle)
        elif first:
            handle.read(1)  # decodes a chunk: a non-ASCII byte there is reported as one
            raise ValueError("unrecognized sequence file format")
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise ValueError(f"corrupt or truncated gzip file {path}: {exc}") from exc
    except ValueError as exc:  # an unknown format, a bad record, a non-ASCII byte
        raise ValueError(f"{path}: {exc}") from exc
    finally:
        raw.close()  # a GzipFile does not close the file it was given


def write_fasta(path: str | Path, records, width: int = 80) -> int:
    """Write (id, sequence) pairs as FASTA; returns count."""
    n = 0
    with open(path, "w", encoding="ascii") as out:
        for name, seq in records:
            out.write(f">{name}\n")
            for i in range(0, len(seq), width):
                out.write(seq[i : i + width])
                out.write("\n")
            n += 1
    return n
