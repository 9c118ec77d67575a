"""Streaming FASTA/FASTQ readers (plain or gzip) and a FASTA writer.

Compression is detected by magic bytes, never by file extension.  Sequences
are uppercased and any symbol outside ACGT becomes N at this boundary, so
ambiguity codes beyond N never reach the rest of the toolkit.  Record order
is preserved and duplicate ids are made unique by suffixing.
"""

from __future__ import annotations

import gzip
import io
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
    """Appends .2, .3, ... to ids already seen in the same file."""

    def __init__(self):
        self._seen: dict[str, int] = {}

    def __call__(self, name: str) -> str:
        n = self._seen.get(name, 0) + 1
        self._seen[name] = n
        return name if n == 1 else f"{name}.{n}"


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
                yield Read(id=dedup(name), sequence=normalize_sequence("".join(chunks))), text
            name, text = _name_and_description(line[1:])
            if not name:
                raise ValueError("FASTA header without a name")
            chunks = []
        else:
            if name is None:
                raise ValueError("FASTA data before first header")
            chunks.append(line)
    if name is not None:
        yield Read(id=dedup(name), sequence=normalize_sequence("".join(chunks))), text


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
    after the name, '' when there is none."""
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
