"""Canonical k-mer counting and the coverage-filtered (solid) k-mer set.

Counting is exact and in-memory: a k-mer and its reverse complement share
one counter keyed by the packed canonical code.  Windows containing N are
dropped here, so downstream structures only ever see exact ACGT words.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from .sequences import MAX_K, Read, decode_kmer, slices, window_codes

_SOLID_MAGIC = b"SLDKMER1"


@dataclass
class KmerCensus:
    """Occurrence counts per canonical k-mer (packed code -> count)."""

    k: int
    counts: dict[int, int]

    def total(self) -> int:
        return sum(self.counts.values())

    def as_strings(self) -> dict[str, int]:
        return {decode_kmer(c, self.k): n for c, n in self.counts.items()}


@dataclass(frozen=True)
class SolidKmerSet:
    """The canonical k-mers whose census count reached the coverage threshold."""

    k: int
    codes: frozenset[int]

    def __len__(self) -> int:
        return len(self.codes)

    def as_strings(self) -> set[str]:
        return {decode_kmer(c, self.k) for c in self.codes}


def _validate_k(k: int) -> None:
    if not 2 <= k <= MAX_K:
        raise ValueError(f"k must be in [2, {MAX_K}], got {k}")


def count_kmers(reads: Iterable[Read | str], k: int) -> KmerCensus:
    """Count canonical k-mers over a read stream; empty input gives an empty census."""
    _validate_k(k)
    counts: dict[int, int] = {}
    get = counts.get
    for read in reads:
        seq = read.sequence if isinstance(read, Read) else read
        for _, part in slices(seq, k):
            for _, fwd, rc in window_codes(part, k):
                # `| 0` keeps a copy allocated to its value's size: a code of
                # more than 60 bits from window_codes may carry one spare digit
                code = fwd | 0 if fwd < rc else rc | 0
                counts[code] = get(code, 0) + 1
    return KmerCensus(k=k, counts=counts)


def solid_set(census: KmerCensus, min_count: int) -> SolidKmerSet:
    """Keep exactly the census keys with count >= min_count."""
    if min_count < 1:
        raise ValueError(f"coverage threshold must be >= 1, got {min_count}")
    return SolidKmerSet(
        k=census.k,
        codes=frozenset(c for c, n in census.counts.items() if n >= min_count),
    )


def save_solid(path: str | Path, solid: SolidKmerSet) -> None:
    """Persist a solid set: magic, k, count, then packed k-mers ascending."""
    with open(path, "wb") as out:
        out.write(_SOLID_MAGIC)
        out.write(struct.pack("<IQ", solid.k, len(solid.codes)))
        for code in sorted(solid.codes):
            out.write(code.to_bytes(16, "big"))


def load_solid(path: str | Path) -> SolidKmerSet:
    """Inverse of save_solid; a truncated file or one with bytes after its
    k-mers raises ValueError."""
    with open(path, "rb") as inp:
        magic = inp.read(8)
        if magic != _SOLID_MAGIC:
            raise ValueError(f"not a solid k-mer file: {path}")
        header = inp.read(12)
        if len(header) != 12:
            raise ValueError(f"truncated solid k-mer file: {path}")
        k, n = struct.unpack("<IQ", header)
        _validate_k(k)
        codes = []
        for _ in range(n):
            raw = inp.read(16)
            if len(raw) != 16:
                raise ValueError(f"truncated solid k-mer file: {path}")
            codes.append(int.from_bytes(raw, "big"))
        if inp.read(1):
            raise ValueError(f"bytes after the k-mers in solid k-mer file: {path}")
    return SolidKmerSet(k=k, codes=frozenset(codes))
