"""Canonical k-mer counting and the coverage-filtered (solid) k-mer set.

Counting is exact and in-memory: a k-mer and its reverse complement share
one counter keyed by the packed canonical code.  Windows containing N are
dropped here, so downstream structures only ever see exact ACGT words.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .sequences import MAX_K, Read, slices, window_codes


@dataclass
class KmerCensus:
    """Occurrence counts per canonical k-mer (packed code -> count)."""

    k: int
    counts: dict[int, int]

    def total(self) -> int:
        return sum(self.counts.values())


@dataclass(frozen=True)
class SolidKmerSet:
    """The canonical k-mers whose census count reached the coverage threshold."""

    k: int
    codes: frozenset[int]

    def __len__(self) -> int:
        return len(self.codes)


def count_kmers(reads: Iterable[Read | str], k: int) -> KmerCensus:
    """Count canonical k-mers over a read stream; empty input gives an empty census."""
    if not 2 <= k <= MAX_K:
        raise ValueError(f"k must be in [2, {MAX_K}], got {k}")
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
