"""Canonical k-mer counting and the coverage-filtered (solid) k-mer set.

A k-mer and its reverse complement share one counter keyed by the packed
canonical code.  Windows containing N are dropped here, so downstream
structures only ever see exact ACGT words.

Counting is partitioned, as in DSK and BCALM 2, so that the census of every
distinct k-mer, which sequencing errors make grow with the input, is never
in memory: each code goes to partition `code % PARTITIONS`, whose buffer
is written to a temporary file whenever the buffers hold `_SPILL` codes
together, and a partition is counted only when it is read back.  So at most
one partition's counts are alive at a time, beside the solid codes kept.
"""

from __future__ import annotations

import tempfile
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .sequences import MAX_K, slices, window_codes

#: Partitions of the census.  Counting holds one partition's counts at a
#: time, about 1/PARTITIONS of the distinct k-mers.
PARTITIONS = 64
# Codes held in the partitions' buffers before they are written out: 2 MB
# at k <= 32, where a code is one 8-byte word (two above).
_SPILL = 1 << 18
# Bytes of a partition file read at a time, a multiple of 16 so that a
# block holds whole two-word codes
_READ = 1 << 19
_WORD = (1 << 64) - 1


def _join(hi: int, lo: int) -> int:
    return hi << 64 | lo


class PartitionedCounts:
    """Code -> count of a census, held per partition as a buffer and, once
    the buffers have spilled, an anonymous temporary file.  `items()` and
    `at_least()` count the partitions one at a time with `Counter`; `len()`
    is the number of distinct codes, counted by the first full pass and kept
    after `close()`, which releases the buffers and the files."""

    def __init__(self, wide: bool):
        self.wide = wide  # two words per code, high then low
        #: each partition's codes not yet spilled, which count_kmers appends to
        self.buffers = [array("Q") for _ in range(PARTITIONS)]
        self._files: list = []
        self._distinct: int | None = None
        self._closed = False

    def spill(self) -> None:
        """Append each buffer to its partition's file and empty it."""
        if not self._files:
            for _ in self.buffers:  # one at a time, so close() has each one made
                self._files.append(tempfile.TemporaryFile())
        for buffer, file in zip(self.buffers, self._files):
            buffer.tofile(file)
            del buffer[:]

    def _words(self, p: int) -> Iterator[array]:
        """Partition p's words: its file in blocks of `_READ` bytes, then
        its buffer, so a partition is never read whole."""
        if self._files:
            file = self._files[p]
            file.seek(0)
            while block := file.read(_READ):
                yield array("Q", block)
        yield self.buffers[p]

    def _codes(self, words: array) -> Iterable[int]:
        """The codes that `words` hold, one word each or two above k 32."""
        return map(_join, words[::2], words[1::2]) if self.wide else words

    def items(self) -> Iterator[tuple[int, int]]:
        """(code, count) pairs, partition by partition."""
        if self._closed:
            raise ValueError("the census is closed")
        distinct = 0
        for p in range(len(self.buffers)):
            counts = Counter()
            for words in self._words(p):
                counts.update(self._codes(words))
            distinct += len(counts)
            yield from counts.items()
            del counts  # freed before the next partition is counted
        self._distinct = distinct

    def at_least(self, min_count: int) -> Iterable[int]:
        """The codes counted `min_count` times or more, held as words: their
        ints are made only as the result is iterated.  Ints kept from each
        partition's counts would lie scattered among its freed ones and keep
        that memory in use; made after `close()`, they reuse the buffers'."""
        solid = (code for code, n in self.items() if n >= min_count)
        if self.wide:
            solid = (word for code in solid for word in (code >> 64, code & _WORD))
        return self._codes(array("Q", solid))

    def __len__(self) -> int:
        if self._distinct is None:
            for _ in self.items():
                pass
        return self._distinct

    def close(self) -> None:
        self._closed = True
        self.buffers = []
        while self._files:
            self._files.pop().close()


@dataclass
class KmerCensus:
    """Occurrence counts per canonical k-mer (packed code -> count) over
    `windows` counted windows.  It holds temporary files until closed:
    `solid_set` closes it, and so does leaving a `with` block."""

    k: int
    windows: int
    counts: PartitionedCounts

    def total(self) -> int:
        return self.windows

    def close(self) -> None:
        self.counts.close()

    def __enter__(self) -> KmerCensus:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass(frozen=True)
class SolidKmerSet:
    """The canonical k-mers whose census count reached the coverage threshold."""

    k: int
    codes: frozenset[int]

    def __len__(self) -> int:
        return len(self.codes)


def count_kmers(texts: Iterable[str], k: int) -> KmerCensus:
    """Count canonical k-mers over a stream of texts, such as reads'
    sequences, read once; empty input gives an empty census.  The census
    is partitioned (see the module docstring) and must be closed."""
    if not 2 <= k <= MAX_K:
        raise ValueError(f"k must be in [2, {MAX_K}], got {k}")
    counts = PartitionedCounts(wide=2 * k > 64)
    appends = [buffer.append for buffer in counts.buffers]
    parts = len(appends)
    held = windows = 0
    try:
        for text in texts:
            for _, part in slices(text, k):
                triples = window_codes(part, k)
                if counts.wide:
                    for _, fwd, rc in triples:
                        code = fwd if fwd < rc else rc
                        append = appends[code % parts]
                        append(code >> 64)
                        append(code & _WORD)
                else:
                    for _, fwd, rc in triples:
                        code = fwd if fwd < rc else rc
                        appends[code % parts](code)
                windows += len(triples)
                held += len(triples)
                if held >= _SPILL:
                    counts.spill()
                    held = 0
    except BaseException:
        counts.close()
        raise
    return KmerCensus(k=k, windows=windows, counts=counts)


def solid_set(census: KmerCensus, min_count: int) -> SolidKmerSet:
    """Keep exactly the census keys with count >= min_count, counting one
    partition at a time; the census is closed afterwards, and keeps its
    window total and distinct count."""
    with census:
        if min_count < 1:
            raise ValueError(f"coverage threshold must be >= 1, got {min_count}")
        solid = census.counts.at_least(min_count)
    return SolidKmerSet(k=census.k, codes=frozenset(solid))
