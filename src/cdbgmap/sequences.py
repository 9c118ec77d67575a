"""DNA alphabet, bit-packed k-mers, and read records shared by the whole toolkit.

Packed codes are the k-mer form of graph set-up (counting and compaction):
two bits per base, most significant bits first, with A=0, C=1, G=2, T=3.
The indexes and the mapper key (k-1)-mers as written and encode nothing.
`kmer_codes` is the one encoder of an exact word, and `window_codes` the
one of every N-free window of a sequence; each gives a word's forward code
and its reverse complement's, and `decode_kmer` turns a code back into its
word.
Because the code order matches the lexicographic base order, integer
comparison of two packed k-mers of equal length is exactly lexicographic
comparison of their sequences, so the canonical form of a k-mer is simply
``min(fwd, rc)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

BASES = "ACGT"

#: Largest supported k; two machine words cover 2*63 bits.  Larger values are
#: a configuration error, not a silent fallback.
MAX_K = 63

_COMPLEMENT = str.maketrans("ACGT", "TGCA")
_COMPLEMENT_WITH_N = str.maketrans("ACGTN", "TGCAN")
_DIGITS = str.maketrans("ACGT", "0123")
_RC_DIGITS = str.maketrans("ACGT", "3210")
_DROP_ACGT = str.maketrans("", "", "ACGT")


def non_acgt(s: str) -> str:
    """The symbols of `s` outside ACGT, in order; empty for an exact string."""
    return s.translate(_DROP_ACGT)


def reverse_complement(s: str) -> str:
    """Reverse complement of an exact DNA string (A<->T, C<->G).

    Raises ValueError on any symbol outside ACGT; ambiguous bases are only
    legal at the read-parsing boundary, never in exact k-mer contexts.
    """
    bad = non_acgt(s)
    if bad:
        raise ValueError(f"non-ACGT in exact context: {bad[0]!r}")
    return s.translate(_COMPLEMENT)[::-1]


def reverse_complement_read(s: str) -> str:
    """Reverse complement tolerating N (N maps to N). For read sequences."""
    return s.translate(_COMPLEMENT_WITH_N)[::-1]


def flip(orientation: str) -> str:
    """The other orientation: '+' <-> '-'."""
    return "-" if orientation == "+" else "+"


def kmer_codes(word: str) -> tuple[int, int]:
    """Packed (fwd, rc) codes of an exact word and of its reverse complement,
    read by int() from their bases written as base-4 digits."""
    if non_acgt(word):
        raise ValueError(f"non-ACGT in exact context: {word!r}")
    return int(word.translate(_DIGITS), 4), int(word.translate(_RC_DIGITS)[::-1], 4)


def decode_kmer(bits: int, length: int) -> str:
    """The word of `length` bases whose packed code is `bits`."""
    out = []
    for shift in range(2 * (length - 1), -1, -2):
        out.append(BASES[(bits >> shift) & 3])
    return "".join(out)


@dataclass(frozen=True, slots=True)
class Read:
    """A sequencing read.  FASTQ quality is validated at parsing and dropped:
    nothing downstream scores it."""

    id: str
    sequence: str

    def __post_init__(self):
        if not self.id:
            raise ValueError("read id must be non-empty")
        if len(self.sequence) < 1:
            raise ValueError("read sequence must be non-empty")


# Windows encoded per int() call in window_codes: each window's code is a
# shift of one block-sized int, so a bounded block keeps the cost linear in
# the sequence length.
_BLOCK = 256
_ACGT_RUN = re.compile("[ACGT]+")


def window_codes(seq: str, size: int) -> list[tuple[int, int, int]]:
    """All N-free windows of `seq` as (position, fwd, rc) code triples.

    Windows containing any non-ACGT symbol are skipped; positions of the
    remaining windows are preserved.  This is the hot path of k-mer
    counting.  Each maximal ACGT run is cut into blocks of `_BLOCK` windows
    (overlapping by size-1 bases); a block and its reverse complement are
    read as two ints by `int(..., 4)`, and each window's codes are shifts of
    those.
    """
    mask = (1 << (2 * size)) - 1
    out = []
    for run in _ACGT_RUN.finditer(seq):
        begin, end = run.span()
        for start in range(begin, end - size + 1, _BLOCK):
            block = seq[start : min(start + _BLOCK + size - 1, end)]
            top = 2 * (len(block) - size)
            fwd = int(block.translate(_DIGITS), 4)
            rc = int(block.translate(_RC_DIGITS)[::-1], 4)
            out.extend(zip(
                range(start, start + top // 2 + 1),
                [fwd >> s & mask for s in range(top, -1, -2)],
                [rc >> s & mask for s in range(0, top + 1, 2)],
            ))
    return out


# Windows per slice in `slices`: counting encodes a long sequence one
# bounded slice at a time, never as one whole-sequence list.
_SLICE = 4096


def slices(seq: str, size: int):
    """(start, part) pairs that cut `seq` into parts of `_SLICE` windows of
    `size` bases: each part is `_SLICE + size - 1` bases or fewer and
    overlaps the next by size-1 bases, so every window of `seq` is a window
    of exactly one part, at its position in `seq` minus `start`."""
    span = _SLICE + size - 1
    for start in range(0, len(seq) - size + 1, _SLICE):
        yield start, seq[start : start + span]
