"""Anchor and interior (k-1)-mer indexes over a compacted graph.

Both indexes key a (k-1)-mer by the word itself, as written, with no
canonical form, so a read's text is looked up with no encoding.  The anchor
index files each oriented unitig under the word it starts with and the word
it ends with: (u,'+') under u's first and last (k-1)-mer, (u,'-') under the
reverse complements of its last and first.  A unitig starts with a word
exactly when its flipped orientation ends with the word's reverse
complement, so the key set is closed under reverse complement, and a
palindromic word is one key like any other.  Orientations are the strings
'+' and '-'.

Each oriented unitig is one entry, `(unitig_id, '+'/'-', text, body,
span)`: its oriented text (the '-' one reverse-complemented once, at the
build), the text after its first (k-1)-mer and that text's length.  The one
tuple is filed under the first word in the starts and under the last in the
ends.  So the anchor table is the graph's only junction table: after any
oriented unitig, the candidates are `starts_with_codes` of its last word,
and a junction compares each candidate's body with the read in place.

The anchor index also finds its keys in a read (`overlaps`, the first step
of both branching mappers).  Testing every (k-1)-window costs one slice and
one lookup per read base, and most windows are no key.  So at k > 24 the
index holds a probe table: with stride s = min(8, k-23) and gram length
m = k-s (never below 23 bases), it files each key's m-gram at each shift
j < s under the tuple of the shifts it occurs at.  A read is probed only at
0, s, 2s, ...; a key window at p holds, at shift i-p, the gram at the one
multiple i of s in [p, p+s), so each key window is named by one probe and
then tested whole.  The tuples are shared, one per set of shifts in use (at
most 2^s), so the table costs one m-gram string per distinct gram and its
dict slot: 0.84 MB (tracemalloc) beside the 2.35 MB anchor table of a
180 kb reference with repeat families at k 31 (4,004 keys, 8,356 grams).
At k <= 24 (stride 1) there is no probe table and every window is tested.

The interior index lists every (k-1)-mer occurrence inside every unitig and
backs the single-unitig mapping regime.  Its keys are the words of the
forward unitig text, with no orientation bit: a read strand is placed on the
forward text by looking up its own words, and on the reverse text by the
reverse complement's pass doing the same.  Each occurrence is one int,
`offset << 32 | unitig_id`, and a key with one occurrence holds that int
alone.  The build slices each unitig's words and encodes nothing, and the
index keeps the graph it was built from.

The index file is the unitig FASTA that `cdbgmap build` writes (`>u<id>
k=<k>` headers): `save_indexes` writes the graph an index was built from
with `write_unitigs_fasta`, and `load_indexes` reads it back at the k its
headers record and builds both indexes from it with `build_anchor_index`
and `build_interior_index`, the code a run without a file uses, so a load
saves to the same bytes.  The file saves no time over a build from the
`-g` FASTA, which `cdbgmap map` reads in any case: it is kept for the
callers of `--index-out` and `--index-in`, which check it against the `-g`
graph, so a damaged file is rejected or cannot change a result.  It is
opened once and read forward, so it may be a pipe or a FIFO.
"""

from __future__ import annotations

import sys
from itertools import islice
from pathlib import Path

from .graph import CompactedGraph, read_unitigs_fasta, write_unitigs_fasta
from .sequences import reverse_complement
from .sequences import window_codes  # noqa: F401  (bench/traced.py wraps index.window_codes)

FORWARD = "+"
REVERSE = "-"

_NO_ENTRIES = ((), ())  # (starts, ends) of a word that is not a key
# The probe stride is min(_MAX_STRIDE, max(1, k - _MIN_GRAM)) and the gram
# length k - stride, so no gram is shorter than _MIN_GRAM bases.
_MAX_STRIDE = 8
_MIN_GRAM = 23


class AnchorIndex:
    """Written (k-1)-mer -> the oriented unitigs starting and ending with
    that word, as entries (unitig_id, '+'/'-', text, body, span).  At a
    stride above 1 it also holds the probe table of `overlaps`."""

    def __init__(self, k: int):
        self.k = k
        # word -> (starts, ends); each a tuple of entries, smallest id then '+'
        self._table: dict[str, tuple[tuple, tuple]] = {}
        self.stride = min(_MAX_STRIDE, max(1, k - _MIN_GRAM))
        self.gram = k - self.stride
        # m-gram -> its shifts in the keys, largest first, one of `_shifts`;
        # None at stride 1, where `overlaps` tests every window
        self._probes: dict[str, tuple[int, ...]] | None = None
        self._shifts: dict[int, tuple[int, ...]] = {}  # bit mask -> its shift tuple

    def __len__(self) -> int:
        return len(self._table)

    def keys(self):
        return self._table.keys()

    def starts_with_codes(self, word: str) -> tuple:
        """Entries of the oriented unitigs whose text starts with the written
        `word`, smallest id then '+' first.  It takes the word, not its code;
        the name stays because bench/traced.py wraps it."""
        return self._table.get(word, _NO_ENTRIES)[0]

    def ends_with_codes(self, word: str) -> tuple:
        """Entries of the oriented unitigs whose text ends with the written
        `word`.  It takes the word, not its code; the name stays because
        bench/traced.py wraps it."""
        return self._table.get(word, _NO_ENTRIES)[1]

    def overlaps(self, seq: str) -> list:
        """The (k-1)-windows of `seq` that are keys, as (position, word)
        pairs in ascending order.

        At stride s > 1 only the m-grams at 0, s, 2s, ... are looked up.  A
        key window at p holds at shift j = i - p the gram at the one multiple
        i of s in [p, p+s), and i <= len(seq) - m, so every key window is
        named by exactly one probe; each named window is then tested whole.
        The shifts of a gram are held largest first, so the windows come out
        in order."""
        size, keys = self.k - 1, self._table
        last = len(seq) - size
        probes = self._probes
        if probes is None:
            return [(i, w) for i in range(last + 1) if (w := seq[i : i + size]) in keys]
        gram = self.gram
        hits = [i for i in range(0, len(seq) - gram + 1, self.stride)
                if seq[i : i + gram] in probes]
        found = []
        for i in hits:
            for j in probes[seq[i : i + gram]]:
                p = i - j
                if 0 <= p <= last and (w := seq[p : p + size]) in keys:
                    found.append((p, w))
        return found


def build_anchor_index(graph: CompactedGraph) -> AnchorIndex:
    """One entry per oriented unitig, filed under its first (k-1)-mer in the
    starts and its last in the ends: (u,'+') under u's first and last, (u,'-')
    under the reverse complements of its last and first, so the key set is
    closed under reverse complement.  At a stride above 1, the probe table
    of the finished keys follows."""
    idx = AnchorIndex(graph.k)
    idx._table = _anchor_table(graph)
    if idx.stride > 1:  # made once the build's entry lists are gone
        idx._shifts, idx._probes = _probe_table(idx._table, idx.stride, idx.gram)
    return idx


def _anchor_table(graph: CompactedGraph) -> dict:
    """word -> (starts, ends).  Each list is filled in (id, orientation)
    order, so it comes out sorted."""
    size = graph.k - 1
    starts: dict[str, list] = {}
    ends: dict[str, list] = {}
    for u in graph.unitigs:
        for orient, text in ((FORWARD, u.sequence), (REVERSE, reverse_complement(u.sequence))):
            body = text[size:]
            entry = (u.id, orient, text, body, len(body))
            starts.setdefault(text[:size], []).append(entry)
            ends.setdefault(text[-size:], []).append(entry)
    # a dict, not a set: string order is per process
    return {key: (tuple(starts.get(key, ())), tuple(ends.get(key, ())))
            for key in {**starts, **ends}}


def _probe_table(keys, stride: int, gram: int) -> tuple[dict, dict]:
    """The mask table, each bit mask of shifts in use -> the tuple of those
    shifts, largest first, and the table of every key's `gram`-long slice at
    each shift j < stride to the tuple of its shifts.  A gram is first filed
    under the mask of its shifts, which is then swapped for that mask's
    shared tuple, so the table holds one string per distinct gram and no
    tuple of its own."""
    probes: dict[str, int] = {}
    held = probes.get
    for key in keys:
        for j in range(stride):
            g = key[j : j + gram]
            probes[g] = held(g, 0) | 1 << j
    shifts: dict[int, tuple[int, ...]] = {}
    for g, mask in probes.items():  # values only: the dict keeps its size
        shared = shifts.get(mask)
        if shared is None:
            shared = shifts[mask] = tuple(j for j in reversed(range(stride)) if mask >> j & 1)
        probes[g] = shared
    return shifts, probes


class InteriorIndex:
    """Written (k-1)-mer -> occurrences inside unitigs.

    A key is a word of a unitig's forward text; there is no orientation bit,
    so an occurrence of the reverse text is the one under the reverse
    complement's word.  An occurrence of the word at `offset` of unitig
    `uid` is the packed int `offset << 32 | uid`.  A key with one
    occurrence holds that int; a key with more holds a tuple of them in
    ascending (uid, offset) order.  `graph` is the graph the index was built
    from.
    """

    def __init__(self, graph: CompactedGraph):
        self.k = graph.k
        self.graph = graph
        self._table: dict[str, int | tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self._table)


def build_interior_index(graph: CompactedGraph) -> InteriorIndex:
    """Every (k-1)-mer word of every unitig, as written, with its packed
    occurrences."""
    idx = InteriorIndex(graph)
    size = graph.k - 1
    table = idx._table
    add = table.setdefault
    repeated = []  # keys seen twice, whose occurrences are kept in a list
    for u in graph.unitigs:
        uid, seq = u.id, u.sequence
        for off in range(len(seq) - size + 1):
            word = seq[off : off + size]
            packed = off << 32 | uid
            held = add(word, packed)
            if held is packed:  # a new key
                continue
            if type(held) is list:
                held.append(packed)
            else:
                table[word] = [held, packed]
                repeated.append(word)
    for key in repeated:
        table[key] = tuple(table[key])
    return idx


def save_indexes(path: str | Path, interior: InteriorIndex) -> None:
    """The graph `interior` was built from, as its unitig FASTA."""
    write_unitigs_fasta(path, interior.graph)


def load_indexes(path: str | Path) -> tuple[AnchorIndex, InteriorIndex]:
    """The anchor and interior indexes of the unitig FASTA at `path`, at the
    k its headers record, built as from any graph.  A file that is not such
    a FASTA raises ValueError naming it."""
    graph = read_unitigs_fasta(path)
    return build_anchor_index(graph), build_interior_index(graph)


# Table entries whose sizes approximate_bytes measures; the rest are assumed
# to be of the same mean size.
_BYTES_SAMPLE = 1024


def _table_bytes(table: dict, values: bool = True) -> int:
    """The dict itself plus the mean size of its first `_BYTES_SAMPLE`
    entries times its length: each key and, with `values`, each value and
    the items of a tuple value."""
    sample = list(islice(table.items(), _BYTES_SAMPLE))
    sampled = 0
    for key, value in sample:
        sampled += sys.getsizeof(key)
        if values:
            sampled += sys.getsizeof(value)
            if type(value) is tuple:  # an int value holds no other object
                sampled += sum(map(sys.getsizeof, value))
    return sys.getsizeof(table) + (sampled * len(table) // len(sample) if sample else 0)


def approximate_bytes(index: AnchorIndex | InteriorIndex) -> int:
    """Rough in-memory footprint, for the CLI's per-key memory report: the
    table and, for an anchor index with a probe table, that table's keys
    and its shared shift tuples, each counted once."""
    total = _table_bytes(index._table)
    if isinstance(index, AnchorIndex) and index._probes is not None:
        shifts = index._shifts
        total += _table_bytes(index._probes, values=False)
        total += sys.getsizeof(shifts) + sum(map(sys.getsizeof, shifts.values()))
    return total
