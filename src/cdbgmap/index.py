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

Successor lists (`Successors`, one per anchor index and graph, from
`AnchorIndex.successors`) give, per oriented unitig, the unitigs starting
with its last (k-1)-mer: the starts of the key whose ends hold it, filled in
one pass over the anchor table.  Each entry carries the candidate's text
after the overlap and that text's length, so a junction compares it with
the read in place.

The interior index lists every (k-1)-mer occurrence inside every unitig and
backs the single-unitig mapping regime.  Its keys are the words of the
forward unitig text, with no orientation bit: a read strand is placed on the
forward text by looking up its own words, and on the reverse text by the
reverse complement's pass doing the same.  Each occurrence is one int,
`offset << 32 | unitig_id`, and a key with one occurrence holds that int
alone.  The build slices each unitig's words and encodes nothing, and the
index keeps the graph it was built from.

The index file (format version 7) is a snapshot of that graph: a header of
magic, version, k and unitig count (little-endian 32-bit fields after the
magic); the unitig sequences in id order, each ended by a newline; and a
CRC-32 of every byte before it.  `load_indexes` checks the magic, version
and CRC, makes a `CompactedGraph` of the sequences (which rejects a unitig
shorter than k or with a base outside ACGT) and builds both indexes from it
with `build_anchor_index` and `build_interior_index`, the code a run without
a file uses, so a load saves to the same bytes.  The file saves no time over
a build from the unitig FASTA, which `cdbgmap map` reads in any case: it is
kept for the callers of `--index-out` and `--index-in`, which check it
against the `-g` graph.  A file of versions 1 to 6 is rejected from its
version field alone, with a message to rebuild it.
"""

from __future__ import annotations

import struct
import sys
import zlib
from itertools import islice
from pathlib import Path

from .graph import CompactedGraph, Unitig
from .sequences import MAX_K, reverse_complement
from .sequences import window_codes  # noqa: F401  (bench/traced.py wraps index.window_codes)

_INDEX_MAGIC = b"CDBGIDX1"
_INDEX_VERSION = 7

# magic, version, k, unitig count
_HEADER = struct.Struct("<8sIII")
_REBUILD = "rebuild it with `cdbgmap map --index-out`"

FORWARD = "+"
REVERSE = "-"


class AnchorIndex:
    """Written (k-1)-mer -> the oriented unitigs starting and ending with
    that word."""

    def __init__(self, k: int):
        self.k = k
        # word -> (starts, ends); each a sorted tuple of (unitig_id, '+'/'-')
        self._table: dict[str, tuple[tuple, tuple]] = {}
        self._successors: Successors | None = None

    def __len__(self) -> int:
        return len(self._table)

    def keys(self):
        return self._table.keys()

    def starts_with_codes(self, word: str) -> tuple:
        """Oriented unitigs whose sequence starts with the written `word`,
        as (unitig_id, '+'/'-'), smallest id then '+' first.  It takes the
        word, not its code; the name stays because bench/traced.py wraps it."""
        return self._table.get(word, ((), ()))[0]

    def ends_with_codes(self, word: str) -> tuple:
        """Oriented unitigs whose sequence ends with the written `word`.  It
        takes the word, not its code; the name stays because
        bench/traced.py wraps it."""
        return self._table.get(word, ((), ()))[1]

    def successors(self, graph: CompactedGraph) -> "Successors":
        """The successor lists of `graph`'s oriented unitigs under this
        index, kept for the next call with the same graph."""
        if self._successors is None or self._successors.graph is not graph:
            self._successors = Successors(graph, self)
        return self._successors


class Successors(dict):
    """(unitig_id, '+'/'-') -> the unitigs starting with that oriented
    unitig's last (k-1)-mer, as `starting` gives them.  Every oriented
    unitig ends with exactly one anchor key, so one pass over the table
    fills every list; a list is a property of the graph, not of any read."""

    def __init__(self, graph: CompactedGraph, anchor: AnchorIndex):
        super().__init__()
        seq = graph.oriented_sequence
        k1 = graph.k - 1
        self.graph = graph
        self._starting: dict[str, tuple] = {}
        for word, (starts, ends) in anchor._table.items():
            starting = tuple(_entry(uid, o, seq(uid, o), k1) for uid, o in starts)
            self._starting[word] = starting
            for end in ends:
                self[end] = starting

    def starting(self, word: str) -> tuple:
        """Unitigs whose oriented sequence starts with the written word as
        (unitig_id, '+'/'-', oriented sequence, text after the word, length
        of that text), smallest id then '+' first."""
        return self._starting.get(word, ())


def _entry(uid: int, orient: str, text: str, k1: int) -> tuple:
    body = text[k1:]
    return uid, orient, text, body, len(body)


def build_anchor_index(graph: CompactedGraph) -> AnchorIndex:
    """Each oriented unitig is filed under its first (k-1)-mer in the starts
    and its last in the ends: (u,'+') under u's first and last, (u,'-')
    under the reverse complements of its last and first, so the key set is
    closed under reverse complement.  Each list is filled in (id,
    orientation) order, so it comes out sorted."""
    size = graph.k - 1
    idx = AnchorIndex(graph.k)
    starts: dict[str, list] = {}
    ends: dict[str, list] = {}
    for u in graph.unitigs:
        first, last = u.sequence[:size], u.sequence[-size:]
        starts.setdefault(first, []).append((u.id, FORWARD))
        ends.setdefault(last, []).append((u.id, FORWARD))
        starts.setdefault(reverse_complement(last), []).append((u.id, REVERSE))
        ends.setdefault(reverse_complement(first), []).append((u.id, REVERSE))
    for key in {**starts, **ends}:  # a dict, not a set: string order is per process
        idx._table[key] = (tuple(starts.get(key, ())), tuple(ends.get(key, ())))
    return idx


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
    """The graph `interior` was built from, in the file layout of the module
    docstring."""
    graph = interior.graph
    data = _HEADER.pack(_INDEX_MAGIC, _INDEX_VERSION, graph.k, len(graph))
    data += "".join(u.sequence + "\n" for u in graph.unitigs).encode("ascii")
    with open(path, "wb") as out:
        out.write(data)
        out.write(zlib.crc32(data).to_bytes(4, "little"))


def load_indexes(path: str | Path) -> tuple[AnchorIndex, InteriorIndex]:
    """The anchor and interior indexes of the graph in a file save_indexes
    wrote, built as from any graph.  A file of another format version
    (nothing past its version is read), or a truncated or malformed one,
    raises ValueError."""
    with open(path, "rb") as inp:
        data = inp.read()
    if data[:8] != _INDEX_MAGIC:
        raise ValueError(f"not an index file: {path}")
    version = int.from_bytes(data[8:12], "little")
    if len(data) >= 12 and version != _INDEX_VERSION:
        raise ValueError(
            f"index {path} has format version {version}, this cdbgmap reads "
            f"version {_INDEX_VERSION}: {_REBUILD}"
        )
    body = memoryview(data)[:-4]
    try:
        if len(body) < _HEADER.size or zlib.crc32(body) != int.from_bytes(data[-4:], "little"):
            raise ValueError("CRC-32 mismatch")
        _, _, k, count = _HEADER.unpack_from(data)
        if not 2 <= k <= MAX_K:
            raise ValueError(f"k={k} is not in [2, {MAX_K}]")
        seqs = str(body[_HEADER.size:], "ascii").split("\n")
        if seqs.pop() or len(seqs) != count:
            raise ValueError(f"the unitig count {count} is not that of the unitigs it holds")
        graph = CompactedGraph(k, list(map(Unitig, range(count), seqs)))
    except ValueError as exc:
        raise ValueError(f"truncated or malformed index file {path} ({exc}): {_REBUILD}") from None
    return build_anchor_index(graph), build_interior_index(graph)


# Table entries whose sizes approximate_bytes measures; the rest are assumed
# to be of the same mean size.
_BYTES_SAMPLE = 1024


def approximate_bytes(index: AnchorIndex | InteriorIndex) -> int:
    """Rough in-memory footprint, for the CLI's per-key memory report: the
    table itself plus the mean size of its first `_BYTES_SAMPLE` entries
    times its length."""
    table = index._table
    sample = list(islice(table.items(), _BYTES_SAMPLE))
    sampled = 0
    for key, value in sample:
        sampled += sys.getsizeof(key) + sys.getsizeof(value)
        if type(value) is tuple:  # an int value holds no other object
            sampled += sum(map(sys.getsizeof, value))
    return sys.getsizeof(table) + (sampled * len(table) // len(sample) if sample else 0)
