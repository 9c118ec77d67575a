"""Anchor and interior (k-1)-mer indexes over a compacted graph.

Both indexes are keyed by the written code of a (k-1)-mer, with no
canonical form.  The anchor index files each oriented unitig under the word
it starts with and the word it ends with: (u,'+') under u's first and last
(k-1)-mer, (u,'-') under the reverse complements of its last and first.  A
unitig starts with a word exactly when its flipped orientation ends with the
word's reverse complement, so the key set is closed under reverse
complement, and a palindromic word is one key like any other.  Orientations
are the strings '+' and '-'.

Successor lists (`Successors`, one per anchor index and graph, from
`AnchorIndex.successors`) give, per oriented unitig, the unitigs starting
with its last (k-1)-mer: the starts of the key whose ends hold it, filled in
one pass over the anchor table.

The interior index lists every (k-1)-mer occurrence inside every unitig and
backs the single-unitig mapping regime.  Its keys are the written codes of
the forward unitig text, with no orientation bit: a read strand is placed on
the forward text by looking up its own windows' written codes, and on the
reverse text by the reverse complement's pass doing the same.  Each
occurrence is one int, `offset << 32 | unitig_id`, and a key with one
occurrence holds that int alone.  The build encodes each unitig in bounded
slices (`sequences.slices`), never as one whole-unitig window list.

The index file (format version 6) holds the interior table alone: a header
of magic, version, k, a fingerprint of the graph it was built from
(`graph_fingerprint`) and its unitig count; then a key and an entry count
and little-endian columns of the keys' high and low 64-bit words, one
occurrence count per key and two 32-bit fields per occurrence (unitig id,
then offset); and last a CRC-32 of every byte before it.  An occurrence's
two fields, read as one little-endian 64-bit value, are its packed int, so
the entries column is written from the in-memory ints and read back as them
with no arithmetic per entry.  The keys are in the table's own order, the
build's unitig by unitig and window by window, and a load keeps file order,
so a loaded index saves to the same bytes.

A unitig's first and last (k-1)-mers are its windows at offset 0 and at
its largest offset, so a load derives the anchor table from one walk over
the occurrences, through the code `build_anchor_index` uses.  A load rejects
a CRC mismatch, columns that do not add up, a key with no occurrences, a k
outside [2, MAX_K], a unitig count above half the entries (a unitig has two
windows or more), a unitig id not below the count and a unitig with no
window at offset 0.  `matches_graph` rejects a fingerprint, k or largest
offset other than the graph's, and an anchor table other than the built one
(a first or last window under another word).  A file of versions 1 to 5 is
rejected from its version field alone, with a message to rebuild it.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from collections.abc import Iterable
from itertools import accumulate, chain, islice, repeat
from operator import and_, lshift, or_, rshift
from pathlib import Path

# The interpreter's own SHA-256: importing hashlib also loads OpenSSL, which
# adds about 3.6 MB to the peak RSS of every build and map run.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # pragma: no cover - an interpreter built without it
        from hashlib import sha256

from .graph import CompactedGraph
from .sequences import MAX_K, kmer_codes, rc_code, slices, window_codes

_INDEX_MAGIC = b"CDBGIDX1"
_INDEX_VERSION = 6

# magic, version, k, graph fingerprint, unitig count; little-endian, as are
# the columns (byte-swapped on a big-endian host)
_HEADER = struct.Struct("<8sII32sI")
_SWAP = sys.byteorder == "big"
_REBUILD = "rebuild it with `cdbgmap map --index-out`"

FORWARD = "+"
REVERSE = "-"


class AnchorIndex:
    """Written (k-1)-mer code -> the oriented unitigs starting and ending
    with that word."""

    def __init__(self, k: int):
        self.k = k
        # code -> (starts, ends); each a sorted tuple of (unitig_id, '+'/'-')
        self._table: dict[int, tuple[tuple, tuple]] = {}
        self._successors: Successors | None = None

    def __len__(self) -> int:
        return len(self._table)

    def keys(self):
        return self._table.keys()

    def starts_with_codes(self, code: int) -> tuple:
        """Oriented unitigs whose sequence starts with the written word, as
        (unitig_id, '+'/'-'), smallest id then '+' first."""
        return self._table.get(code, ((), ()))[0]

    def ends_with_codes(self, code: int) -> tuple:
        """Oriented unitigs whose sequence ends with the written word."""
        return self._table.get(code, ((), ()))[1]

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
        self.graph = graph
        self._starting: dict[int, tuple] = {}
        for code, (starts, ends) in anchor._table.items():
            starting = tuple((uid, o, seq(uid, o)) for uid, o in starts)
            self._starting[code] = starting
            for end in ends:
                self[end] = starting

    def starting(self, code: int) -> tuple:
        """Unitigs whose oriented sequence starts with the written word as
        (unitig_id, '+'/'-', oriented sequence), smallest id then '+' first."""
        return self._starting.get(code, ())


def build_anchor_index(graph: CompactedGraph) -> AnchorIndex:
    """Each oriented unitig is filed under the written code of its first
    (k-1)-mer in the starts and of its last in the ends; the key set is
    therefore closed under reverse complement."""
    size = graph.k - 1
    return _anchor_index(graph.k, (
        kmer_codes(u.sequence[:size]) + kmer_codes(u.sequence[-size:]) for u in graph.unitigs))


def _anchor_index(k: int, words: Iterable[tuple[int, int, int, int]]) -> AnchorIndex:
    """The anchor index of unitigs 0, 1, ... whose first and last (k-1)-mers
    have the written codes of `words`' (first, its reverse complement, last,
    its reverse complement): (u,'+') under the first in the starts and the
    last in the ends, (u,'-') under the last's reverse complement in the
    starts and the first's in the ends.  Each list is filled in (id,
    orientation) order, so it comes out sorted."""
    idx = AnchorIndex(k)
    starts: dict[int, list] = {}
    ends: dict[int, list] = {}
    for uid, (first, first_rc, last, last_rc) in enumerate(words):
        starts.setdefault(first, []).append((uid, FORWARD))
        ends.setdefault(last, []).append((uid, FORWARD))
        starts.setdefault(last_rc, []).append((uid, REVERSE))
        ends.setdefault(first_rc, []).append((uid, REVERSE))
    for key in starts.keys() | ends.keys():
        idx._table[key] = (tuple(starts.get(key, ())), tuple(ends.get(key, ())))
    return idx


class InteriorIndex:
    """Written (k-1)-mer code -> occurrences inside unitigs.

    A key is the code of a window of a unitig's forward text; there is no
    orientation bit, so an occurrence of the reverse text is the one under
    the reverse complement's code.  An occurrence of the window at `offset`
    of unitig `uid` is the packed int `offset << 32 | uid`.  A key with one
    occurrence holds that int; a key with more holds a tuple of them in
    ascending (uid, offset) order.  `fingerprint` is the `graph_fingerprint`
    of the graph the index was built from, and `last_offsets` the largest
    window offset of each of its unitigs, by id.
    """

    def __init__(self, k: int, fingerprint: bytes = bytes(32)):
        self.k = k
        self.fingerprint = fingerprint
        self.last_offsets: list[int] = []
        self._table: dict[int, int | tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self._table)


def graph_fingerprint(graph: CompactedGraph) -> bytes:
    """SHA-256 of the graph's unitig sequences in id order, each ended by a
    newline; with k, it identifies the graph an index file was built from."""
    return sha256("".join(u.sequence + "\n" for u in graph.unitigs).encode()).digest()


def build_interior_index(graph: CompactedGraph) -> InteriorIndex:
    """Every (k-1)-mer window of every unitig, under its written code, as
    packed occurrences; each unitig is encoded a bounded slice at a time."""
    idx = InteriorIndex(graph.k, graph_fingerprint(graph))
    size = graph.k - 1
    idx.last_offsets = [len(u.sequence) - size for u in graph.unitigs]
    table = idx._table
    add = table.setdefault
    repeated = []  # keys seen twice, whose occurrences are kept in a list
    for u in graph.unitigs:
        uid = u.id
        for start, part in slices(u.sequence, size):
            # unitigs are exact ACGT, so window i of a part sits at start + i
            for pos, fwd, _ in window_codes(part, size):
                packed = (start + pos) << 32 | uid
                held = add(fwd, packed)
                if held is packed:  # a new key
                    continue
                if type(held) is list:
                    held.append(packed)
                else:
                    table[fwd] = [held, packed]
                    repeated.append(fwd)
    for key in repeated:
        table[key] = tuple(table[key])
    return idx


def matches_graph(graph: CompactedGraph, anchor: AnchorIndex, interior: InteriorIndex) -> bool:
    """Whether loaded indexes were built from `graph`: same k and
    fingerprint, each unitig's largest interior offset that of its last
    (k-1)-mer (so the same unitig count, and every offset places a (k-1)-mer
    inside its unitig), and the very anchor table that `build_anchor_index`
    gives for the graph (so no first or last window under another word)."""
    size = graph.k - 1
    return (
        (anchor.k, interior.fingerprint) == (graph.k, graph_fingerprint(graph))
        and interior.last_offsets == [len(u.sequence) - size for u in graph.unitigs]
        and anchor._table == build_anchor_index(graph)._table
    )


def save_indexes(path: str | Path, interior: InteriorIndex) -> None:
    """The interior index in the file layout of the module docstring, in
    table order, the CRC folded over the columns as they are written."""
    table = interior._table
    header = _HEADER.pack(_INDEX_MAGIC, _INDEX_VERSION, interior.k, interior.fingerprint,
                          len(interior.last_offsets))
    sizes = [1 if type(v) is int else len(v) for v in table.values()]
    # each column is built as it is written; a packed occurrence is its
    # (unitig id, offset) entry as one little-endian 64-bit value
    columns = map(array, "QQQIQ", (
        (len(sizes), sum(sizes)),
        map(rshift, table, repeat(64)),
        map(and_, table, repeat((1 << 64) - 1)),
        sizes,
        chain.from_iterable((v,) if type(v) is int else v for v in table.values()),
    ))
    with open(path, "wb") as out:
        out.write(header)
        crc = zlib.crc32(header)
        for col in columns:
            if _SWAP:
                col.byteswap()
            out.write(col)
            crc = zlib.crc32(col, crc)
        out.write(crc.to_bytes(4, "little"))


def _column(raw: memoryview, typecode: str):
    """Little-endian file bytes as a sequence of native `typecode` values."""
    if not _SWAP:
        return raw.cast(typecode)
    col = array(typecode, bytes(raw))
    col.byteswap()
    return col


def load_indexes(path: str | Path) -> tuple[AnchorIndex, InteriorIndex]:
    """The interior index of a file save_indexes wrote, and the anchor index
    derived from it.  A file of another format version (nothing past its
    version is read), or a truncated or malformed one, raises ValueError."""
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
    off = _HEADER.size

    def take(n_bytes: int) -> memoryview:
        nonlocal off
        start, off = off, off + n_bytes
        if off > len(body):
            raise ValueError("a column is cut short")
        return body[start:off]

    try:
        if len(body) < _HEADER.size or zlib.crc32(body) != int.from_bytes(data[-4:], "little"):
            raise ValueError("CRC-32 mismatch")
        _, _, k, fingerprint, count = _HEADER.unpack_from(data)
        n_keys, n_entries = _column(take(16), "Q")
        high, low = _column(take(8 * n_keys), "Q"), _column(take(8 * n_keys), "Q")
        sizes = _column(take(4 * n_keys), "I")
        raw = take(8 * n_entries)
        if off != len(body):
            raise ValueError(f"{len(body) - off} bytes between the table and the CRC trailer")
        if sum(sizes) != n_entries:
            raise ValueError("occurrence counts do not sum to the entry count")
        if min(sizes, default=1) < 1:
            raise ValueError("a key with no occurrences")
        if not 2 <= k <= MAX_K:
            raise ValueError(f"k={k} is not in [2, {MAX_K}]")
        if count > n_entries // 2:
            raise ValueError(f"the unitig count {count} is above half the {n_entries} entries")
        entries = _column(raw, "I")  # unitig id, then offset
        uids, offsets = entries[0::2], entries[1::2]
        if max(uids, default=-1) >= count:
            raise ValueError(f"a unitig id is not below the unitig count {count}")
        # per unitig: the key of its window at offset 0, and its largest
        # offset and that window's key, each key as its index j (the key
        # whose entries end just before entry `end`)
        first, last, top = [-1] * count, [0] * count, [-1] * count
        ends, j, end = accumulate(sizes), -1, 0
        for entry, uid, offset in zip(range(n_entries), uids, offsets):
            if entry == end:
                j, end = j + 1, next(ends)
            if offset > top[uid]:
                top[uid] = offset
                last[uid] = j
            if not offset:
                first[uid] = j
        if -1 in first:
            raise ValueError(f"unitig {first.index(-1)} has no window at offset 0")
        keys = [high[j] << 64 | low[j] for j in first + last]
        if max(keys, default=0) >> 2 * (k - 1):
            raise ValueError(f"a key of more than k-1={k - 1} bases")
    except ValueError as exc:
        raise ValueError(f"truncated or malformed index file {path} ({exc}): {_REBUILD}") from None

    interior = InteriorIndex(k, fingerprint)
    interior.last_offsets = top
    packed = _column(raw, "Q")
    if len(packed) == len(sizes):  # one occurrence per key
        values = packed
    else:
        occurrences = iter(packed)
        values = [next(occurrences) if n == 1 else tuple(islice(occurrences, n)) for n in sizes]
    interior._table = dict(zip(map(or_, map(lshift, high, repeat(64)), low), values))
    rcs = [rc_code(key, k - 1) for key in keys]
    return _anchor_index(k, zip(keys[:count], rcs[:count], keys[count:], rcs[count:])), interior


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
