"""Anchor and interior (k-1)-mer indexes over a compacted graph.

Both indexes are keyed by the written code of a (k-1)-mer, with no
canonical form.  The anchor index files each oriented unitig under the word
it starts with and the word it ends with: (u,'+') under u's first and last
(k-1)-mer, (u,'-') under the reverse complements of its last and first.  A
unitig starts with a word exactly when its flipped orientation ends with the
word's reverse complement, so the key set is closed under reverse
complement, and a palindromic word is one key like any other.  Orientations
are the strings '+' and '-' everywhere in memory; only the index file
stores them as a bit ('-' is 1).

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

The index file (format version 5) holds a header of magic, version, k, a
fingerprint of the graph the indexes were built from (`graph_fingerprint`)
and its unitig count; then the anchor table and the interior table in one
layout, a key and an entry count and then little-endian columns, in key
order, of the keys' high and low 64-bit words, one size per group (an
anchor key's starts then its ends; an interior key's occurrences) and two
32-bit fields per entry (unitig id, then orientation bit or offset); and
last a CRC-32 of every byte before it.  An interior entry's two 32-bit
fields, read as one little-endian 64-bit value, are its packed occurrence,
so the interior entries column is written from the in-memory ints and read
back as them with no arithmetic per entry.  The fingerprint and count match
a file to a graph without rebuilding the interior index.  A load rejects a
CRC mismatch, columns that do not add up, an interior key with no
occurrences, any unitig id not below the count, and an anchor table that
does not hold each oriented unitig of the unitigs it names exactly once
among the starts and exactly once among the ends (the greedy cover looks up
the successor list of every unitig it reaches, which needs the unitig's
end); `matches_graph` rejects an anchor table other than the one
`build_anchor_index` gives for the graph (a unitig left out, or filed under
another word), which it rebuilds at four entries per unitig, and an
interior offset past its unitig's last (k-1)-mer.  A file of versions 1 to
4 is rejected, from its version field alone, with a message to rebuild it.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from collections.abc import Iterator
from itertools import chain, cycle, islice, repeat
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
from .sequences import kmer_codes, slices, window_codes

_INDEX_MAGIC = b"CDBGIDX1"
_INDEX_VERSION = 5

# magic, version, k, graph fingerprint, unitig count; little-endian, as are
# the columns (byte-swapped on a big-endian host)
_HEADER = struct.Struct("<8sII32sI")
_SWAP = sys.byteorder == "big"
_REBUILD = "rebuild it with `cdbgmap map --index-out`"

FORWARD = "+"
REVERSE = "-"

# a packed interior occurrence is `offset << 32 | unitig_id`
_UID = (1 << 32) - 1


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
    idx = AnchorIndex(k=graph.k)
    size = graph.k - 1
    starts: dict[int, list] = {}
    ends: dict[int, list] = {}
    for u in graph.unitigs:
        pf, pf_rc = kmer_codes(u.sequence[:size])
        sf, sf_rc = kmer_codes(u.sequence[-size:])
        starts.setdefault(pf, []).append((u.id, FORWARD))
        ends.setdefault(sf, []).append((u.id, FORWARD))
        starts.setdefault(sf_rc, []).append((u.id, REVERSE))
        ends.setdefault(pf_rc, []).append((u.id, REVERSE))
    for key in starts.keys() | ends.keys():
        idx._table[key] = (
            tuple(sorted(starts.get(key, ()))),
            tuple(sorted(ends.get(key, ()))),
        )
    return idx


class InteriorIndex:
    """Written (k-1)-mer code -> occurrences inside unitigs.

    A key is the code of a window of a unitig's forward text; there is no
    orientation bit, so an occurrence of the reverse text is the one under
    the reverse complement's code.  An occurrence of the window at `offset`
    of unitig `uid` is the packed int `offset << 32 | uid`.  A key with one
    occurrence holds that int; a key with more holds a tuple of them in
    ascending (uid, offset) order.  `fingerprint` is the `graph_fingerprint`
    of the graph the index was built from, and `unitig_count` its number of
    unitigs.
    """

    def __init__(self, k: int, fingerprint: bytes = bytes(32)):
        self.k = k
        self.fingerprint = fingerprint
        self.unitig_count = 0
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
    idx.unitig_count = len(graph)
    size = graph.k - 1
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


def _occurrences(values):
    """The packed occurrences of interior table values, in order."""
    for value in values:
        if type(value) is int:
            yield value
        else:
            yield from value


def matches_graph(graph: CompactedGraph, anchor: AnchorIndex, interior: InteriorIndex) -> bool:
    """Whether loaded indexes were built from `graph`: same k, unitig count
    and fingerprint, the very anchor table that `build_anchor_index` gives
    for the graph (every oriented unitig filed under its own first and last
    (k-1)-mers, in the same order), and every interior occurrence placing a
    (k-1)-mer inside its unitig.  The unitig ids are below the count, as a
    load checks."""
    if (anchor.k, interior.unitig_count, interior.fingerprint) != (
            graph.k, len(graph), graph_fingerprint(graph)):
        return False
    if anchor._table != build_anchor_index(graph)._table:
        return False
    last = [len(u.sequence) - graph.k + 1 for u in graph.unitigs]  # last window offsets
    return all(p >> 32 <= last[p & _UID] for p in _occurrences(interior._table.values()))


def _columns(keys: list, sizes: array, entries: array) -> Iterator[array]:
    """One table's columns in file order: the key and entry counts, the
    keys' high and low words (each built when it is asked for), the group
    sizes and the entries."""
    yield array("Q", (len(keys), sum(sizes)))
    yield array("Q", map(rshift, keys, repeat(64)))
    yield array("Q", map(and_, keys, repeat((1 << 64) - 1)))
    yield sizes
    yield entries


def save_indexes(path: str | Path, anchor: AnchorIndex, interior: InteriorIndex) -> None:
    """Both indexes in the file layout of the module docstring, the CRC
    folded over the columns as they are written."""
    header = _HEADER.pack(
        _INDEX_MAGIC, _INDEX_VERSION, anchor.k, interior.fingerprint, interior.unitig_count
    )
    anchor_keys = sorted(anchor._table)
    # anchor groups: starts then ends, with orientation bits
    groups = [[(u, o == REVERSE) for u, o in group]
              for key in anchor_keys for group in anchor._table[key]]
    interior_keys = sorted(interior._table)
    values = list(map(interior._table.__getitem__, interior_keys))
    columns = chain(
        _columns(anchor_keys, array("I", map(len, groups)),
                 array("I", chain.from_iterable(chain.from_iterable(groups)))),
        # a packed occurrence is its (unitig id, offset) entry as one
        # little-endian 64-bit value
        _columns(interior_keys, array("I", [1 if type(v) is int else len(v) for v in values]),
                 array("Q", _occurrences(values))),
    )
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
    """Inverse of save_indexes.  A file of another format version (nothing
    past its version is read), or a truncated or malformed one, raises
    ValueError."""
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
        tables = []
        for groups_per_key in (2, 1):  # anchor: starts and ends; interior: occurrences
            n_keys, n_entries = _column(take(16), "Q")
            high, low = _column(take(8 * n_keys), "Q"), _column(take(8 * n_keys), "Q")
            sizes = _column(take(4 * groups_per_key * n_keys), "I")
            raw = take(8 * n_entries)
            entries = _column(raw, "I")  # unitig id, then orientation bit or offset
            if sum(sizes) != n_entries:
                raise ValueError("group sizes do not sum to the entry count")
            if max(entries[0::2], default=-1) >= count:
                raise ValueError(f"a unitig id is not below the unitig count {count}")
            keys = map(or_, map(lshift, high, repeat(64)), low)
            tables.append((keys, sizes, entries, raw))
        if off != len(body):
            raise ValueError(f"{len(body) - off} bytes between the tables and the CRC trailer")
        (keys, sizes, entries, _), (ikeys, isizes, _, iraw) = tables
        if max(entries[1::2], default=0) > 1:
            raise ValueError("an orientation bit above 1")
        # each oriented unitig of a unitig the anchor table names starts with
        # one key and ends with one: four distinct `uid << 2 | end << 1 |
        # orientation` tags per unitig named
        ends = chain.from_iterable(map(repeat, cycle((0, 2)), sizes))
        tags = map(or_, map(lshift, entries[0::2], repeat(2)), map(or_, ends, entries[1::2]))
        if not len(entries) // 2 == len(set(tags)) == 4 * len(set(entries[0::2])):
            raise ValueError("the anchor table does not hold each oriented unitig "
                             "once among the starts and once among the ends")
        if min(isizes, default=1) < 1:
            raise ValueError("an interior key with no occurrences")
    except ValueError as exc:
        raise ValueError(f"truncated or malformed index file {path} ({exc}): {_REBUILD}") from None

    anchor, interior = AnchorIndex(k), InteriorIndex(k, fingerprint)
    interior.unitig_count = count
    groups = map(tuple, map(islice, repeat(zip(entries[0::2], map("+-".__getitem__,
                                                                  entries[1::2]))), sizes))
    anchor._table = dict(zip(keys, zip(groups, groups)))  # starts, then ends
    packed = _column(iraw, "Q")
    if len(packed) == len(isizes):  # one occurrence per key
        values = packed
    else:
        occurrences = iter(packed)
        values = [next(occurrences) if n == 1 else tuple(islice(occurrences, n))
                  for n in isizes]
    interior._table = dict(zip(ikeys, values))
    return anchor, interior


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
