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
reverse text by the reverse complement's pass doing the same.

The index file (format version 4) holds a header of magic, version, k and
a fingerprint of the graph the indexes were built from
(`graph_fingerprint`), then the anchor table and the interior table, and
nothing else.  The fingerprint matches a file to a graph without
rebuilding either index, and the mapper reads everything else from that
graph.
"""

from __future__ import annotations

import struct
import sys
from itertools import islice
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
from .sequences import kmer_codes, window_codes

_INDEX_MAGIC = b"CDBGIDX1"
_INDEX_VERSION = 4

# Index file records, all little-endian except the 16-byte big-endian keys.
_VERSION = struct.Struct("<I")
_HEADER = struct.Struct("<I32s")  # k, graph fingerprint
_COUNT = struct.Struct("<Q")  # records in the table that follows
_KEY = struct.Struct(">QQ")  # (k-1)-mer code, high and low words
_ANCHOR_SIZES = struct.Struct("<HH")  # starts, ends
_ANCHOR_ENTRY = struct.Struct("<IB")  # unitig id, orientation bit: 1 for '-'
_OCCURRENCES = struct.Struct("<I")
_OCCURRENCE = struct.Struct("<II")  # unitig id, offset

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

    A key is the code of a window of a unitig's forward text, and each of
    its occurrences is (unitig_id, offset) with the window at that offset;
    there is no orientation bit, so an occurrence of the reverse text is
    the one under the reverse complement's code.  `fingerprint` is the
    `graph_fingerprint` of the graph the index was built from.
    """

    def __init__(self, k: int, fingerprint: bytes = bytes(32)):
        self.k = k
        self.fingerprint = fingerprint
        self._table: dict[int, tuple] = {}

    def __len__(self) -> int:
        return len(self._table)


def graph_fingerprint(graph: CompactedGraph) -> bytes:
    """SHA-256 of the graph's unitig sequences in id order, each ended by a
    newline; with k, it identifies the graph an index file was built from."""
    return sha256("".join(u.sequence + "\n" for u in graph.unitigs).encode()).digest()


def build_interior_index(graph: CompactedGraph) -> InteriorIndex:
    """Every (k-1)-mer window of every unitig, under its written code."""
    idx = InteriorIndex(graph.k, graph_fingerprint(graph))
    size = graph.k - 1
    table: dict[int, list] = {}
    for u in graph.unitigs:
        # unitigs are exact ACGT, so window i sits at position i
        for pos, fwd, _ in window_codes(u.sequence, size):
            table.setdefault(fwd, []).append((u.id, pos))
    idx._table = {key: tuple(v) for key, v in table.items()}
    return idx


def matches_graph(graph: CompactedGraph, anchor: AnchorIndex, interior: InteriorIndex) -> bool:
    """Whether loaded indexes were built from `graph`: same k and the same
    fingerprint."""
    return anchor.k == graph.k and interior.fingerprint == graph_fingerprint(graph)


def save_indexes(path: str | Path, anchor: AnchorIndex, interior: InteriorIndex) -> None:
    """Versioned binary dump of both indexes: magic, version, k and graph
    fingerprint, then each table with its record count."""
    with open(path, "wb") as out:
        out.write(_INDEX_MAGIC)
        out.write(_VERSION.pack(_INDEX_VERSION))
        out.write(_HEADER.pack(anchor.k, interior.fingerprint))
        out.write(_COUNT.pack(len(anchor._table)))
        for key in sorted(anchor._table):
            starts, ends = anchor._table[key]
            out.write(key.to_bytes(16, "big"))
            out.write(_ANCHOR_SIZES.pack(len(starts), len(ends)))
            for uid, orient in starts + ends:
                out.write(_ANCHOR_ENTRY.pack(uid, orient == REVERSE))
        out.write(_COUNT.pack(len(interior._table)))
        for key in sorted(interior._table):
            occs = interior._table[key]
            out.write(key.to_bytes(16, "big"))
            out.write(_OCCURRENCES.pack(len(occs)))
            for occ in occs:
                out.write(_OCCURRENCE.pack(*occ))


def load_indexes(path: str | Path) -> tuple[AnchorIndex, InteriorIndex]:
    """Inverse of save_indexes.  The file is read whole; one of another
    format version, or a truncated or malformed one, raises ValueError."""
    with open(path, "rb") as inp:
        data = inp.read()
    if data[:8] != _INDEX_MAGIC:
        raise ValueError(f"not an index file: {path}")
    if len(data) >= 8 + _VERSION.size:
        (version,) = _VERSION.unpack_from(data, 8)
        if version != _INDEX_VERSION:
            raise ValueError(
                f"index {path} has format version {version}, this cdbgmap reads "
                f"version {_INDEX_VERSION}: rebuild it with `cdbgmap map --index-out`"
            )
    try:
        return _decode_indexes(data)
    except (struct.error, ValueError, IndexError) as exc:
        raise ValueError(f"truncated or malformed index file {path}: {exc}") from None


def _decode_indexes(data: bytes) -> tuple[AnchorIndex, InteriorIndex]:
    """Decode save_indexes' layout, version checked, from `data`:
    struct.error when it runs short, IndexError on an orientation bit above
    1, ValueError on bytes left over."""
    k, fingerprint = _HEADER.unpack_from(data, 8 + _VERSION.size)
    key_at = _KEY.unpack_from
    off = 8 + _VERSION.size + _HEADER.size

    anchor = AnchorIndex(k=k)
    sizes_at = _ANCHOR_SIZES.unpack_from
    entry_at = _ANCHOR_ENTRY.unpack_from
    entry_size = _ANCHOR_ENTRY.size
    (n_keys,) = _COUNT.unpack_from(data, off)
    off += _COUNT.size
    for _ in range(n_keys):
        high, low = key_at(data, off)
        n_starts, n_ends = sizes_at(data, off + 16)
        off += 20
        entries = []
        for _ in range(n_starts + n_ends):
            uid, bit = entry_at(data, off)
            entries.append((uid, "+-"[bit]))
            off += entry_size
        anchor._table[high << 64 | low] = (tuple(entries[:n_starts]), tuple(entries[n_starts:]))

    interior = InteriorIndex(k, fingerprint)
    count_at = _OCCURRENCES.unpack_from
    occ_at = _OCCURRENCE.unpack_from
    occ_size = _OCCURRENCE.size
    table = interior._table
    (n_keys,) = _COUNT.unpack_from(data, off)
    off += _COUNT.size
    for _ in range(n_keys):
        high, low = key_at(data, off)
        (n_occ,) = count_at(data, off + 16)
        off += 20
        if n_occ == 1:  # nearly every key outside repeats
            occs = (occ_at(data, off),)
        else:
            occs = tuple(occ_at(data, off + i * occ_size) for i in range(n_occ))
        off += n_occ * occ_size
        table[high << 64 | low] = occs

    if off != len(data):
        raise ValueError(f"{len(data) - off} bytes after the index tables")
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
        if value and isinstance(value[0], tuple):
            sampled += sum(map(sys.getsizeof, value))
    return sys.getsizeof(table) + (sampled * len(table) // len(sample) if sample else 0)
