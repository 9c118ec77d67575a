"""Shared oracles and builders.

The oracles here are deliberately string-level and independent of the
package's packed-integer implementations, so a bug in the bit twiddling
cannot hide in the tests that check it.
"""

import random
import zlib

import pytest

from cdbgmap.census import count_kmers, solid_set
from cdbgmap.graph import CompactedGraph, Unitig, compact
from cdbgmap.index import build_anchor_index, build_interior_index

COMP = {"A": "T", "C": "G", "G": "C", "T": "A", "N": "N"}


def naive_rc(s):
    return "".join(COMP[b] for b in reversed(s))


def naive_canonical(s):
    return min(s, naive_rc(s))


def naive_kmers(seq, k):
    return [seq[i : i + k] for i in range(len(seq) - k + 1)]


def random_genome(seed, length):
    rng = random.Random(seed)
    return "".join(rng.choice("ACGT") for _ in range(length))


def damaged_gzip(path, data, damage):
    """Write a damaged copy of the gzip bytes `data` to `path`: "truncated"
    keeps the first half, "xored" flips 200 bytes at offset 2000, and
    "magic" keeps only the 2-byte gzip magic."""
    if damage == "truncated":
        data = data[: len(data) // 2]
    elif damage == "xored":
        assert len(data) > 2200, "too short to damage at offset 2000"
        data = bytearray(data)
        for i in range(2000, 2200):
            data[i] ^= 0x5A
    elif damage == "magic":
        data = data[:2]
    else:
        raise ValueError(damage)
    path.write_bytes(bytes(data))
    return path


def with_crc(data):
    """Index file bytes with the CRC-32 trailer recomputed, so that a load
    gets past the checksum to the check a corruption aims at."""
    body = bytes(data[:-4])
    return body + zlib.crc32(body).to_bytes(4, "little")


def graph_from_sequences(seqs, k, min_count=1):
    solid = solid_set(count_kmers(seqs, k), min_count)
    return compact(solid), solid


def build_graph(unitig_seqs, k):
    """Construct a graph directly from unitig sequences (for mapper scenarios)."""
    return CompactedGraph(
        k=k, unitigs=[Unitig(id=i, sequence=s) for i, s in enumerate(unitig_seqs)]
    )


def indexes_for(graph):
    return build_anchor_index(graph), build_interior_index(graph)


def interior_table(interior):
    """The interior index's table, keyed by its written words, with every
    value decoded to its tuple of (unitig id, offset) occurrences.  A packed
    occurrence is offset * 2**32 + unitig id, and a key with one occurrence
    holds it as a bare int."""
    decoded = {}
    for key, value in interior._table.items():
        packed = (value,) if isinstance(value, int) else value
        decoded[key] = tuple(divmod(p, 2**32)[::-1] for p in packed)
    return decoded


def oriented(graph, uid, orientation):
    """Orientation helper independent of the graph's and the index's RC."""
    seq = graph.unitigs[uid].sequence
    return seq if orientation == "+" else naive_rc(seq)


def reconstruct_mapping(graph, result, read_seq):
    """Independent replay of a mapping: rebuild the generated sequence from the
    path, compare against the read (or its RC for strand '-'), and return the
    mismatch positions.  This is the primary self-audit for every result."""
    k = graph.k
    seqs = [oriented(graph, uid, o) for uid, o in result.path]
    generated = seqs[0] + "".join(s[k - 1 :] for s in seqs[1:])
    target = read_seq if result.strand == "+" else naive_rc(read_seq)
    window = generated[result.start_offset : result.start_offset + len(target)]
    assert len(window) == len(target), "path does not cover the read"
    positions = tuple(i for i, (a, b) in enumerate(zip(target, window)) if a != b)
    return positions


def assert_result_consistent(graph, anchor, result, read_seq):
    positions = reconstruct_mapping(graph, result, read_seq)
    assert positions == tuple(result.mismatch_positions)
    assert len(positions) == result.mismatches
    k = graph.k
    for (a, oa), (b, ob) in zip(result.path, result.path[1:]):
        junction = oriented(graph, a, oa)[-(k - 1) :]
        assert junction == oriented(graph, b, ob)[: k - 1]
        assert (a, oa) in [e[:2] for e in anchor.ends_with_codes(junction)]
        assert (b, ob) in [e[:2] for e in anchor.starts_with_codes(junction)]


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
