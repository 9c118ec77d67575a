import random
import re
import struct
import sys

import pytest

from cdbgmap.census import count_kmers
from cdbgmap.graph import compact
from cdbgmap.index import (
    AnchorIndex,
    approximate_bytes,
    build_anchor_index,
    build_interior_index,
    load_indexes,
    save_indexes,
)
from cdbgmap.mapper import ReadView
from cdbgmap.sequences import _SLICE, MAX_K

from conftest import (
    build_graph,
    graph_from_sequences,
    interior_table,
    naive_canonical,
    naive_kmers,
    naive_rc,
    oriented,
    random_genome,
    with_crc,
)


def scan_incidences(graph, mer):
    """Exhaustive oracle: check every unitig in both orientations."""
    k1 = graph.k - 1
    out = set()
    for u in graph.unitigs:
        for o in "+-":
            seq = oriented(graph, u.id, o)
            if seq[:k1] == mer:
                out.add((u.id, "starts_with", o))
            if seq[-k1:] == mer:
                out.add((u.id, "ends_with", o))
    return out


def pairs(entries):
    """Anchor entries projected to their (unitig id, orientation)."""
    return tuple((uid, orient) for uid, orient, *_ in entries)


def lookup(idx, mer):
    """The anchor table's (starts, ends) under a written word, looked up as
    the mapper does, as (unitig id, orientation) pairs."""
    return pairs(idx.starts_with_codes(mer)), pairs(idx.ends_with_codes(mer))


def incidences(idx, mer):
    """`lookup` in the form of `scan_incidences`."""
    starts, ends = lookup(idx, mer)
    return {(u, "starts_with", o) for u, o in starts} | {(u, "ends_with", o) for u, o in ends}


def scan_interior(graph, mer):
    """Exhaustive oracle: every (unitig, offset) of the word in a forward
    unitig text."""
    k1 = graph.k - 1
    return {
        (u.id, i)
        for u in graph.unitigs
        for i in range(len(u.sequence) - k1 + 1)
        if u.sequence[i : i + k1] == mer
    }


def test_anchor_example_branching_set():
    graph, _ = graph_from_sequences(["ACTG", "ACTT"], 3)
    hits = incidences(build_anchor_index(graph), "CT")
    assert hits == scan_incidences(graph, "CT")
    # CT starts the unitigs carrying CTG and CTT, ends the one carrying ACT
    started = {graph.oriented_sequence(u, o)[:2] for u, s, o in hits if s == "starts_with"}
    ended = {graph.oriented_sequence(u, o)[-2:] for u, s, o in hits if s == "ends_with"}
    assert started == {"CT"} and ended == {"CT"}
    assert sum(1 for _, s, _ in hits if s == "starts_with") == 2
    assert sum(1 for _, s, _ in hits if s == "ends_with") == 1


def test_anchor_single_unitig_keys():
    graph, _ = graph_from_sequences(["ACTGA"], 3)
    idx = build_anchor_index(graph)
    assert lookup(idx, "AC") == (((0, "+"),), ())
    assert lookup(idx, "GA") == ((), ((0, "+"),))
    # the reverse-complement written forms hit the mirrored incidences
    assert lookup(idx, "GT") == ((), ((0, "-"),))
    assert lookup(idx, "TC") == (((0, "-"),), ())
    assert lookup(idx, "GG") == ((), ())


def test_anchor_empty_graph():
    idx = AnchorIndex(k=3)
    assert len(idx) == 0
    assert lookup(idx, "AC") == ((), ())


def test_anchor_palindromic_key_merges_orientation_classes():
    # k=5 unitig ending in ATAT, which is its own reverse complement
    graph = build_graph(["GGATAT", "ATATCC"], 5)
    idx = build_anchor_index(graph)
    hits = incidences(idx, "ATAT")
    assert hits == scan_incidences(graph, "ATAT")
    orientations = {o for _, _, o in hits}
    assert orientations == {"+", "-"}


def test_anchor_orientations_are_strings():
    genome = random_genome(4242, 600)
    graph, _ = graph_from_sequences([genome, "GGATATCC"], 5)
    idx = build_anchor_index(graph)
    seen = set()
    for key in idx.keys():
        for written in (key, naive_rc(key)):
            entries = idx.starts_with_codes(written) + idx.ends_with_codes(written)
            seen.update(orient for _, orient in pairs(entries))
    assert seen == {"+", "-"}


def test_anchor_matches_scan_oracle_on_random_graphs():
    rng = random.Random(404)
    for seed in range(15):
        k = (5, 7, 9)[seed % 3]
        genome = random_genome(seed + 5000, 350)
        graph, _ = graph_from_sequences([genome], k)
        idx = build_anchor_index(graph)
        mers = set()
        for u in graph.unitigs:
            mers.add(u.sequence[: k - 1])
            mers.add(u.sequence[-(k - 1) :])
            mers.add(naive_rc(u.sequence[: k - 1]))
        for _ in range(10):
            mers.add("".join(rng.choice("ACGT") for _ in range(k - 1)))
        for mer in mers:
            assert incidences(idx, mer) == scan_incidences(graph, mer), (mer, seed)


def repeat_genome(seed, unit_length=90, copies=6):
    """A random backbone holding copies of one unit, a few of them with a
    substitution and every other one reverse-complemented."""
    rng = random.Random(seed)
    unit = random_genome(seed + 1, unit_length)
    parts = []
    for i in range(copies):
        parts.append(random_genome(seed + 10 + i, rng.randint(40, 120)))
        copy = list(unit)
        if i % 3 == 2:
            p = rng.randrange(unit_length)
            copy[p] = rng.choice([b for b in "ACGT" if b != copy[p]])
        copy = "".join(copy)
        parts.append(copy if i % 2 else naive_rc(copy))
    return "".join(parts)


def assert_successor_lists(graph, idx):
    """String-level oracle for the junction candidates: after every oriented
    unitig, `starts_with_codes` of its last (k-1)-mer holds exactly the
    oriented unitigs whose text starts with that word, found by a scan of
    all oriented texts, sorted and each with its text, its text after the
    word and that text's length."""
    k1 = graph.k - 1
    texts = [(u.id, o, oriented(graph, u.id, o)) for u in graph.unitigs for o in "+-"]
    branching = 0
    for _, _, text in texts:
        suffix = text[-k1:]
        got = idx.starts_with_codes(suffix)
        assert got == tuple(
            (u, o, t, t[k1:], len(t) - k1) for u, o, t in sorted(texts) if t[:k1] == suffix
        )
        branching += len(got) > 1
    return branching


def test_successor_lists_on_a_repeat_graph_at_k31():
    graph, _ = graph_from_sequences([repeat_genome(31)], 31)
    idx = build_anchor_index(graph)
    assert assert_successor_lists(graph, idx) > 0


@pytest.mark.parametrize("k", [5, 9])
def test_successor_lists_with_palindromic_overlaps(k):
    # an even k-1 allows overlaps that are their own reverse complement
    genome = random_genome(900 + k, 500) + "GGATATCC" + "TTACGCGTAA" + repeat_genome(k)
    graph, _ = graph_from_sequences([genome], k)
    idx = build_anchor_index(graph)
    palindromes = [
        u for u in graph.unitigs if u.sequence[1 - k :] == naive_rc(u.sequence[1 - k :])
    ]
    assert palindromes
    assert assert_successor_lists(graph, idx) > 0


@pytest.mark.parametrize("k", [5, 31])
def test_each_oriented_unitig_is_one_entry(k):
    # one tuple object per oriented unitig, filed under its first word in the
    # starts and under its last in the ends
    genome = random_genome(700 + k, 500) + "GGATATCC" + repeat_genome(k)
    graph, _ = graph_from_sequences([genome], k)
    idx = build_anchor_index(graph)
    k1 = k - 1
    entries = {}
    for word in idx.keys():
        for entry in idx.starts_with_codes(word):
            assert entry[2][:k1] == word
            assert entries.setdefault(entry[:2], entry) is entry
        for entry in idx.ends_with_codes(word):
            assert entry[2][-k1:] == word
            assert entries.setdefault(entry[:2], entry) is entry
    assert len(entries) == 2 * len(graph)
    for (uid, orient), entry in entries.items():
        assert entry[2] == oriented(graph, uid, orient)
        assert any(e is entry for e in idx.starts_with_codes(entry[2][:k1]))
        assert any(e is entry for e in idx.ends_with_codes(entry[2][-k1:]))


def test_every_unitig_contributes_prefix_and_suffix():
    genome = random_genome(42, 600)
    graph, _ = graph_from_sequences([genome], 7)
    idx = build_anchor_index(graph)
    for u in graph.unitigs:
        assert (u.id, "+") in lookup(idx, u.sequence[:6])[0]
        assert (u.id, "+") in lookup(idx, u.sequence[-6:])[1]


def test_sharing_bound_on_random_graphs():
    for seed in range(20):
        k = (5, 7, 9)[seed % 3]
        genome = random_genome(seed + 900, 500)
        graph, _ = graph_from_sequences([genome], k)
        idx = build_anchor_index(graph)
        for key in idx.keys():
            assert len(idx.starts_with_codes(key)) <= 4
            assert len(idx.ends_with_codes(key)) <= 4


def assert_anchor_invariant(graph, idx):
    """String-level: the keys are exactly the first and last words of the
    oriented unitig texts, written out, and each key's starts and ends are
    the oriented unitigs whose text starts and ends with it, in sorted
    order."""
    k1 = graph.k - 1
    texts = [(u.id, o, oriented(graph, u.id, o)) for u in graph.unitigs for o in "+-"]
    words = {t[:k1] for _, _, t in texts} | {t[-k1:] for _, _, t in texts}
    assert set(idx.keys()) == words
    for word in idx.keys():
        starts = sorted((u, o) for u, o, t in texts if t[:k1] == word)
        ends = sorted((u, o) for u, o, t in texts if t[-k1:] == word)
        assert lookup(idx, word) == (tuple(starts), tuple(ends))
        assert naive_rc(word) in idx.keys()  # closed under reverse complement


@pytest.mark.parametrize("k", [5, 9, 31])
def test_anchor_keys_are_written_words(k):
    genome = random_genome(900 + k, 500) + "GGATATCC" + "TTACGCGTAA" + repeat_genome(k)
    graph, _ = graph_from_sequences([genome], k)
    idx = build_anchor_index(graph)
    k1 = k - 1
    if k < 10:  # unitig ends that are their own reverse complement
        assert any(naive_rc(key) == key for key in idx.keys())
    assert_anchor_invariant(graph, idx)
    # one anchor-key test per window detects what testing both strands did
    keys = idx.keys()
    rng = random.Random(k)
    for _ in range(40):
        start = rng.randrange(len(genome) - k)
        seq = genome[start : start + rng.randint(k, 3 * k)]
        for strand, text in (("+", seq), ("-", naive_rc(seq))):
            both = [(i, w) for i, w in enumerate(naive_kmers(text, k1))
                    if w in keys or naive_rc(w) in keys]
            assert ReadView(seq, k1).detected(strand, idx) == both


def test_interior_example():
    graph = build_graph(["ACTGA"], 3)
    idx = build_interior_index(graph)
    table = interior_table(idx)
    assert table["CT"] == ((0, 1),)
    # the reverse-strand written form of the same site is no key: the
    # reverse complement's pass finds it under its own written word
    assert "AG" not in table
    assert table[naive_rc("AG")] == ((0, 1),)
    # a key with one occurrence holds it as one packed int
    assert idx._table["CT"] == 1 * 2**32 + 0


def test_interior_repeat_ascending_offsets():
    graph = build_graph(["ACTACT"], 3)
    idx = build_interior_index(graph)
    assert interior_table(idx)["AC"] == ((0, 0), (0, 3))
    assert idx._table["AC"] == (0 * 2**32 + 0, 3 * 2**32 + 0)


def test_interior_matches_scan_oracle():
    rng = random.Random(777)
    for seed in range(10):
        k = (5, 7)[seed % 2]
        genome = random_genome(seed + 300, 300)
        graph, _ = graph_from_sequences([genome], k)
        table = interior_table(build_interior_index(graph))
        mers = {genome[i : i + k - 1] for i in range(0, 200, 17)}
        mers |= {"".join(rng.choice("ACGT") for _ in range(k - 1)) for _ in range(8)}
        for mer in mers:
            got = table.get(mer, ())
            assert list(got) == sorted(scan_interior(graph, mer)), (mer, seed)


def test_interior_palindromic_mer_hits_both_strands():
    graph = build_graph(["GGATATCC"], 5)
    table = interior_table(build_interior_index(graph))
    # a word that is its own reverse complement is one key, which both
    # strands' passes look up
    assert naive_rc("ATAT") == "ATAT"
    assert table["ATAT"] == ((0, 2),)
    assert set(table["ATAT"]) == scan_interior(graph, "ATAT")


def assert_interior_invariant(graph, idx):
    """String-level: every occurrence under a key is the key's word at its
    offset of the forward unitig text, and every window of every unitig is
    indexed, once."""
    k1 = graph.k - 1
    listed = []
    for word, occs in interior_table(idx).items():
        for uid, off in occs:
            assert graph.unitigs[uid].sequence[off : off + k1] == word
            listed.append((uid, off))
    expected = [
        (u.id, off) for u in graph.unitigs for off in range(len(u.sequence) - k1 + 1)
    ]
    assert sorted(listed) == expected


@pytest.mark.parametrize("k", [5, 9, 31])
def test_interior_keys_are_written_words(k):
    genome = random_genome(700 + k, 400) + "GGATATCC" + "TTACGCGTAA" + repeat_genome(k)
    graph, _ = graph_from_sequences([genome], k)
    k1 = k - 1
    if k < 10:  # short windows that are their own reverse complement
        assert any(
            w == naive_rc(w) for u in graph.unitigs for w in naive_kmers(u.sequence, k1)
        )
    assert_interior_invariant(graph, build_interior_index(graph))


@pytest.mark.parametrize("k", [5, 31])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_interior_index_across_slice_cuts(k, extra):
    # a unitig of two slices of (k-1)-mer windows, one window fewer or one
    # more, then a second unitig: every window next to a cut is indexed
    # once, at its own offset and unitig
    size = k - 1
    long = random_genome(5000 + 10 * k + extra, 2 * _SLICE + size - 1 + extra)
    graph = build_graph([long, random_genome(5100 + k, 3 * k)], k)
    assert_interior_invariant(graph, build_interior_index(graph))


def test_counting_and_indexing_encode_bounded_slices(monkeypatch):
    # the interior build slices words and encodes nothing (see
    # test_mapper.test_mapping_and_indexing_encode_nothing); counting
    # encodes a bounded slice at a time
    from cdbgmap import census

    calls = []

    def recorded(seq, size, encode=census.window_codes):
        calls.append((len(seq), size))
        return encode(seq, size)

    monkeypatch.setattr(census, "window_codes", recorded)
    genome = random_genome(4096, 3 * _SLICE + 100)
    census_counts = count_kmers([genome], 31).counts
    assert len(census_counts) > 3 * _SLICE
    assert len(calls) == 4
    assert all(n <= _SLICE + size - 1 for n, size in calls), calls


def test_serialization_round_trip_and_reproducibility(tmp_path):
    genome = random_genome(31415, 800)
    graph, _ = graph_from_sequences([genome], 7)
    anchor = build_anchor_index(graph)
    interior = build_interior_index(graph)
    p1, p2, p3 = tmp_path / "a.idx", tmp_path / "b.idx", tmp_path / "c.idx"
    save_indexes(p1, interior)
    # magic, version 7, k, unitig count, the unitigs in id order, CRC-32
    data = p1.read_bytes()
    assert data[:20] == b"CDBGIDX1" + struct.pack("<III", 7, 7, len(graph))
    assert data[20:-4] == "".join(u.sequence + "\n" for u in graph.unitigs).encode()
    assert data == with_crc(data)
    anchor2, interior2 = load_indexes(p1)
    assert interior2.graph == graph
    assert interior2._table == interior._table
    assert (anchor2.k, interior2.k) == (7, 7)
    # equal graphs give byte-identical files, and a load saves to the same bytes
    graph_b, _ = graph_from_sequences([genome], 7)
    save_indexes(p2, build_interior_index(graph_b))
    save_indexes(p3, interior2)
    assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()
    # a load gives the built tables, contents and order: random graphs,
    # palindromic overlaps, the k-31 repeat graph, unitigs exactly k long
    # and a one-unitig cycle
    graphs = [graph_from_sequences([random_genome(seed + 5000, 350)], k)[0]
              for seed, k in ((0, 5), (1, 7), (2, 9))]
    for k in (5, 9):
        genome = random_genome(900 + k, 500) + "GGATATCC" + "TTACGCGTAA" + repeat_genome(k)
        graphs.append(graph_from_sequences([genome], k)[0])
    graphs.append(graph_from_sequences([repeat_genome(31)], 31)[0])
    graphs.append(graph_from_sequences(["ACTG", "ACTT"], 3)[0])
    graphs.append(build_graph(["AACGAA"], 3))
    assert [len(u.sequence) for u in graphs[-2].unitigs] == [3, 3, 3]
    assert any(naive_rc(key) == key for key in build_anchor_index(graphs[3]).keys())
    for graph in graphs:
        save_indexes(p1, build_interior_index(graph))
        anchor2, interior2 = load_indexes(p1)
        assert list(anchor2._table.items()) == list(build_anchor_index(graph)._table.items())
        assert list(interior2._table.items()) == list(build_interior_index(graph)._table.items())
        assert interior2.graph == graph
        save_indexes(p2, interior2)
        assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_garbage(tmp_path):
    p = tmp_path / "bad.idx"
    p.write_bytes(b"WRONGMAG" + b"\x00" * 24)
    with pytest.raises(ValueError, match="not an index"):
        load_indexes(p)
    graph = build_graph(["ACTG", "TGAT"], 3)
    save_indexes(p, build_interior_index(graph))
    data = bytearray(p.read_bytes())
    # header (20 bytes), then unitig 0's first base
    assert data[20:25] == b"ACTG\n"
    data[20] = ord("N")
    p.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="malformed.*CRC-32 mismatch"):
        load_indexes(p)
    p.write_bytes(with_crc(data))
    with pytest.raises(ValueError, match="malformed.*unitig 0 contains non-ACGT.*rebuild"):
        load_indexes(p)


def test_load_rejects_a_malformed_snapshot_with_a_valid_crc(tmp_path):
    graph, _ = graph_from_sequences([repeat_genome(5)], 9)
    p = tmp_path / "g.idx"
    save_indexes(p, build_interior_index(graph))
    data = p.read_bytes()
    body = data[20:-4]
    count = len(graph)

    def header(k=9, unitigs=count):
        return data[:8] + struct.pack("<III", 7, k, unitigs)

    first = len(graph.unitigs[0].sequence)
    shortest = min(graph.unitigs, key=lambda u: len(u.sequence))
    cases = [
        (f"the unitig count {count + 1} is not", header(unitigs=count + 1) + body),
        (f"the unitig count {count - 1} is not", header(unitigs=count - 1) + body),
        ("the unitig count", header() + body[:-1]),  # no newline after the last
        (f"unitig {count} shorter than k", header(unitigs=count + 1) + body + b"\n"),
        ("unitig 0 shorter than k", header() + body[:8] + body[first:]),
        (f"unitig {shortest.id} shorter than k", header(k=len(shortest.sequence) + 1) + body),
        ("unitig 0 contains non-ACGT", header() + b"acgt" + body[4:]),
        ("'ascii' codec", header() + b"\xc3\xa9" + body[2:]),
    ]
    cases += [(f"is not in [2, {MAX_K}]", header(k=k) + body) for k in (0, 1, 64, 2**32 - 1)]
    for message, bad in cases:
        p.write_bytes(with_crc(bad + b"CRC!"))
        with pytest.raises(ValueError, match=f"malformed.*{re.escape(message)}"):
            load_indexes(p)


def test_approximate_bytes_positive():
    graph = build_graph(["ACTGACCTGA"], 3)
    anchor = build_anchor_index(graph)
    interior = build_interior_index(graph)
    assert approximate_bytes(anchor) > 0
    assert approximate_bytes(interior) > 0
    # a table beyond the sample size is estimated from its head
    graph, _ = graph_from_sequences([random_genome(27, 3000)], 11)
    table = build_interior_index(graph)._table
    assert len(table) > 2000
    assert any(isinstance(value, tuple) for value in table.values())
    # every object the table holds: a key, its value and, for a key with
    # more than one occurrence, the packed ints in the value's tuple
    walked = sys.getsizeof(table) + sum(
        sys.getsizeof(key) + sys.getsizeof(value)
        + (sum(map(sys.getsizeof, value)) if isinstance(value, tuple) else 0)
        for key, value in table.items()
    )
    estimate = approximate_bytes(build_interior_index(graph))
    assert abs(estimate - walked) < 0.05 * walked
