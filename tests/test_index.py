import gc
import random
import re
import sys
import tracemalloc

import pytest

from cdbgmap.census import count_kmers
from cdbgmap.graph import compact, write_unitigs_fasta
from cdbgmap.index import (
    _BYTES_SAMPLE,
    AnchorIndex,
    approximate_bytes,
    build_anchor_index,
    build_interior_index,
    load_indexes,
    save_indexes,
)
from cdbgmap.mapper import ReadView
from cdbgmap.sequences import _SLICE, reverse_complement_read

from conftest import (
    build_graph,
    graph_from_sequences,
    interior_table,
    naive_canonical,
    naive_kmers,
    naive_rc,
    oriented,
    random_genome,
)
from oracles import oriented_sequence, scan_overlaps


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
    started = {oriented_sequence(graph, u, o)[:2] for u, s, o in hits if s == "starts_with"}
    ended = {oriented_sequence(graph, u, o)[-2:] for u, s, o in hits if s == "ends_with"}
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


def mutated_repeat_genome(seed, backbone=20_000, families=2, family_length=600, copies=20):
    """A random backbone with `copies` of each of a few repeat families,
    each copy with 2% substitutions and on a random strand, and a random
    spacer after each: a graph of many short unitigs that share grams."""
    rng = random.Random(seed)
    parts = [random_genome(seed, backbone)]
    for family in range(families):
        unit = random_genome(seed + 1 + family, family_length)
        for _ in range(copies):
            copy = "".join(
                rng.choice([b for b in "ACGT" if b != base]) if rng.random() < 0.02 else base
                for base in unit
            )
            parts.append(copy if rng.random() < 0.5 else naive_rc(copy))
            parts.append(random_genome(rng.randrange(10**6), rng.randint(50, 400)))
    return "".join(parts)


def window_graph(genome, k):
    """Every k-window of `genome` as its own unitig, so that every
    (k-1)-window of the genome, and of its reverse complement, is a key."""
    return build_graph(naive_kmers(genome, k), k)


def gram_shifts(keys, stride, gram):
    """String-level probe table: each key's gram at each shift j < stride
    -> the set of (shift, key) pairs holding it."""
    held = {}
    for key in keys:
        for j in range(stride):
            held.setdefault(key[j : j + gram], set()).add((j, key))
    return held


K_EVERY_STRIDE = [*range(2, 13), *range(24, 33), 63]


@pytest.mark.parametrize("k", K_EVERY_STRIDE)
def test_probe_table_files_each_gram_at_its_shifts(k):
    stride = min(8, max(1, k - 23))
    graph = window_graph(random_genome(300 + k, 4 * k), k)
    idx = build_anchor_index(graph)
    assert (idx.stride, idx.gram) == (stride, k - stride)
    assert idx.gram >= 23 or stride == 1
    if stride == 1:  # every window is tested: no probe table
        assert idx._probes is None
        return
    held = gram_shifts(idx.keys(), stride, idx.gram)
    assert idx._probes.keys() == held.keys()
    for gram, shifts in idx._probes.items():
        assert shifts == tuple(sorted({j for j, _ in held[gram]}, reverse=True))
        mask = sum(1 << j for j in shifts)
        assert shifts is idx._shifts[mask]  # shared, not built per gram
    assert len(idx._shifts) == len({id(shifts) for shifts in idx._probes.values()})
    # a gram that keys hold at different shifts: the key at p holds the
    # gram at p+1 at shift 1, the key at p+1 at shift 0
    assert any(len({j for j, _ in pairs}) > 1 and len({key for _, key in pairs}) > 1
               for pairs in held.values())


def detector_graphs(k):
    """Graphs whose keys the detector must find in reads: a compacted one
    with repeats; one whose unitig ends are palindromic (for odd k, whose
    (k-1)-mers can be their own reverse complement); a dense one where
    every window of its genome is a key; a periodic one, where keys hold
    each gram at several shifts."""
    half = random_genome(500 + k, (k - 1) // 2)
    palindrome = half + naive_rc(half)  # k-1 long at odd k, k-2 at even k
    assert palindrome == naive_rc(palindrome)
    repeats_genome = random_genome(510 + k, 300) + repeat_genome(k)
    dense_genome = random_genome(520 + k, 4 * k)
    periodic_genome = (random_genome(530 + k, 3) * (2 * k))[: 4 * k]
    return [
        (graph_from_sequences([repeats_genome], k)[0], repeats_genome),
        (build_graph([palindrome + "A" + random_genome(540 + k, k),
                      random_genome(541 + k, k) + "C" + palindrome,
                      palindrome + "GT"], k),
         random_genome(542 + k, k) + palindrome + "A" + palindrome + random_genome(543 + k, k)),
        (window_graph(dense_genome, k), dense_genome),
        (window_graph(periodic_genome, k), periodic_genome),
    ]


@pytest.mark.parametrize("k", K_EVERY_STRIDE)
def test_detected_matches_the_scan_oracle(k):
    """The strided probes find exactly the windows a test of every window
    finds, in order, on both strands: random ACGTN reads of k to 3k bases,
    and reads cut from each graph's genome with random substitutions,
    N among them, on either strand."""
    size = k - 1
    rng = random.Random(k)
    palindromic = 0
    for graph, genome in detector_graphs(k):
        anchor = build_anchor_index(graph)
        keys = anchor.keys()
        palindromic += sum(key == naive_rc(key) for key in keys)
        reads = ["".join(rng.choice("ACGTN") for _ in range(rng.randint(k, 3 * k)))
                 for _ in range(20)]
        for _ in range(40):
            length = rng.randint(k, min(3 * k, len(genome)))
            start = rng.randrange(len(genome) - length + 1)
            read = list(genome[start : start + length])
            for _ in range(rng.randrange(3)):
                read[rng.randrange(length)] = rng.choice("ACGTN")
            read = "".join(read)
            reads.append(read if rng.random() < 0.5 else naive_rc(read))
        found = 0
        for seq in reads:
            view = ReadView(seq, size)
            for strand, text in (("-", reverse_complement_read(seq)), ("+", seq)):
                expected = scan_overlaps(text, keys, size)
                assert view.detected(strand, anchor) == expected, (k, strand, seq)
                found += len(expected)
        assert found
    assert palindromic or k % 2 == 0


def test_anchor_build_traces_few_bytes_per_key():
    """The probe table is one string per distinct gram and a shared shift
    tuple, made after the build's entry lists are freed, so the traced peak
    of a build on a repeat graph stays at the anchor table's own.  On this
    graph (918 keys, k 31, CPython 3.10 to 3.12) the peak reads 957 to 1,037
    B per key, with or without the probe table; one tuple per gram reads
    1,132 to 1,239, one set per gram or a probe table made beside the entry
    lists 1,859 or more."""
    graph, _ = graph_from_sequences([mutated_repeat_genome(5)], 31)
    gc.collect()  # empties the free lists, whose objects tracemalloc would not see
    tracemalloc.start()
    try:
        idx = build_anchor_index(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert idx._probes and len(idx) > 500
    assert peak / len(idx) < 1100, f"{peak / len(idx):.1f} B per anchor key"


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
    # the file is the unitig FASTA of the graph the index was built from
    fasta = tmp_path / "unitigs.fa"
    write_unitigs_fasta(fasta, graph)
    assert p1.read_bytes() == fasta.read_bytes()
    assert p1.read_text().startswith(f">u0 k=7\n{graph.unitigs[0].sequence[:80]}\n")
    anchor2, interior2 = load_indexes(p1)
    assert interior2.graph == graph
    assert interior2._table == interior._table
    assert anchor2._table == anchor._table
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
        write_unitigs_fasta(fasta, graph)
        assert p1.read_bytes() == fasta.read_bytes()
        anchor2, interior2 = load_indexes(p1)
        assert list(anchor2._table.items()) == list(build_anchor_index(graph)._table.items())
        assert list(interior2._table.items()) == list(build_interior_index(graph)._table.items())
        assert interior2.graph == graph
        save_indexes(p2, interior2)
        assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_garbage(tmp_path):
    p = tmp_path / "bad.idx"
    graph = build_graph(["ACTG", "TGAT"], 3)
    save_indexes(p, build_interior_index(graph))
    good = p.read_bytes()
    assert good == b">u0 k=3\nACTG\n>u1 k=3\nTGAT\n"
    cases = [
        # the binary index of earlier releases is not a sequence file
        (b"CDBGIDX1" + b"\x00" * 24, "unrecognized sequence file format"),
        (b"ACTG\nTGAT\n", "unrecognized sequence file format"),
        (good.replace(b"u1", b"x1"), "not a unitig FASTA header: 'x1'"),
        (good.replace(b"u1", b"u1a"), "not a unitig FASTA header: 'u1a'"),
        (good.replace(b"u1", b"u0"), "not a unitig FASTA header: 'u0.2'"),
        (good.replace(b"u1", b"u2"), "unitig ids must be dense from 0, got 2 at 1"),
        (good.replace(b"ACTG", b"ACNG"), "unitig 0 contains non-ACGT"),
        (good.replace(b"ACTG", b"AC"), "unitig 0 shorter than k"),
        (good.replace(b"k=3", b"k=x"), "bad k field: 'k=x'"),
        (good.replace(b"k=3", b"k=1"), "k must be >= 2, got 1"),
        (good.replace(b" k=3", b""), "unitig header 'u0' records no k"),
        (good.replace(b"u1 k=3", b"u1"), "unitig header 'u1' records no k"),
        (good.replace(b"ACTG", b"AC\xc3\xa9"), "'ascii' codec"),
        (b"", "no unitig header records k"),
    ]
    for content, message in cases:
        p.write_bytes(content)
        with pytest.raises(ValueError, match=f"{re.escape(str(p))}: .*{re.escape(message)}"):
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
    # an anchor index counts its probe table: each gram, and each shared
    # shift tuple once
    graph, _ = graph_from_sequences([mutated_repeat_genome(7, backbone=5_000)], 31)
    anchor = build_anchor_index(graph)
    table, probes, shifts = anchor._table, anchor._probes, anchor._shifts
    assert len(probes) > _BYTES_SAMPLE  # the estimate samples the grams
    walked = sys.getsizeof(table) + sum(
        sys.getsizeof(key) + sys.getsizeof(value) + sum(map(sys.getsizeof, value))
        for key, value in table.items()
    )
    walked += sys.getsizeof(probes) + sum(map(sys.getsizeof, probes))
    walked += sys.getsizeof(shifts) + sum(map(sys.getsizeof, shifts.values()))
    assert abs(approximate_bytes(anchor) - walked) < 0.05 * walked
