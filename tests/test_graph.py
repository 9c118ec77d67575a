import random
import tracemalloc
from collections import Counter

import pytest

from cdbgmap.census import SolidKmerSet, count_kmers, solid_set
from cdbgmap.graph import (
    CompactedGraph,
    compact,
    read_unitigs_fasta,
    write_gfa,
    write_unitigs_fasta,
)
from cdbgmap.index import build_anchor_index

from conftest import naive_canonical, naive_kmers, naive_rc, random_genome
from oracles import DbgWalk, enumerate_paths, oriented_sequence, solid_strings, walk_sequence


def solid_from(seqs, k, c=1):
    return solid_set(count_kmers(seqs, k), c)


def unitig_kmer_multiset(graph):
    out = Counter()
    for text in graph.unitigs:
        for w in naive_kmers(text, graph.k):
            out[naive_canonical(w)] += 1
    return out


def test_compact_linear_sequence():
    graph = compact(solid_from(["ACTGA"], 3))
    assert graph.unitigs == ["ACTGA"]


def test_compact_branching_blocks_merge():
    solid = solid_from(["ACTG", "ACTT"], 3)  # ACT has two successors
    graph = compact(solid)
    seqs = sorted(min(text, naive_rc(text)) for text in graph.unitigs)
    assert seqs == sorted(
        naive_canonical(s) for s in ("ACT", "CTG", "CTT")
    )


def test_compact_homopolymer_self_loop():
    graph = compact(solid_from(["AAAA"], 3))
    assert graph.unitigs == ["AAA"]


def test_compact_rejects_empty():
    from cdbgmap.census import SolidKmerSet

    with pytest.raises(ValueError):
        compact(SolidKmerSet(k=3, codes=frozenset()))


def test_spectrum_preservation_random_genomes():
    for seed in range(40):
        k = (5, 7, 9)[seed % 3]
        genome = random_genome(seed, 300 + 37 * seed)
        solid = solid_from([genome], k)
        graph = compact(solid)
        multiset = unitig_kmer_multiset(graph)
        assert set(multiset.values()) <= {1}
        assert set(multiset) == solid_strings(solid)


def naive_compact(kmers):
    """String-level reference for `compact`: the stored unitig sequences in
    id order.  Seeds go in sorted canonical order; each grows its right arm,
    then its left arm as the right arm of its reverse complement.  An arm
    stops at a palindromic (k-1)-overlap, at 0 or more than 1 successor, at
    a successor with more than 1 predecessor, or at a consumed k-mer."""
    solid = {naive_canonical(w) for w in kmers}

    def neighbours(words):
        return [w for w in words if naive_canonical(w) in solid]

    consumed = set()
    out = []
    for seed in sorted(solid):
        if seed in consumed:
            continue
        consumed.add(seed)
        arms = []
        for end in (seed, naive_rc(seed)):
            arm = ""
            while end[1:] != naive_rc(end[1:]):
                succ = neighbours(end[1:] + b for b in "ACGT")
                if len(succ) != 1:
                    break
                (nxt,) = succ
                if naive_canonical(nxt) in consumed:
                    break
                if len(neighbours(b + nxt[:-1] for b in "ACGT")) != 1:
                    break
                consumed.add(naive_canonical(nxt))
                arm += nxt[-1]
                end = nxt
            arms.append(arm)
        right, left = arms
        seq = naive_rc(left) + seed + right
        out.append(min(seq, naive_rc(seq)))
    return out


@pytest.mark.parametrize("k", range(2, 10))
def test_compact_matches_string_level_reference(k):
    rng = random.Random(k)
    cases = []
    for seed in range(10):
        genome = random_genome(100 * k + seed, rng.randint(k, 400))
        cases.append([genome])
        cases.append([genome + naive_rc(genome)])  # a hairpin at the join
        cases.append([genome, naive_rc(genome[: len(genome) // 2])])
    for _ in range(10):  # tandem repeats
        unit = random_genome(rng.randrange(10**6), rng.randint(1, 8))
        cases.append([unit * rng.randint(2, 12)])
    for base in "ACGT":  # homopolymers, alone and in runs
        cases.append([base * (k + 5)])
        cases.append([base * 12 + "ACGT"[3 - "ACGT".index(base)] * 12])
    for seqs in cases:
        seqs = [s for s in seqs if len(s) >= k]
        if not seqs:
            continue
        solid = solid_from(seqs, k)
        graph = compact(solid)
        expected = naive_compact(solid_strings(solid))
        assert graph.unitigs == list(expected)


def test_compact_allocates_nothing_per_kmer():
    """Visiting a k-mer stores no new object: the traced peak of a
    compaction is the visit set's table and the sorted seeds, not one int
    per solid k-mer on top of them."""
    solid = solid_from([random_genome(31, 50_000)], 31)
    tracemalloc.start()
    try:
        compact(solid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(solid) < 75, f"{peak / len(solid):.1f} B per solid k-mer"


class _CountedCodes(frozenset):
    """A solid code set that counts its membership tests."""

    lookups = 0

    def __contains__(self, code):
        self.lookups += 1
        return frozenset.__contains__(self, code)


def test_compact_probes_seven_times_per_extended_step():
    """A step probes the end's four successors and its three siblings; each
    arm stops at a genome end after the four successor probes."""
    genome = random_genome(32, 2000)
    solid = solid_from([genome], 15)
    codes = _CountedCodes(solid.codes)
    graph = compact(SolidKmerSet(k=15, codes=codes))
    assert [len(text) for text in graph.unitigs] == [len(genome)]
    steps = len(solid) - 1
    assert codes.lookups == 7 * steps + 2 * 4


def _neighbors(mer, canonical, direction):
    out = []
    for b in "ACGT":
        cand = mer[1:] + b if direction == "fwd" else b + mer[:-1]
        if naive_canonical(cand) in canonical:
            out.append(cand)
    return out


def test_maximality_of_unitigs():
    """Every unitig end stops for a legitimate reason: missing extension,
    branching junction, consumed k-mer (cycle/join), or palindromic overlap."""
    for seed in range(25):
        k = (5, 7)[seed % 2]
        genome = random_genome(1000 + seed, 400)
        solid = solid_from([genome], k)
        graph = compact(solid)
        canonical = solid_strings(solid)
        consumed = set(unitig_kmer_multiset(graph))
        for uid, text in enumerate(graph.unitigs):
            for mer, direction in ((text[-k:], "fwd"), (text[:k], "bwd")):
                nxt = _neighbors(mer, canonical, "fwd" if direction == "fwd" else "bwd")
                if len(nxt) != 1:
                    continue  # absent or branching: a legal stop
                cand = nxt[0]
                overlap = mer[1:] if direction == "fwd" else mer[:-1]
                if overlap == naive_rc(overlap):
                    continue  # palindromic junction: a legal stop
                back = _neighbors(
                    cand, canonical, "bwd" if direction == "fwd" else "fwd"
                )
                if len(back) != 1:
                    continue  # junction branching on the far side
                assert naive_canonical(cand) in consumed, (
                    f"unitig {uid} could extend to {cand} (seed {seed})"
                )


def test_compact_deterministic():
    genome = random_genome(77, 800)
    a = compact(solid_from([genome], 7))
    b = compact(solid_from([genome], 7))
    assert a == b
    # order of input reads must not matter either
    chunks = [genome[i : i + 120] for i in range(0, 800, 80)]
    c = compact(solid_from(chunks, 7))
    d = compact(solid_from(list(reversed(chunks)), 7))
    assert c == d


def test_stored_orientation_is_lexicographic_min():
    for seed in range(10):
        genome = random_genome(2000 + seed, 300)
        graph = compact(solid_from([genome], 7))
        for text in graph.unitigs:
            assert text <= naive_rc(text)


def test_walk_sequence_examples():
    assert walk_sequence(DbgWalk(nodes=("ACT", "CTG", "TGA"))) == "ACTGA"
    assert walk_sequence(DbgWalk(nodes=("ACT",))) == "ACT"
    assert walk_sequence(["ACT", "CTT"]) == "ACTT"


def test_walk_sequence_rejects_non_walk():
    with pytest.raises(ValueError, match="not a walk"):
        walk_sequence(["ACT", "GGA"])
    with pytest.raises(ValueError, match="empty walk"):
        walk_sequence([])


def test_walk_sequence_windows_identity():
    rng = random.Random(55)
    for _ in range(50):
        k = rng.randint(2, 8)
        seq = "".join(rng.choice("ACGT") for _ in range(rng.randint(k, 40)))
        nodes = tuple(naive_kmers(seq, k))
        walk = DbgWalk(nodes=nodes)
        assert walk_sequence(walk) == seq
        assert len(seq) == k + len(nodes) - 1


def test_enumerate_paths_linear():
    solid = solid_from(["ACTGA"], 3)
    result = enumerate_paths(solid, "ACT", len_nodes=3)
    assert not result.truncated
    assert [w.nodes for w in result.walks] == [("ACT", "CTG", "TGA")]


def test_enumerate_paths_branch():
    solid = solid_from(["ACTG", "ACTT"], 3)
    result = enumerate_paths(solid, "ACT", len_nodes=2)
    assert sorted(w.nodes for w in result.walks) == [("ACT", "CTG"), ("ACT", "CTT")]


def test_enumerate_paths_single_node_and_absent():
    solid = solid_from(["ACTGA"], 3)
    assert [w.nodes for w in enumerate_paths(solid, "ACT", 1).walks] == [("ACT",)]
    assert enumerate_paths(solid, "GGG", 1).walks == []


def test_enumerate_paths_validates_arguments():
    solid = solid_from(["ACTGA"], 3)
    with pytest.raises(ValueError, match="len_nodes"):
        enumerate_paths(solid, "ACT", 0)
    with pytest.raises(ValueError, match="3-mer"):
        enumerate_paths(solid, "ACTG", 2)


def test_enumerate_paths_budget_truncates():
    genome = random_genome(99, 600)
    solid = solid_from([genome], 5)
    start = genome[:5]
    full = enumerate_paths(solid, start, len_nodes=12, budget=1_000_000)
    assert not full.truncated
    tiny = enumerate_paths(solid, start, len_nodes=12, budget=3)
    assert tiny.truncated
    assert len(tiny.walks) <= len(full.walks)


def test_unitig_fasta_round_trip(tmp_path):
    genome = random_genome(123, 500)
    graph = compact(solid_from([genome], 7))
    path = tmp_path / "unitigs.fa"
    write_unitigs_fasta(path, graph)
    back = read_unitigs_fasta(path, k=7)
    assert back == graph
    assert path.read_text().startswith(">u0 k=7\n")


def test_unitig_fasta_rejects_another_k(tmp_path):
    graph = compact(solid_from([random_genome(124, 300)], 7))
    path = tmp_path / "unitigs.fa"
    write_unitigs_fasta(path, graph)
    with pytest.raises(ValueError, match="k=7"):
        read_unitigs_fasta(path, k=9)


def test_unitig_fasta_without_recorded_k_is_rejected_at_any_k(tmp_path):
    graph = compact(solid_from([random_genome(125, 300)], 7))
    path = tmp_path / "unitigs.fa"
    records = (f">u{i} len={len(text)}\n{text}\n" for i, text in enumerate(graph.unitigs))
    path.write_text("".join(records))
    for k in (None, 7, 9):
        with pytest.raises(ValueError, match=f"{path}: unitig header 'u0' records no k"):
            read_unitigs_fasta(path, k=k)


def test_unitig_fasta_without_k_reads_the_recorded_k(tmp_path):
    graph = compact(solid_from([random_genome(126, 300)], 7))
    assert len(graph) > 1
    path = tmp_path / "unitigs.fa"
    write_unitigs_fasta(path, graph)
    assert read_unitigs_fasta(path) == graph
    # a header without a k is rejected, though another one records it
    text = path.read_text()
    last = text.rindex(" k=7")
    for content, name in ((text.replace(">u0 k=7", ">u0", 1), "u0"),
                          (text[:last] + text[last + 4:], f"u{len(graph) - 1}")):
        path.write_text(content)
        for k in (None, 7):
            with pytest.raises(ValueError, match=f"{path}: unitig header '{name}' records no k"):
                read_unitigs_fasta(path, k=k)
    # two headers that record different ks
    path.write_text(text[:last] + " k=9" + text[last + 4:])
    with pytest.raises(ValueError, match=f"{path}: unitig headers record k=7 and k=9"):
        read_unitigs_fasta(path)
    # no header records k, or there is no header at all
    path.write_text(text.replace(" k=7", ""))
    with pytest.raises(ValueError, match=f"{path}: unitig header 'u0' records no k"):
        read_unitigs_fasta(path)
    path.write_text("")
    with pytest.raises(ValueError, match=f"{path}: no unitig header records k"):
        read_unitigs_fasta(path)


def test_gfa_agrees_with_anchor_index(tmp_path):
    genome = random_genome(321, 400)
    graph = compact(solid_from([genome], 5))
    anchor = build_anchor_index(graph)
    path = tmp_path / "graph.gfa"
    write_gfa(path, graph, anchor)
    lines = path.read_text().splitlines()
    assert lines[0] == "H\tVN:Z:1.0"
    s_lines = [l.split("\t") for l in lines if l.startswith("S")]
    assert [(f[1], f[2]) for f in s_lines] == [
        (f"u{i}", text) for i, text in enumerate(graph.unitigs)
    ]
    k1 = graph.k - 1
    got = set()
    for fields in (l.split("\t") for l in lines if l.startswith("L")):
        _, a, oa, b, ob, cigar = fields
        assert cigar == f"{k1}M"
        sa = oriented_sequence(graph, int(a[1:]), oa)
        sb = oriented_sequence(graph, int(b[1:]), ob)
        assert sa[-k1:] == sb[:k1]
        got.add((int(a[1:]), oa, int(b[1:]), ob))

    # completeness: every suffix/prefix adjacency appears exactly once,
    # as itself or as its reverse-complement mirror
    def flip(o):
        return "-" if o == "+" else "+"

    expected = set()
    for a in range(len(graph)):
        for oa in "+-":
            sa = oriented_sequence(graph, a, oa)
            for b in range(len(graph)):
                for ob in "+-":
                    sb = oriented_sequence(graph, b, ob)
                    if sa[-k1:] == sb[:k1]:
                        expected.add(min((a, oa, b, ob), (b, flip(ob), a, flip(oa))))
    assert got == expected
    assert expected, "test graph should contain at least one junction"


def test_graph_validates_construction():
    with pytest.raises(ValueError, match="unitig 1 shorter than k"):
        CompactedGraph(5, ["ACGTA", "ACG"])
    for bad in ("ACNG", "ACgT", "AC-T"):
        with pytest.raises(ValueError, match="unitig 0 contains non-ACGT"):
            CompactedGraph(3, [bad])
    with pytest.raises(ValueError, match="k must be >= 2"):
        CompactedGraph(1, ["A"])
    assert CompactedGraph(3, ["ACG", "TTTT"]).unitigs == ["ACG", "TTTT"]


def test_oriented_sequence():
    g = CompactedGraph(3, ["ACTGA"])
    assert oriented_sequence(g, 0, "+") == "ACTGA"
    assert oriented_sequence(g, 0, "-") == "TCAGT"
    with pytest.raises(ValueError):
        oriented_sequence(g, 0, "?")
