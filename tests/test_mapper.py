import pickle
import random
from dataclasses import FrozenInstanceError, fields, replace
from types import SimpleNamespace

import pytest

from cdbgmap.evaluation import SimConfig, simulate_reads
from cdbgmap.mapper import (
    MappingParams,
    MappingResult,
    ReadView,
    _hamming,
    _single_pass,
    map_branching,
    map_exhaustive,
    map_read,
    map_reads,
    map_single_unitig,
    map_stream,
)
from cdbgmap.sequences import Read, non_acgt, reverse_complement, window_codes

from conftest import (
    assert_result_consistent,
    build_graph,
    graph_from_sequences,
    indexes_for,
    interior_table,
    naive_rc,
    oriented,
    random_genome,
    reconstruct_mapping,
)

PARAMS = MappingParams()


def branch_graph():
    """Graph of the two sequences ACTGAT / ACTGCC at k=3 (forced branch)."""
    graph, _ = graph_from_sequences(["ACTGAT", "ACTGCC"], 3)
    return graph


# The decoy construction: the read follows A.B.Y.Q.Z, while X is a shorter
# sibling of Y whose suffix lands exactly on the next detected overlap, with
# one body mismatch.  The greedy junction shortcut takes X; the clean path
# through Y costs nothing.  Generated by search, then frozen.
TRAP_UNITIGS = [
    "ACAAACC",        # 0: A, ends AACC at read 3
    "AACCCCCAA",      # 1: B
    "CCAACACAA",      # 2: X, decoy with one mismatch at read 12
    "CCAAAACAACAC",   # 3: Y, exact
    "ACAACACCCCAC",   # 4: P, continues X's branch verbatim
    "ACACCCCAC",      # 5: Q, continues Y's branch
    "CCACCAC",        # 6: Z, shared tail unitig
]
TRAP_READ = "ACAAACCCCCAAAACAACACCCCACCAC"


def trap_graph():
    return build_graph(TRAP_UNITIGS, 5)


def test_mapping_result_stays_a_frozen_dataclass():
    # one is built per read, with no frozen `__setattr__` call per field: it
    # keeps its fields and defaults, refuses assignment, compares and hashes
    # by value, and works with `replace` and pickle (worker results cross a
    # pipe)
    assert [f.name for f in fields(MappingResult)] == [
        "read_id", "regime", "strand", "path", "start_offset", "mismatches",
        "mismatch_positions", "reason", "repeated", "truncated"]
    unmapped = MappingResult(read_id="r", regime="unmapped", reason="no_anchor")
    assert unmapped == MappingResult("r", "unmapped", None, (), None, None, (), "no_anchor",
                                     False, False)
    mapped = MappingResult("r", "single_unitig", "+", ((3, "+"),), 7, 1, (12,))
    assert mapped.mapped and not unmapped.mapped
    with pytest.raises(FrozenInstanceError):
        mapped.strand = "-"
    flipped = replace(mapped, strand="-")
    assert flipped.strand == "-" and flipped != mapped and mapped.strand == "+"
    assert replace(flipped, strand="+") == mapped
    assert hash(replace(flipped, strand="+")) == hash(mapped)
    assert pickle.loads(pickle.dumps(mapped)) == mapped


def test_detect_read_overlaps_positions_and_incidences():
    graph = build_graph(["ACTG", "TGAT"], 3)
    anchor, _ = indexes_for(graph)
    dets = ReadView("ACTGAT", 2).detected("+", anchor)
    assert dets == [(0, "AC"), (2, "TG"), (4, "AT")]
    word = dets[1][1]
    assert (0, "+") in [e[:2] for e in anchor.ends_with_codes(word)]
    assert (1, "+") in [e[:2] for e in anchor.starts_with_codes(word)]


def test_detect_read_overlaps_no_hits():
    graph = build_graph(["ACTGA"], 3)
    anchor, _ = indexes_for(graph)
    view = ReadView("GGGGGG", 2)
    assert view.detected("+", anchor) == view.detected("-", anchor) == []


def test_detect_read_overlaps_interior_only_read():
    # the read sits inside the unitig, away from both end overlaps (AA / TT)
    graph = build_graph(["AAGCGCGCGTT"], 3)
    anchor, _ = indexes_for(graph)
    view = ReadView("GCGCGCG", 2)
    assert view.detected("+", anchor) == view.detected("-", anchor) == []


def test_map_branching_zero_cost_across_branch():
    graph = branch_graph()
    anchor, _ = indexes_for(graph)
    result = map_branching(Read(id="r", sequence="ACTGAT"), graph, anchor, PARAMS)
    assert result.mapped
    assert result.regime == "branching_path"
    assert result.mismatches == 0
    assert len(result.path) >= 2
    assert_result_consistent(graph, anchor, result, "ACTGAT")


def test_map_branching_one_mismatch():
    graph = build_graph(["ACTG", "TGAT"], 3)
    anchor, _ = indexes_for(graph)
    result = map_branching(Read(id="r", sequence="ACTGAC"), graph, anchor, PARAMS)
    assert result.mapped
    assert result.mismatches == 1
    assert result.mismatch_positions == (5,)
    assert_result_consistent(graph, anchor, result, "ACTGAC")


def test_map_branching_budget_zero_unmapped():
    graph = build_graph(["ACTG", "TGAT"], 3)
    anchor, _ = indexes_for(graph)
    result = map_branching(
        Read(id="r", sequence="ACTGAC"),
        graph,
        anchor,
        MappingParams(max_mismatches=0),
    )
    assert not result.mapped
    assert result.reason == "budget_exceeded"


# A chain of three unitigs: u0 ends with AGCA, where u1 starts, and u1 ends
# with GGTC, where u2 starts.  CHAIN_READ is u0.u1.u2 and maps at cost 0;
# each case below breaks one step of the greedy mapper.
CHAIN_UNITIGS = ["CGTTAGCA", "AGCATGGTC", "GGTCAAC"]
CHAIN_READ = "CGTTAGCATGGTCAAC"


@pytest.mark.parametrize(
    "seq, budget, greedy, exhaustive",
    [
        # foreign bases at both ends: no unitig reaches back to either start
        ("TT" + CHAIN_READ + "TT", 2, "begin_not_found", "begin_not_found"),
        # foreign bases at the end: '+' anchors its begin but no unitig reaches
        # the end, '-' anchors no begin; the exhaustive search dead-ends
        (CHAIN_READ + "TT", 2, "end_not_found", "cover_failed"),
        # u1's body is missing: from AGCA, u1 would land past GGTC, and the
        # exhaustive search, which has no end anchor, fails u1 on cost
        ("CGTTAGCAGGTCAAC", 2, "cover_failed", "budget_exceeded"),
        # one substitution inside u1 with no mismatch allowed
        (CHAIN_READ[:8] + "A" + CHAIN_READ[9:], 0, "budget_exceeded", "budget_exceeded"),
    ],
)
def test_unmapped_reasons_on_a_chain(seq, budget, greedy, exhaustive):
    graph = build_graph(CHAIN_UNITIGS, 5)
    anchor, _ = indexes_for(graph)
    params = MappingParams(max_mismatches=budget)
    clean = Read(id="clean", sequence=CHAIN_READ)
    assert map_branching(clean, graph, anchor, params).path == ((0, "+"), (1, "+"), (2, "+"))
    assert map_exhaustive(clean, graph, anchor, params).mismatches == 0
    read = Read(id="r", sequence=seq)
    assert map_branching(read, graph, anchor, params).reason == greedy
    assert map_exhaustive(read, graph, anchor, params).reason == exhaustive


def test_map_branching_requires_anchor():
    graph = build_graph(["ACTGA"], 3)
    anchor, _ = indexes_for(graph)
    result = map_branching(Read(id="r", sequence="GGGGGG"), graph, anchor, PARAMS)
    assert result.reason == "no_anchor"


def test_map_branching_read_below_k():
    graph = build_graph(["ACTGA"], 3)
    anchor, interior = indexes_for(graph)
    read = Read(id="r", sequence="AC")
    results = (
        map_read(read, graph, anchor, interior, PARAMS),
        map_single_unitig(read, graph, interior, PARAMS),
        map_branching(read, graph, anchor, PARAMS),
        map_exhaustive(read, graph, anchor, PARAMS),
    )
    for result in results:
        assert result == MappingResult(read_id="r", regime="unmapped", reason="too_short")


def test_map_single_unitig_interior_substring():
    genome = random_genome(7, 400)
    graph = build_graph([genome], 9)  # one unitig stored in genome orientation
    _, interior = indexes_for(graph)
    read = Read(id="r", sequence=genome[100:180])
    result = map_single_unitig(read, graph, interior, PARAMS)
    assert result.mapped
    assert result.regime == "single_unitig"
    assert result.mismatches == 0
    assert result.strand == "+"
    assert result.start_offset == 100


def test_map_single_unitig_overhang_unmapped():
    graph = build_graph(["ACCTGAC"], 3)
    _, interior = indexes_for(graph)
    result = map_single_unitig(Read(id="r", sequence="CCTGACA"), graph, interior, PARAMS)
    assert not result.mapped


def test_map_single_unitig_with_substitution():
    genome = random_genome(8, 300)
    graph = build_graph([genome], 9)
    anchor, interior = indexes_for(graph)
    seq = list(genome[50:130])
    seq[40] = {"A": "C", "C": "G", "G": "T", "T": "A"}[seq[40]]
    read = Read(id="r", sequence="".join(seq))
    result = map_single_unitig(read, graph, interior, PARAMS)
    assert result.mapped
    assert result.mismatches == 1
    assert result.mismatch_positions == (40,)
    assert_result_consistent(graph, anchor, result, read.sequence)


def test_map_single_unitig_reverse_strand():
    genome = random_genome(9, 400)
    graph = build_graph([genome], 9)
    _, interior = indexes_for(graph)
    read = Read(id="r", sequence=naive_rc(genome[120:200]))
    result = map_single_unitig(read, graph, interior, PARAMS)
    assert result.mapped
    assert result.mismatches == 0
    assert result.strand == "-"
    assert result.path == ((0, "+"),)


def test_map_read_dispatch():
    graph = build_graph(["ACTG", "TGAT"], 3)
    anchor, interior = indexes_for(graph)
    spanning = map_read(Read(id="a", sequence="ACTGAT"), graph, anchor, interior, PARAMS)
    assert spanning.regime == "branching_path"
    inside = map_read(Read(id="b", sequence="CTG"), graph, anchor, interior, PARAMS)
    assert inside.regime == "single_unitig"


def test_map_read_tie_prefers_single_unitig():
    # the read equals a whole unitig that also has a predecessor, so both
    # regimes produce a zero-cost result
    graph, _ = graph_from_sequences(["ACTGAT", "ACTGCC"], 3)
    anchor, interior = indexes_for(graph)
    whole = next(text for text in graph.unitigs if len(text) == 4)
    result = map_read(Read(id="r", sequence=whole), graph, anchor, interior, PARAMS)
    assert result.mapped
    assert result.mismatches == 0
    assert result.regime == "single_unitig"


def test_map_read_branching_beats_single_on_cost():
    # the read crosses u0 -> u1 exactly but also sits inside u2 with one
    # mismatch; the cheaper branching result must win the dispatch
    graph = build_graph(["ACTG", "TGAT", "CCACTGTTCC"], 3)
    anchor, interior = indexes_for(graph)
    read = Read(id="r", sequence="ACTGAT")
    single = map_single_unitig(read, graph, interior, PARAMS)
    assert single.mapped and single.mismatches == 1
    combined = map_read(read, graph, anchor, interior, PARAMS)
    assert combined.regime == "branching_path"
    assert combined.mismatches == 0
    assert_result_consistent(graph, anchor, combined, read.sequence)


# The unmapped reasons from the least to the most progress made.
REASON_ORDER = ["no_anchor", "begin_not_found", "end_not_found", "cover_failed",
                "budget_exceeded"]


def repeat_graph_with_decoys(k=11):
    """Unitigs of a genome holding eight copies of a 60 bp unit (up to two
    substitutions each, every third one reverse-complemented), plus eight
    decoy unitigs: 60 bp spans of the genome with one substitution.  Reads
    crossing unitig junctions of the genome also sit inside a decoy at one
    more mismatch, so the two regimes compete."""
    rng = random.Random(7)
    unit = random_genome(8, 60)
    parts = []
    for i in range(8):
        parts.append(random_genome(700 + i, rng.randint(20, 60)))
        copy = list(unit)
        for _ in range(rng.randint(0, 2)):
            copy[rng.randrange(60)] = rng.choice("ACGT")
        parts.append("".join(copy) if i % 3 else naive_rc("".join(copy)))
    genome = "".join(parts)
    graph, _ = graph_from_sequences([genome], k)
    decoys = []
    for _ in range(8):
        start = rng.randrange(0, len(genome) - 60)
        decoy = list(genome[start : start + 60])
        p = rng.randrange(60)
        decoy[p] = rng.choice([b for b in "ACGT" if b != decoy[p]])
        decoys.append("".join(decoy))
    graph = build_graph(graph.unitigs + decoys, k)
    return graph, [genome] + decoys


def test_map_reads_two_workers_match_one_on_repeats():
    graph, sources = repeat_graph_with_decoys()
    anchor, interior = indexes_for(graph)
    rng = random.Random(5)
    reads = []
    for i in range(240):
        source = sources[0]
        start = rng.randrange(0, len(source) - 40)
        seq = list(source[start : start + 40])
        for _ in range(rng.randint(0, 2)):
            seq[rng.randrange(40)] = rng.choice("ACGT")
        seq = "".join(seq)
        reads.append(Read(id=f"r{i}", sequence=seq if i % 2 else naive_rc(seq)))
    one = map_reads(reads, graph, anchor, interior, PARAMS, threads=1)
    two = map_reads(reads, graph, anchor, interior, PARAMS, threads=2, chunk_size=16)
    assert one == two
    assert sum(r.regime == "branching_path" for r in one) > 20


def test_map_read_follows_its_contract_on_repeats():
    graph, sources = repeat_graph_with_decoys()
    anchor, interior = indexes_for(graph)
    rng = random.Random(2)
    seen = set()
    for i in range(300):
        src = rng.choice(sources)
        start = rng.randrange(0, len(src) - 29)
        seq = list(src[start : start + 30])
        for _ in range(rng.randint(0, 3)):
            p = rng.randrange(30)
            seq[p] = rng.choice([b for b in "ACGT" if b != seq[p]])
        seq = "".join(seq)
        read = Read(id=f"r{i}", sequence=seq if rng.random() < 0.5 else naive_rc(seq))
        for mode in ("both", "forward_only"):
            params = MappingParams(strand_mode=mode)
            single = map_single_unitig(read, graph, interior, params)
            branching = map_branching(read, graph, anchor, params)
            if single.mapped and branching.mapped:
                if single.mismatches == branching.mismatches:
                    case, expected = "tie", single
                elif single.mismatches < branching.mismatches:
                    case, expected = "single cheaper", single
                else:
                    case, expected = "branching cheaper", branching
            elif single.mapped or branching.mapped:
                case = "single only" if single.mapped else "branching only"
                expected = single if single.mapped else branching
            else:
                case = "unmapped"
                worse = max(single.reason, branching.reason, key=REASON_ORDER.index)
                expected = MappingResult(read_id=read.id, regime="unmapped", reason=worse)
            assert map_read(read, graph, anchor, interior, params) == expected, (case, seq)
            seen.add(case)
    assert seen == {"tie", "single cheaper", "branching cheaper", "single only",
                    "branching only", "unmapped"}


def test_map_exhaustive_follows_its_contract_on_repeats(monkeypatch):
    # each strand's own search is the forward-only search of its sequence;
    # an expansion budget of 4 makes some of them truncate.  The last read
    # is '- cheaper' at the full budget: its '-' strand maps at 1 mismatch
    # through (16,'-'),(15,'+'), its '+' strand at 2 through (35,'+'),(34,'+').
    # A strand cut short flags the result, mapped or not
    from cdbgmap import mapper

    searched = []
    search = mapper._exhaustive_pass

    def counted(view, strand, *args, **kwargs):
        searched.append(strand)
        return search(view, strand, *args, **kwargs)

    monkeypatch.setattr(mapper, "_exhaustive_pass", counted)
    graph, sources = repeat_graph_with_decoys()
    anchor, _ = indexes_for(graph)
    forward = MappingParams(strand_mode="forward_only")
    rng = random.Random(3)
    reads = []
    for i in range(200):
        src = rng.choice(sources)
        start = rng.randrange(0, len(src) - 29)
        seq = list(src[start : start + 30])
        for _ in range(rng.randint(0, 3)):
            p = rng.randrange(30)
            seq[p] = rng.choice([b for b in "ACGT" if b != seq[p]])
        seq = "".join(seq)
        reads.append(Read(id=f"r{i}", sequence=seq if rng.random() < 0.5 else naive_rc(seq)))
    reads.append(Read(id="minus", sequence="ATTAAGCATCTAATCCTTGGTCCAGGTCGC"))
    seen = set()
    for read in reads:
        for budget in (200_000, 4):
            plus = map_exhaustive(read, graph, anchor, forward, budget)
            minus = map_exhaustive(
                Read(id=read.id, sequence=naive_rc(read.sequence)), graph, anchor, forward, budget
            )
            minus = replace(minus, strand="-") if minus.mapped else minus
            searched.clear()
            got = map_exhaustive(read, graph, anchor, PARAMS, budget)
            if plus.mapped and plus.mismatches == 0:
                case, expected, strands = "perfect +", plus, ["+"]
            elif plus.mapped and minus.mapped:
                if plus.mismatches <= minus.mismatches:
                    case = "tie" if plus.mismatches == minus.mismatches else "+ cheaper"
                    expected = plus
                else:
                    case, expected = "- cheaper", minus
                strands = ["+", "-"]
            elif plus.mapped or minus.mapped:
                case = "+ only" if plus.mapped else "- only"
                expected, strands = (plus if plus.mapped else minus), ["+", "-"]
            else:
                truncated = plus.truncated or minus.truncated
                case = f"unmapped, truncated {truncated}"
                worse = max(plus.reason, minus.reason, key=REASON_ORDER.index)
                expected = MappingResult(read_id=read.id, regime="unmapped", reason=worse)
                strands = ["+", "-"]
            # mapped or not, the result is truncated if a strand that ran was
            ran = {"+": plus, "-": minus}
            expected = replace(expected, truncated=any(ran[s].truncated for s in strands))
            assert got == expected, (case, budget, read.sequence)
            assert searched == strands, (case, budget, read.sequence)
            seen.add(case)
            if got.mapped and got.truncated:
                seen.add("mapped, truncated")
    assert seen == {"perfect +", "tie", "+ cheaper", "- cheaper", "+ only", "- only",
                    "unmapped, truncated True", "unmapped, truncated False",
                    "mapped, truncated"}


def per_base_hamming(seq, base, text, limit):
    """The reference for `_hamming`: one base at a time, clipped to the
    shorter text."""
    cost, out = 0, []
    for i, (x, y) in enumerate(zip(seq[base:], text), base):
        if x != y:
            cost += 1
            if cost > limit:
                return cost, None
            out.append(i)
    return cost, tuple(out)


def test_hamming_matches_a_per_base_reference():
    # reads with N, texts running past the read's end, base offsets 0-20,
    # limits 0-3, and counts that pass the limit on the last base compared
    rng = random.Random(29)
    seen = set()
    for _ in range(4000):
        length = rng.randint(1, 130)
        seq = "".join(rng.choice("ACGTN" if rng.random() < 0.1 else "ACGT") for _ in range(length))
        base = rng.randint(0, min(20, length - 1))
        span = rng.randint(1, length - base + 12)
        text = list(seq[base : base + span].replace("N", "A"))
        text += rng.choices("ACGT", k=span - len(text))
        for _ in range(rng.randint(0, 5)):
            p = rng.randrange(span)
            text[p] = rng.choice([b for b in "ACGT" if b != text[p]])
        if rng.random() < 0.3:  # a mismatch on the last base compared
            p = min(span, length - base) - 1
            text[p] = rng.choice([b for b in "ACGT" if b != seq[base + p]])
        text = "".join(text)
        limit = rng.randint(0, 3)
        got = _hamming(seq, base, text, limit)
        assert got == per_base_hamming(seq, base, text, limit), (seq, base, text, limit)
        every = per_base_hamming(seq, base, text, len(text))[1]
        seen.add(("base", base))
        seen.add(("limit", limit))
        seen.add("N" if "N" in seq[base : base + span] else "no N")
        if span > length - base:
            seen.add("past the read's end")
        if got[1] is None and len(every) == limit + 1:
            if every[-1] == base + min(span, length - base) - 1:
                seen.add("aborted on the last base")
    assert seen >= {("base", b) for b in range(21)} | {("limit", t) for t in range(4)}
    assert seen >= {"N", "no N", "past the read's end", "aborted on the last base"}


class EveryWord:
    """A container holding every exact word, so every window without an N
    is a seed."""

    def __contains__(self, word):
        return not non_acgt(word)


class SeedLog:
    """An interior table that logs each word `get` asks it about and holds
    the words of `keys`, each with no occurrence: a seed that places
    nothing, so a single pass scans every word of its strand."""

    def __init__(self, keys):
        self.keys = keys
        self.asked = []

    def get(self, word):
        self.asked.append(word)
        return () if word in self.keys else None


def scanned_seeds(seq, strand, size, graph, keys):
    """The seeds the single pass finds on `strand` of `seq` when the
    interior words are `keys`, as (position, word) pairs: the pass asks
    every word of the strand once, in order, and finds those in `keys`."""
    table = SeedLog(keys)
    view = ReadView(seq, size)
    params = MappingParams(max_anchor_attempts=len(seq))
    attempt = _single_pass(view, strand, graph, SimpleNamespace(_table=table), params, exact=True)
    assert attempt.reason is not None
    text = view.sequence(strand)
    assert table.asked == [text[p : p + size] for p in range(len(text) - size + 1)]
    return [(pos, word) for pos, word in enumerate(table.asked) if word in keys]


@pytest.mark.parametrize("k", [5, 31])
def test_read_view_windows_match_window_codes(k):
    size = k - 1
    rng = random.Random(k)
    half = random_genome(k, size // 2)
    palindrome = half + naive_rc(half)
    reads = [
        random_genome(3, size),
        random_genome(4, k),
        random_genome(5, k + 1),
        random_genome(6, 3 * k),
        "N" + random_genome(7, k + 2),
        random_genome(8, k) + "N" + random_genome(9, k),
        "A" + palindrome + "C" + palindrome,
        palindrome,
    ]
    for _ in range(20):
        reads.append("".join(rng.choice("ACGTN") for _ in range(rng.randint(size, 3 * k))))
    graph = build_graph([palindrome + "A", random_genome(11, 2 * k)], k)
    anchor, _ = indexes_for(graph)
    every = EveryWord()
    keys = anchor.keys()
    for seq in reads:
        for strand, text in (("+", seq), ("-", reverse_complement(seq))):
            expected = [(pos, text[pos : pos + size]) for pos, _, _ in window_codes(text, size)]
            view = ReadView(seq, size)
            assert scanned_seeds(seq, strand, size, graph, every) == expected
            assert view.sequence(strand) == text
            assert view.detected(strand, anchor) == [
                (pos, w) for pos, w in expected if w in keys or naive_rc(w) in keys
            ]


@pytest.mark.parametrize("k", [5, 31])
def test_single_pass_seeds_are_the_strands_own_interior_words(k):
    # a palindromic window (k = 5) is its own reverse complement's seed
    size = k - 1
    rng = random.Random(50 + k)
    unitigs = [random_genome(60 + k, 3 * k) + "GGATATCC", random_genome(61 + k, 2 * k)]
    graph = build_graph(unitigs, k)
    _, interior = indexes_for(graph)
    table, occurrences = interior._table, interior_table(interior)
    reads = []
    for _ in range(30):
        u = rng.choice(unitigs)
        start = rng.randrange(len(u) - size)
        seq = u[start : start + rng.randint(size, len(u) - start)]
        if rng.random() < 0.3:
            p = rng.randrange(len(seq))
            seq = seq[:p] + "N" + seq[p + 1 :]
        reads.append(seq if rng.random() < 0.5 else naive_rc(seq))
    for seq in reads:
        for strand in "+-":
            text = ReadView(seq, size).sequence(strand)
            got = scanned_seeds(seq, strand, size, graph, table)
            assert got == [(pos, w) for pos, _, _ in window_codes(text, size)
                           if (w := text[pos : pos + size]) in table]
            for pos, word in got:
                for uid, off in occurrences[word]:
                    assert unitigs[uid][off : off + size] == word == text[pos : pos + size]


class LookupLog(dict):
    """An interior table that logs each word `in` or `get` asks it about."""

    def __init__(self, table):
        super().__init__(table)
        self.asked = []

    def __contains__(self, word):
        self.asked.append(word)
        return super().__contains__(word)

    def get(self, word, default=None):
        self.asked.append(word)
        return super().get(word, default)


def test_map_read_encodes_windows_lazily_and_once(monkeypatch):
    # the view reads a strand's words off its text only as far as a pass
    # needs them, builds the '-' text at most once and only when a pass reads
    # it, and codes no word
    from cdbgmap import mapper

    calls = []
    rcs = []

    def counted(seq, size):
        calls.append(seq)
        return window_codes(seq, size)

    def counted_rc(seq):
        rcs.append(seq)
        return reverse_complement(seq)

    monkeypatch.setattr(mapper, "window_codes", counted)
    monkeypatch.setattr(mapper, "reverse_complement", counted_rc)
    genome = random_genome(12, 400)
    graph = build_graph([genome], 31)
    anchor, interior = indexes_for(graph)
    table = interior._table = LookupLog(interior._table)

    def words(text, *positions):
        return [text[p : p + 30] for p in positions]

    text = genome[50:150]
    plus = map_read(Read(id="p", sequence=text), graph, anchor, interior, PARAMS)
    assert plus.mismatches == 0 and plus.strand == "+"
    # placed from the first word, which the pigeonhole check asked about too
    assert table.asked == words(text, 0, 0) and rcs == []
    table.asked.clear()
    seq = list(genome[50:150])
    seq[70] = "A" if seq[70] != "A" else "C"
    minus = Read(id="m", sequence=naive_rc("".join(seq)))
    result = map_read(minus, graph, anchor, interior, PARAMS)
    assert result.mismatches == 1 and result.strand == "-"
    # '+' is ruled out by its words at 0, 30 and 60, unscanned, and '-' is
    # placed from its word 0
    assert table.asked == words(minus.sequence, 0, 30, 60) + words("".join(seq), 0, 0)
    assert rcs == [minus.sequence]
    table.asked.clear()
    rcs.clear()
    seq = list(genome[50:150])
    seq[5] = "A" if seq[5] != "A" else "C"
    plus = Read(id="p1", sequence="".join(seq))
    result = map_read(plus, graph, anchor, interior, PARAMS)
    assert result.mismatches == 1 and result.strand == "+"
    # word 30 is exact, so '+' is scanned, and only up to word 6, the first
    # past the substitution; the branching regime finds no anchor on the
    # forward text, so the '-' text is never built
    assert table.asked == words(plus.sequence, 0, 30, *range(7)) and rcs == []
    # no anchor word (the unitig's first and last 30 bases, or their reverse
    # complements) in the read's text: neither mapper builds the '-' text
    for mapped in (map_branching(minus, graph, anchor, PARAMS),
                   map_exhaustive(minus, graph, anchor, PARAMS)):
        assert mapped.reason == "no_anchor"
    assert rcs == []
    # on reads that hold anchor words and map across unitigs, either strand
    graph = trap_graph()
    anchor, _ = indexes_for(graph)
    for seq in (TRAP_READ, naive_rc(TRAP_READ)):
        read = Read(id="trap", sequence=seq)
        assert ReadView(seq, 4).detected("+", anchor)
        for mapped in (map_branching(read, graph, anchor, PARAMS),
                       map_exhaustive(read, graph, anchor, PARAMS)):
            assert mapped.regime == "branching_path", seq
    assert calls == []


def test_map_read_codes_no_word_twice(monkeypatch):
    # both regimes and strands of one `map_read` share one view: it codes no
    # word, and builds the '-' text at most once, whichever regime and
    # strand map the read
    from cdbgmap import mapper

    coded = []
    rcs = []

    def counted_word(seq, size):
        coded.append(seq)
        return window_codes(seq, size)

    def counted_rc(seq):
        rcs.append(seq)
        return reverse_complement(seq)

    monkeypatch.setattr(mapper, "window_codes", counted_word)
    monkeypatch.setattr(mapper, "reverse_complement", counted_rc)
    graph, sources = repeat_graph_with_decoys()
    genome = random_genome(12, 400)
    cases = [
        (graph, differential_reads(sources, 11, 80, 5)),
        (build_graph([genome], 31), [Read(id="exact", sequence=genome[50:150])]),
    ]
    built = 0
    for graph, reads in cases:
        anchor, interior = indexes_for(graph)
        for t in range(4):
            for mode in ("both", "forward_only"):
                params = MappingParams(max_mismatches=t, strand_mode=mode)
                for read in reads:
                    rcs.clear()
                    map_read(read, graph, anchor, interior, params)
                    assert coded == [], (read.sequence, t, mode, coded)
                    assert rcs in ([], [read.sequence]), (read.sequence, t, mode, rcs)
                    built += len(rcs)
    assert built


def test_mapping_and_indexing_encode_nothing(monkeypatch):
    # both indexes are keyed by the written words, so building them and
    # mapping on them read text: no encoder that `mapper` or `index` imports,
    # nor any in `sequences`, is called, in either regime, on either strand,
    # at any budget, for reads placed at their first seed, ruled out by the
    # pigeonhole rule, scanned in full, or mapped across unitigs
    from cdbgmap import index, mapper, sequences

    calls = []
    for module in (index, mapper, sequences):
        for name in ("kmer_codes", "window_codes"):
            if hasattr(module, name):
                def counted(*args, encode=getattr(module, name), name=name):
                    calls.append((name, args))
                    return encode(*args)

                monkeypatch.setattr(module, name, counted)
    repeats, sources = repeat_graph_with_decoys()
    genome = random_genome(12, 400)
    seq = list(genome[50:150])
    seq[70] = "A" if seq[70] != "A" else "C"
    cases = [
        (repeats, differential_reads(sources, 11, 80, 5)),
        (build_graph([genome], 31), [Read(id="exact", sequence=genome[50:150]),
                                     Read(id="minus", sequence=naive_rc("".join(seq)))]),
        (trap_graph(), [Read(id="trap", sequence=TRAP_READ),
                        Read(id="trap-", sequence=naive_rc(TRAP_READ))]),
    ]
    regimes = set()
    for graph, reads in cases:
        anchor, interior = index.build_anchor_index(graph), index.build_interior_index(graph)
        for t in range(4):
            for mode in ("both", "forward_only"):
                params = MappingParams(max_mismatches=t, strand_mode=mode)
                for read in reads:
                    regimes.update(r.regime for r in (
                        map_read(read, graph, anchor, interior, params),
                        map_branching(read, graph, anchor, params),
                        map_exhaustive(read, graph, anchor, params),
                    ))
    assert regimes == {"single_unitig", "branching_path", "unmapped"}
    assert calls == []


class ScanningView(ReadView):
    """A view that never rules a strand out, so every pass scans its words:
    the oracle for the pigeonhole rule."""

    def unplaceable(self, strand, keys, t):
        return False


def all_four(read, graph, anchor, interior, params):
    return (
        map_read(read, graph, anchor, interior, params),
        map_single_unitig(read, graph, interior, params),
        map_branching(read, graph, anchor, params),
        map_exhaustive(read, graph, anchor, params),
    )


def differential_reads(sources, k, count, seed):
    """Reads from `sources` of lengths k-1 to about 4(k-1), with up to four
    substitutions, one in three with an N inside one of the windows at
    0, k-1, 2(k-1) or 3(k-1), half of them reverse-complemented."""
    rng = random.Random(seed)
    k1 = k - 1
    reads = []
    for i in range(count):
        src = rng.choice(sources)
        length = rng.randint(k1, min(len(src), 4 * k1 + 5))
        start = rng.randrange(len(src) - length + 1)
        seq = list(src[start : start + length])
        for _ in range(rng.randint(0, 4)):
            p = rng.randrange(length)
            seq[p] = rng.choice([b for b in "ACGT" if b != seq[p]])
        if i % 3 == 0:
            p = rng.randrange(4) * k1 + rng.randrange(k1)
            if p < length:
                seq[p] = "N"
        seq = "".join(seq)
        reads.append(Read(id=f"r{i}", sequence=seq if rng.random() < 0.5 else naive_rc(seq)))
    return reads


def palindromic_repeat_genome(k, seed):
    """Random backbone with copies of one unit (some with a substitution,
    every other one reverse-complemented) and two palindromes, so that at an
    even k-1 some unitig overlaps are their own reverse complement."""
    rng = random.Random(seed)
    unit = random_genome(seed + 1, 4 * k)
    parts = [random_genome(seed + 2, 3 * k), "GGATATCC", "TTACGCGTAA"]
    for i in range(5):
        copy = list(unit)
        if i % 2:
            p = rng.randrange(len(copy))
            copy[p] = rng.choice([b for b in "ACGT" if b != copy[p]])
        copy = "".join(copy)
        parts.append(copy if i % 2 else naive_rc(copy))
        parts.append(random_genome(seed + 10 + i, rng.randint(k, 3 * k)))
    return "".join(parts)


def test_lazy_view_results_equal_an_encoded_view(monkeypatch):
    # every MappingResult field of the four mappers, against a view that
    # scans every pass, at -t 0-3, -n 1-3, both strand modes; reads shorter
    # than (t+1)(k-1) and N inside the proof windows
    from cdbgmap import mapper

    exact_scans = []
    single = mapper._single_pass

    def recorded(*args, **kwargs):
        attempt = single(*args, **kwargs)
        exact_scans.append(kwargs.get("exact", False))
        return attempt

    monkeypatch.setattr(mapper, "_single_pass", recorded)
    graph, sources = repeat_graph_with_decoys()
    cases = [(graph, differential_reads(sources, 11, 60, 1))]
    for k, seed in ((5, 31), (9, 32), (8, 33)):
        genome = palindromic_repeat_genome(k, seed)
        graph, _ = graph_from_sequences([genome], k)
        cases.append((graph, differential_reads([genome], k, 40, seed)))
    palindromic = 0
    skipped_then_unmapped = 0
    for graph, reads in cases:
        k1 = graph.k - 1
        palindromic += sum(text[-k1:] == naive_rc(text[-k1:]) for text in graph.unitigs)
        anchor, interior = indexes_for(graph)
        for t in range(4):
            for n in (1, 2, 3):
                for mode in ("both", "forward_only"):
                    params = MappingParams(max_mismatches=t, max_anchor_attempts=n,
                                           strand_mode=mode)
                    for read in reads:
                        exact_scans.clear()
                        lazy = all_four(read, graph, anchor, interior, params)
                        skipped_then_unmapped += any(exact_scans)
                        with monkeypatch.context() as patched:
                            patched.setattr(mapper, "ReadView", ScanningView)
                            scanned = all_four(read, graph, anchor, interior, params)
                        assert lazy == scanned, (read.sequence, t, n, mode)
    assert palindromic
    assert skipped_then_unmapped


def test_a_skipped_single_pass_keeps_its_reason_when_the_read_is_unmapped():
    # '+' has a substitution in its only proof window (t = 0), so its single
    # pass is skipped unscanned; the read ends unmapped, and the reason comes
    # from that pass scanned in full: a seed placed over budget, or a seed
    # whose placement runs past the unitig's end
    unitig = random_genome(41, 200)
    graph = build_graph([unitig], 11)
    anchor, interior = indexes_for(graph)
    params = MappingParams(max_mismatches=0)

    def substituted(seq, p):
        return seq[:p] + ("A" if seq[p] != "A" else "C") + seq[p + 1 :]

    over_budget = substituted(unitig[50:100], 3)
    past_the_end = substituted(unitig[170:], 3) + random_genome(42, 20)
    for seq, reason in ((over_budget, "budget_exceeded"), (past_the_end, "cover_failed")):
        view = ReadView(seq, 10)
        assert view.unplaceable("+", interior._table, 0)
        read = Read(id="r", sequence=seq)
        assert map_single_unitig(read, graph, interior, params).reason == reason
        assert map_read(read, graph, anchor, interior, params).reason == reason


def test_skipped_passes_are_not_rescanned_once_a_read_is_over_budget():
    # a skipped pass is rescanned for its reason only while the read's reason
    # can still get worse; budget_exceeded is the worst there is
    from cdbgmap import mapper

    graph = build_graph([random_genome(43, 60)], 11)
    read = Read(id="r", sequence=graph.unitigs[0][:30])
    rescans = []

    def skipped(view, strand, graph, index, params, exact=False):
        if exact:
            rescans.append(strand)
            return mapper._Attempt(mapper.COVER_FAILED)
        return mapper._SKIPPED

    for reason, expected, scanned in (
        (mapper.BUDGET_EXCEEDED, mapper.BUDGET_EXCEEDED, []),
        (mapper.END_NOT_FOUND, mapper.COVER_FAILED, ["+", "-"]),
    ):
        def failing(view, strand, graph, index, params, reason=reason):
            return mapper._Attempt(reason)

        rescans.clear()
        strands = ("+", "-")
        result = mapper._map(read, graph, PARAMS, (skipped, None, strands),
                             (failing, None, strands))
        assert (result.reason, rescans) == (expected, scanned)


def test_greedy_cover_keeps_the_first_of_equally_cheap_candidates():
    # found by search, then frozen: two unitigs start with the read's first
    # word GCTA, each one mismatch from the read after it; the cover takes
    # the first in id order, and only that one reaches the end overlap
    graph, _ = graph_from_sequences([palindromic_repeat_genome(5, 31)], 5)
    anchor, _ = indexes_for(graph)
    read = "GCTAAGGGAT"
    first = oriented(graph, 0, "-")
    second = oriented(graph, 48, "+")
    assert first[:4] == second[:4] == read[:4]
    for text in (first, second):
        assert sum(x != y for x, y in zip(text[4:], read[4:])) == 1
    params = MappingParams(max_mismatches=1, strand_mode="forward_only")
    result = map_branching(Read(id="tie", sequence=read), graph, anchor, params)
    assert result.path == ((0, "-"), (7, "+"), (22, "+"))
    assert result.mismatch_positions == (5,)


def test_map_read_unmapped_reports_reason():
    graph = build_graph(["ACTGA"], 3)
    anchor, interior = indexes_for(graph)
    result = map_read(Read(id="r", sequence="GGGGGGG"), graph, anchor, interior, PARAMS)
    assert result.regime == "unmapped"
    assert result.reason in {
        "no_anchor",
        "begin_not_found",
        "end_not_found",
        "cover_failed",
        "budget_exceeded",
    }


def test_n_counts_as_mismatch():
    genome = random_genome(10, 300)
    graph, _ = graph_from_sequences([genome], 9)
    anchor, interior = indexes_for(graph)
    seq = list(genome[40:120])
    seq[50] = "N"
    result = map_read(
        Read(id="r", sequence="".join(seq)), graph, anchor, interior, PARAMS
    )
    assert result.mapped
    assert result.mismatches == 1
    assert result.mismatch_positions == (50,)


def test_greedy_trap_construction_preconditions():
    graph = trap_graph()
    anchor, _ = indexes_for(graph)
    dets = ReadView(TRAP_READ, 4).detected("+", anchor)
    assert [pos for pos, _ in dets] == [0, 3, 8, 13, 16, 21, 24]


def test_greedy_shortcut_beaten_by_exhaustive():
    graph = trap_graph()
    anchor, _ = indexes_for(graph)
    read = Read(id="trap", sequence=TRAP_READ)
    greedy = map_branching(read, graph, anchor, PARAMS)
    exact = map_exhaustive(read, graph, anchor, PARAMS)
    assert greedy.mapped and greedy.mismatches == 1
    assert greedy.mismatch_positions == (12,)
    assert exact.mapped and exact.mismatches == 0
    assert [u for u, _ in greedy.path] == [0, 1, 2, 4, 6]
    assert [u for u, _ in exact.path] == [0, 1, 3, 5, 6]
    assert_result_consistent(graph, anchor, greedy, TRAP_READ)
    assert_result_consistent(graph, anchor, exact, TRAP_READ)


@pytest.mark.parametrize("mapper", [map_branching, map_exhaustive])
def test_junctions_and_begins_go_through_the_anchor_table_methods(monkeypatch, mapper):
    # the per-layer call counts of a traced bench run count these methods,
    # patched on the class: both mappers must fetch every junction's
    # candidates with starts_with_codes and their begin anchors with
    # ends_with_codes
    from cdbgmap.index import AnchorIndex

    graph = trap_graph()
    anchor, _ = indexes_for(graph)
    calls = {"starts_with_codes": 0, "ends_with_codes": 0}
    for name in calls:
        def counted(self, word, method=getattr(AnchorIndex, name), name=name):
            calls[name] += 1
            return method(self, word)

        monkeypatch.setattr(AnchorIndex, name, counted)
    result = mapper(Read(id="trap", sequence=TRAP_READ), graph, anchor, PARAMS)
    assert result.mapped and len(result.path) == 5
    assert calls["starts_with_codes"] >= len(result.path) - 1
    assert calls["ends_with_codes"] > 0


def test_exhaustive_dominates_greedy_randomized():
    rng = random.Random(2024)
    checked = 0
    for seed in range(12):
        genome = random_genome(seed + 40, 600)
        k = (5, 7)[seed % 2]
        graph, _ = graph_from_sequences([genome], k)
        anchor, _ = indexes_for(graph)
        for i in range(30):
            start = rng.randrange(0, len(genome) - 40)
            seq = list(genome[start : start + 40])
            for _ in range(rng.randint(0, 2)):
                p = rng.randrange(len(seq))
                seq[p] = rng.choice([b for b in "ACGT" if b != seq[p]])
            read = Read(id=f"r{seed}_{i}", sequence="".join(seq))
            greedy = map_branching(read, graph, anchor, PARAMS)
            exact = map_exhaustive(read, graph, anchor, PARAMS)
            if greedy.mapped:
                assert exact.mapped
                assert exact.mismatches <= greedy.mismatches
                checked += 1
            if exact.mapped:
                assert_result_consistent(graph, anchor, exact, read.sequence)
            if greedy.mapped:
                assert_result_consistent(graph, anchor, greedy, read.sequence)
    assert checked > 50


def test_exhaustive_error_free_reads_cost_zero():
    genome = random_genome(91, 800)
    graph, _ = graph_from_sequences([genome], 7)
    anchor, _ = indexes_for(graph)
    rng = random.Random(5)
    mapped = 0
    for i in range(40):
        start = rng.randrange(0, len(genome) - 36)
        read = Read(id=f"r{i}", sequence=genome[start : start + 36])
        result = map_exhaustive(read, graph, anchor, PARAMS)
        if result.mapped:
            assert result.mismatches == 0
            mapped += 1
    assert mapped > 10


def test_exhaustive_truncation_flag():
    genome = random_genome(92, 700)
    graph, _ = graph_from_sequences([genome], 5)
    anchor, _ = indexes_for(graph)
    read = Read(id="r", sequence=genome[100:160])
    tight = map_exhaustive(read, graph, anchor, PARAMS, expansion_budget=2)
    assert tight.truncated


def test_exhaustive_searches_once_from_a_begin_overlap_at_read_start():
    # two unitigs end with ACGA, the read's first word, and one starts with
    # it: both give the same empty-head anchor, so one search of one
    # expansion maps the read
    graph = build_graph(["TTTTACGA", "CCCCACGA", "ACGATGCATT"], 5)
    anchor, _ = indexes_for(graph)
    read = Read(id="r", sequence="ACGATGCAT")
    result = map_exhaustive(read, graph, anchor, PARAMS, expansion_budget=1)
    assert (result.path, result.start_offset, result.mismatches) == (((2, "+"),), 0, 0)
    assert not result.truncated


def test_exhaustive_keeps_the_first_cost_0_walk_on_a_palindromic_unitig():
    # ACGT is its own reverse complement, so (0,'+') and (0,'-') both end
    # with the read's last word and both place the read at cost 0; the
    # first begin anchor, '+', is the first cheapest
    graph = build_graph(["ACGT"], 4)
    anchor, _ = indexes_for(graph)
    result = map_exhaustive(Read(id="r", sequence="ACGT"), graph, anchor, PARAMS)
    assert (result.path, result.start_offset, result.mismatches) == (((0, "+"),), 0, 0)


def brute_force_exhaustive(read, graph, params):
    """`map_exhaustive`'s result by enumeration, on strings: every anchored
    walk within the mismatch budget on each strand, and the first cheapest,
    in begin-anchor then path order.  Unmapped, a strand's reason is
    `budget_exceeded` when any Hamming check on it went over the budget."""
    k1 = graph.k - 1
    t = params.max_mismatches
    if len(read.sequence) < graph.k:
        return MappingResult(read_id=read.id, regime="unmapped", reason="too_short")
    starts, ends = {}, {}  # word -> oriented unitigs, smallest id then '+' first
    for uid in range(len(graph)):
        for o in "+-":
            s = oriented(graph, uid, o)
            starts.setdefault(s[:k1], []).append((uid, o, s))
            ends.setdefault(s[-k1:], []).append((uid, o, s))

    def mismatches(seq, base, text):
        return [i for i, (x, y) in enumerate(zip(seq[base:], text), base) if x != y]

    def search(seq):
        length = len(seq)
        dets = [p for p in range(length - k1 + 1)
                if seq[p : p + k1] in starts or seq[p : p + k1] in ends]
        if not dets:
            return "no_anchor", None
        walks = []  # (cost, anchor rank, path, start offset, positions)
        over = anchored = False

        def extend(rank, jpos, word, path, cost, positions, start_offset):
            nonlocal over
            if jpos + k1 >= length:
                walks.append((cost, rank, path, start_offset, positions))
                return
            for uid, o, s in starts.get(word, ()):
                miss = mismatches(seq, jpos + k1, s[k1 : length - jpos])
                if cost + len(miss) > t:
                    over = True
                    continue
                extend(rank, jpos + len(s) - k1, s[-k1:], path + ((uid, o),),
                       cost + len(miss), positions + miss, start_offset)

        rank = 0
        for p in dets[: params.max_anchor_attempts]:
            word = seq[p : p + k1]
            if p == 0:  # one anchor with an empty head
                anchors = [((), 0, "")] if word in ends else []
            else:
                anchors = [(((uid, o),), len(s) - k1 - p, s[len(s) - k1 - p : len(s) - k1])
                           for uid, o, s in ends.get(word, ()) if len(s) - k1 - p >= 0]
            for head, start_offset, text in anchors:
                miss = mismatches(seq, 0, text)
                if len(miss) > t:
                    over = True
                    continue
                anchored = True
                extend(rank, p, word, head, len(miss), miss, start_offset)
                rank += 1
        if walks:
            return None, min(walks, key=lambda w: w[:3])
        if not anchored:
            return "begin_not_found", None
        return ("budget_exceeded" if over else "cover_failed"), None

    best, reasons = None, []
    for strand in params.strands:
        reason, walk = search(read.sequence if strand == "+" else naive_rc(read.sequence))
        if walk is None:
            reasons.append(reason)
        elif best is None or walk[0] < best[1][0]:
            best = (strand, walk)
        if best is not None and best[1][0] == 0:
            break
    if best is None:
        return MappingResult(read_id=read.id, regime="unmapped",
                             reason=max(reasons, key=REASON_ORDER.index))
    strand, (cost, _, path, start_offset, positions) = best
    return MappingResult(
        read_id=read.id,
        regime="single_unitig" if len(path) == 1 else "branching_path",
        strand=strand,
        path=path,
        start_offset=start_offset,
        mismatches=cost,
        mismatch_positions=tuple(positions),
        repeated=len({u for u, _ in path}) != len(path),
    )


def bubbles_and_a_cycle(k=7):
    """Two haplotypes, 24 bp apart SNPs (bubbles), around a tandem repeat of
    a 9 bp unit (a cycle)."""
    unit = random_genome(63, 9)
    first = random_genome(61, 120) + unit * 5 + random_genome(62, 120)
    second = list(first)
    for p in range(10, len(first), 24):
        second[p] = "ACGT"[("ACGT".index(first[p]) + 1) % 4]
    second = "".join(second)
    graph, _ = graph_from_sequences([first, second], k)
    return graph, [first, second]


@pytest.mark.parametrize("case", ["repeats", "random k5", "random k7", "bubbles and a cycle"])
def test_map_exhaustive_equals_a_brute_force_enumeration(case):
    if case == "repeats":
        graph, sources = repeat_graph_with_decoys()
    elif case == "bubbles and a cycle":
        graph, sources = bubbles_and_a_cycle()
    else:
        k = int(case[-1])
        sources = [random_genome(70 + k, 400)]
        graph, _ = graph_from_sequences(sources, k)
    anchor, _ = indexes_for(graph)
    rng = random.Random(case)
    reasons, repeated = set(), 0
    for i in range(40):
        src = rng.choice(sources)
        length = rng.randint(graph.k + 6, 40)
        start = rng.randrange(0, len(src) - length + 1)
        seq = src[start : start + length]
        if i % 8 == 0:  # run off one end of the source into foreign bases
            seq = src[len(src) - length + 4 :] + "TTGA" if i % 16 else "CAAT" + src[: length - 4]
        seq = list(seq)
        for _ in range(rng.randint(0, 3)):
            p = rng.randrange(length)
            seq[p] = rng.choice([b for b in "ACGTN" if b != seq[p]])
        seq = "".join(seq)
        read = Read(id=f"r{i}", sequence=seq if rng.random() < 0.5 else naive_rc(seq))
        for t in range(4):
            for mode in ("both", "forward_only"):
                params = MappingParams(max_mismatches=t, strand_mode=mode)
                got = map_exhaustive(read, graph, anchor, params)
                assert got == brute_force_exhaustive(read, graph, params), (t, mode, read.sequence)
                reasons.add(got.reason)
                repeated += got.repeated
    assert {None, "budget_exceeded"} <= reasons, reasons
    if case in ("repeats", "bubbles and a cycle"):  # random small-k walks rarely dead-end
        assert "cover_failed" in reasons, reasons
    if case != "repeats":
        assert repeated, case


def test_exhaustive_reason_at_a_memoised_junction_revisited_over_budget():
    # A then X or Y reach the junction TTGT at one read position, X exactly
    # and Y at two mismatches; Z costs one more and dead-ends before the
    # read's end.  Through X, Z fits the budget and the walk dead-ends;
    # through Y the junction comes back at a budget of 0, where Z goes over
    graph = build_graph(["AAAGCGGCAC", "GCACGAAGTTTGT", "GCACGCATTTTGT", "TTGTGTTCCC"], 5)
    anchor, _ = indexes_for(graph)
    read = Read(id="r", sequence="AAAGCGGCACGAAGTTTGTGTACCCCAC")
    result = map_exhaustive(read, graph, anchor, PARAMS)
    assert result == brute_force_exhaustive(read, graph, PARAMS)
    assert result.reason == "budget_exceeded"


def test_exhaustive_is_polynomial_across_a_chain_of_bubbles():
    # sixteen SNP bubbles in a row, 2**16 walks; the read takes the second
    # branch of each, one mismatch away from the first, so a search over
    # paths would climb through every within-budget choice of first
    # branches; the memoised search evaluates each junction state once per
    # bound on the cost
    k1 = 8
    spacers = [random_genome(200 + i, 14) for i in range(17)]
    unitigs, walk = [spacers[0]], [(0, "+")]
    for i, (left, right) in enumerate(zip(spacers, spacers[1:])):
        for snp in "AC":
            unitigs.append(left[-k1:] + snp + right[:k1])
        unitigs.append(right)
        walk += [(3 * i + 2, "+"), (3 * i + 3, "+")]
    read = "C".join(spacers)
    graph = build_graph(unitigs, k1 + 1)
    anchor, _ = indexes_for(graph)
    result = map_exhaustive(Read(id="r", sequence=read), graph, anchor, PARAMS,
                            expansion_budget=200)
    assert (result.path, result.mismatches, result.truncated) == (tuple(walk), 0, False)
    assert_result_consistent(graph, anchor, result, read)
    # the read's last 3 or 4 bases mismatched: no walk fits until the bound
    # reaches their count, and each bound searches the chain's junction
    # states once more
    def mismatched(n):
        return read[:-n] + "".join("CGTA"["ACGT".index(b)] for b in read[-n:])

    for n, t, cost in ((3, 2, None), (3, 3, 3), (4, 2, None), (4, 3, None)):
        seq = mismatched(n)
        result = map_exhaustive(Read(id="r", sequence=seq), graph, anchor,
                                MappingParams(max_mismatches=t), expansion_budget=200)
        assert not result.truncated, (n, t)
        if cost is None:
            assert result.reason == "budget_exceeded", (n, t)
        else:
            assert (result.path, result.mismatches) == (tuple(walk), cost)
            assert_result_consistent(graph, anchor, result, seq)
    # at budget 49 the '+' pass is cut short and '-' maps at cost 3: a walk
    # cheaper on '+' could have been missed, so the mapped result says so
    result = map_exhaustive(Read(id="r", sequence=mismatched(3)), graph, anchor,
                            MappingParams(max_mismatches=3), expansion_budget=49)
    reverse_walk = tuple((u, "-") for u, _ in reversed(walk))
    assert (result.path, result.mismatches, result.truncated) == (reverse_walk, 3, True)
    assert_result_consistent(graph, anchor, result, mismatched(3))


def test_repeat_flag_on_cyclic_path():
    # AACGAA loops on itself through the AA overlap; each CGAA of a read is
    # one more junction, and 1,200 of them go far deeper than the
    # interpreter's recursion limit
    graph = build_graph(["AACGAA"], 3)
    anchor, _ = indexes_for(graph)
    for repeats in (2, 1200):
        read = Read(id="r", sequence="AA" + "CGAA" * repeats)
        for mapper in (map_branching, map_exhaustive):
            result = mapper(read, graph, anchor, PARAMS)
            assert (result.mismatches, result.repeated, result.truncated) == (0, True, False)
            assert [u for u, _ in result.path] == [0] * repeats
            assert_result_consistent(graph, anchor, result, read.sequence)


def test_strand_symmetry_single_unitig_regime():
    genome = random_genome(123, 5000)
    graph, _ = graph_from_sequences([genome], 15)
    anchor, interior = indexes_for(graph)
    rng = random.Random(6)
    for i in range(40):
        start = rng.randrange(0, len(genome) - 60)
        fwd = genome[start : start + 60]
        r1 = map_read(Read(id="f", sequence=fwd), graph, anchor, interior, PARAMS)
        r2 = map_read(
            Read(id="b", sequence=naive_rc(fwd)), graph, anchor, interior, PARAMS
        )
        assert r1.mapped and r2.mapped
        assert r1.mismatches == r2.mismatches
        assert {r1.strand, r2.strand} == {"+", "-"}


def test_strand_symmetry_branching():
    graph = branch_graph()
    anchor, _ = indexes_for(graph)
    fwd = map_branching(Read(id="f", sequence="ACTGAT"), graph, anchor, PARAMS)
    rev = map_branching(
        Read(id="b", sequence=naive_rc("ACTGAT")), graph, anchor, PARAMS
    )
    assert fwd.mapped and rev.mapped
    assert fwd.mismatches == rev.mismatches == 0
    # mirrored placement: same unitigs, reversed order, flipped orientations
    assert [(u, o) for u, o in rev.path] == [
        (u, "-" if o == "+" else "+") for u, o in reversed(fwd.path)
    ]


def test_forward_only_mode():
    genome = random_genome(321, 500)
    graph = build_graph([genome], 9)
    anchor, interior = indexes_for(graph)
    fwd_only = MappingParams(strand_mode="forward_only")
    plus = Read(id="p", sequence=genome[50:110])
    minus = Read(id="m", sequence=naive_rc(genome[50:110]))
    assert map_read(plus, graph, anchor, interior, fwd_only).mapped
    assert not map_read(minus, graph, anchor, interior, fwd_only).mapped
    both = map_read(minus, graph, anchor, interior, PARAMS)
    assert both.mapped and both.strand == "-"


def test_reconstruction_invariant_on_simulated_reads():
    """The primary self-audit: every emitted result must replay exactly."""
    genome = random_genome(5150, 3000)
    graph, _ = graph_from_sequences([genome], 11)
    anchor, interior = indexes_for(graph)
    cfg = SimConfig(
        reference=genome, read_length=70, read_count=150, error_rate=0.02, rng_seed=3
    )
    n_mapped = 0
    for sim in simulate_reads(cfg):
        result = map_read(sim.read, graph, anchor, interior, PARAMS)
        if result.mapped:
            n_mapped += 1
            assert result.mismatches <= PARAMS.max_mismatches
            assert_result_consistent(graph, anchor, result, sim.read.sequence)
    assert n_mapped > 100


def test_map_reads_parallel_matches_serial():
    genome = random_genome(777, 4000)
    graph, _ = graph_from_sequences([genome], 15)
    anchor, interior = indexes_for(graph)
    rng = random.Random(11)
    reads = []
    for i in range(300):
        start = rng.randrange(0, len(genome) - 50)
        reads.append(Read(id=f"r{i}", sequence=genome[start : start + 50]))
    serial = map_reads(reads, graph, anchor, interior, PARAMS, threads=1)
    parallel = map_reads(
        reads, graph, anchor, interior, PARAMS, threads=4, chunk_size=32
    )
    assert serial == parallel
    assert [r.read_id for r in serial] == [r.id for r in reads]


@pytest.mark.parametrize("threads", [1, 2])
def test_map_stream_draws_a_bounded_look_ahead(threads):
    genome = random_genome(778, 3000)
    graph, _ = graph_from_sequences([genome], 15)
    anchor, interior = indexes_for(graph)
    rng = random.Random(12)
    reads = []
    for i in range(400):
        start = rng.randrange(0, len(genome) - 50)
        seq = genome[start : start + 50]
        reads.append(Read(id=f"r{i}", sequence=seq if i % 2 else naive_rc(seq)))
    drawn = 0

    def counting():
        nonlocal drawn
        for read in reads:
            drawn += 1
            yield read

    chunk = 16
    stream = map_stream(
        counting(), graph, anchor, interior, PARAMS, threads=threads, chunk_size=chunk
    )
    first = next(stream)
    assert len(first) == chunk
    assert drawn <= (2 * threads + 1) * chunk
    results = first + [r for part in stream for r in part]
    assert drawn == len(reads)
    assert results == map_reads(reads, graph, anchor, interior, PARAMS)


class _InlineForkContext:
    """Stands in for the fork context: records each pool's size and runs
    every task in this process, so no worker process is started."""

    def __init__(self):
        self.pool_sizes = []
        self.in_flight = 0
        self.most_in_flight = 0

    def Pool(self, processes, initializer, initargs):
        self.pool_sizes.append(processes)
        initializer(*initargs)
        return _InlinePool(self)


class _InlinePool:
    def __init__(self, ctx):
        self.ctx = ctx

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def apply_async(self, fn, args):
        ctx = self.ctx
        ctx.in_flight += 1
        ctx.most_in_flight = max(ctx.most_in_flight, ctx.in_flight)
        done = fn(*args)

        class Result:
            def get(self):
                ctx.in_flight -= 1
                return done

        return Result()


@pytest.mark.parametrize("cpus, workers", [(2, 2), (3, 3), (1, None)])
def test_map_stream_starts_no_more_workers_than_usable_cpus(monkeypatch, cpus, workers):
    """`--threads 500` starts as many workers as the process may run on,
    draws 2 x that many chunks ahead, and maps in process on one CPU."""
    import os

    from cdbgmap import mapper

    ctx = _InlineForkContext()
    monkeypatch.setattr(mapper, "_fork_context", lambda: ctx)
    monkeypatch.setattr(mapper, "_WORKER_STATE", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    genome = random_genome(781, 3000)
    graph, _ = graph_from_sequences([genome], 15)
    anchor, interior = indexes_for(graph)
    reads = [Read(id=f"r{i}", sequence=genome[i : i + 40]) for i in range(0, 2000, 10)]
    drawn = 0

    def counting():
        nonlocal drawn
        for read in reads:
            drawn += 1
            yield read

    chunk = 8
    stream = map_stream(counting(), graph, anchor, interior, PARAMS, threads=500,
                        chunk_size=chunk)
    results = next(stream)
    assert drawn == (2 * workers if workers else 1) * chunk
    results += [r for part in stream for r in part]
    assert ctx.pool_sizes == ([workers] if workers else [])
    if workers:
        assert ctx.most_in_flight == 2 * workers
    assert results == map_reads(reads, graph, anchor, interior, PARAMS)


def test_map_stream_workers_render_their_results():
    genome = random_genome(779, 3000)
    graph, _ = graph_from_sequences([genome], 15)
    anchor, interior = indexes_for(graph)
    reads = [Read(id=f"r{i}", sequence=genome[i : i + 40]) for i in range(0, 2000, 10)]
    parts = list(map_stream(
        reads, graph, anchor, interior, PARAMS, threads=2, chunk_size=16,
        render=lambda r: f"{r.read_id}:{r.regime}",
    ))
    assert len(parts) == -(-len(reads) // 16)
    expected = [f"{r.read_id}:{r.regime}" for r in map_reads(reads, graph, anchor, interior)]
    assert [row for part in parts for row in part] == expected


def test_map_stream_freezes_the_heap_it_found_while_it_runs():
    # a full collection while mapping walks only what mapping makes, not the
    # graph, the indexes and the caller's objects; they are thawed when the
    # stream ends, is closed early, or fails
    import gc

    genome = random_genome(780, 2000)
    graph, _ = graph_from_sequences([genome], 15)
    anchor, interior = indexes_for(graph)
    reads = [Read(id=f"r{i}", sequence=genome[i : i + 40]) for i in range(0, 400, 10)]
    assert gc.get_freeze_count() == 0
    frozen = []

    def render(result):
        frozen.append(gc.get_freeze_count())
        return result

    assert list(map_stream(reads, graph, anchor, interior, PARAMS, chunk_size=8,
                           render=render))
    assert len(frozen) == len(reads) and min(frozen) > 0
    assert gc.get_freeze_count() == 0
    stream = map_stream(reads, graph, anchor, interior, PARAMS, chunk_size=8)
    next(stream)
    assert gc.get_freeze_count() > 0
    stream.close()
    assert gc.get_freeze_count() == 0

    def failing(result):
        raise RuntimeError("render failed")

    with pytest.raises(RuntimeError):
        list(map_stream(reads, graph, anchor, interior, PARAMS, render=failing))
    assert gc.get_freeze_count() == 0


def test_map_stream_rejects_a_chunk_size_below_1():
    graph = branch_graph()
    anchor, interior = indexes_for(graph)
    with pytest.raises(ValueError, match="chunk_size"):
        map_reads([Read(id="r", sequence="ACTGAT")], graph, anchor, interior, chunk_size=0)
