import random
from collections import Counter

import pytest

from cdbgmap.census import count_kmers, solid_set
from cdbgmap.sequences import _SLICE, Read

from oracles import census_strings, solid_strings

_COMP = {"A": "T", "C": "G", "G": "C", "T": "A"}


def naive_rc(s):
    return "".join(_COMP[b] for b in reversed(s))


def naive_census(reads, k):
    """String-level counting oracle: canonical = min(window, rc(window))."""
    counts = Counter()
    for seq in reads:
        for i in range(len(seq) - k + 1):
            w = seq[i : i + k]
            if any(b not in "ACGT" for b in w):
                continue
            counts[min(w, naive_rc(w))] += 1
    return dict(counts)


def test_count_kmers_examples():
    census = count_kmers(["ACTGA"], 3)
    assert census_strings(census) == {"ACT": 1, "CAG": 1, "TCA": 1}
    census = count_kmers(["AAAA", "TTTT"], 3)
    assert census_strings(census) == {"AAA": 4}
    assert count_kmers([], 5).counts == {}


def test_count_kmers_accepts_read_objects():
    census = count_kmers([Read(id="r", sequence="ACTGA")], 3)
    # CTG and its reverse complement CAG share one canonical counter
    assert census_strings(census) == {"ACT": 1, "CAG": 1, "TCA": 1}


def test_count_kmers_matches_oracle():
    rng = random.Random(23)
    for _ in range(25):
        reads = [
            "".join(rng.choice("ACGTN") for _ in range(rng.randint(0, 60)))
            for _ in range(rng.randint(0, 8))
        ]
        reads = [s for s in reads if s]
        k = rng.randint(2, 9)
        assert census_strings(count_kmers(reads, k)) == naive_census(reads, k)


@pytest.mark.parametrize("k", [5, 31])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_count_kmers_across_slice_cuts(k, extra):
    # two slices of windows, one window fewer or one more: every window
    # next to a cut is counted once, and an N run across the first cut
    # drops exactly the windows that hold it
    rng = random.Random(k * 10 + extra)
    seq = "".join(rng.choice("ACGT") for _ in range(2 * _SLICE + k - 1 + extra))
    with_n = seq[: _SLICE - 3] + "NNNNNN" + seq[_SLICE + 3 :]
    for read in (seq, with_n):
        assert census_strings(count_kmers([read], k)) == naive_census([read], k)


def test_total_counts_all_clean_windows():
    census = count_kmers(["ACGTACGT", "ACNGT"], 4)
    # 5 windows in read 1, read 2 has 2 windows but both contain N
    assert census.total() == 5


def test_counting_twice_doubles():
    reads = ["ACGTTACG", "GGTTACATG"]
    once = count_kmers(reads, 4).counts
    twice = count_kmers(reads + reads, 4).counts
    assert twice == {c: 2 * n for c, n in once.items()}


def test_count_kmers_independent_of_read_order():
    reads = ["ACGTTACG", "GGTTACATG", "TTTTAAAC"]
    shuffled = list(reversed(reads))
    assert count_kmers(reads, 4).counts == count_kmers(shuffled, 4).counts


def test_solid_set_examples():
    census = count_kmers(["AAAA", "TTTT", "ACT"], 3)
    assert solid_strings(solid_set(census, 2)) == {"AAA"}
    assert solid_set(census, 1).codes == frozenset(census.counts)
    assert len(solid_set(count_kmers([], 3), 3)) == 0


def test_solid_set_monotone_in_threshold():
    rng = random.Random(31)
    reads = ["".join(rng.choice("ACGT") for _ in range(50)) for _ in range(6)]
    census = count_kmers(reads, 5)
    prev = None
    for c in (1, 2, 3, 4):
        cur = solid_set(census, c).codes
        if prev is not None:
            assert cur <= prev
        prev = cur


def test_solid_set_rejects_bad_threshold():
    with pytest.raises(ValueError):
        solid_set(count_kmers(["ACGT"], 3), 0)


def test_count_kmers_validates_k():
    with pytest.raises(ValueError):
        count_kmers(["ACGT"], 1)
    with pytest.raises(ValueError):
        count_kmers(["ACGT"], 64)

