import random
import tempfile
from collections import Counter

import pytest

from cdbgmap import census as census_module
from cdbgmap.census import count_kmers, solid_set
from cdbgmap.cli import main
from cdbgmap.sequences import _SLICE, kmer_codes

from oracles import census_codes, census_strings, solid_strings

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
    assert census_codes(count_kmers([], 5)) == {}


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
    once = census_codes(count_kmers(reads, 4))
    twice = census_codes(count_kmers(reads + reads, 4))
    assert twice == {c: 2 * n for c, n in once.items()}


def test_count_kmers_independent_of_read_order():
    reads = ["ACGTTACG", "GGTTACATG", "TTTTAAAC"]
    shuffled = list(reversed(reads))
    assert census_codes(count_kmers(reads, 4)) == census_codes(count_kmers(shuffled, 4))


def test_solid_set_examples():
    reads = ["AAAA", "TTTT", "ACT"]
    assert solid_strings(solid_set(count_kmers(reads, 3), 2)) == {"AAA"}
    every = census_codes(count_kmers(reads, 3))
    assert solid_set(count_kmers(reads, 3), 1).codes == frozenset(every)
    assert len(solid_set(count_kmers([], 3), 3)) == 0


def test_solid_set_monotone_in_threshold():
    rng = random.Random(31)
    reads = ["".join(rng.choice("ACGT") for _ in range(50)) for _ in range(6)]
    prev = None
    for c in (1, 2, 3, 4):
        cur = solid_set(count_kmers(reads, 5), c).codes
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


@pytest.fixture
def spills(monkeypatch, tmp_path):
    """The census spills every 50 codes, so small inputs reach its files;
    they are made in a fresh directory and each is recorded."""
    made = []
    make = tempfile.TemporaryFile

    def recorded(*args, **kwargs):
        made.append(make(*args, **kwargs))
        return made[-1]

    directory = tmp_path / "tmp"
    directory.mkdir()
    monkeypatch.setattr(tempfile, "TemporaryFile", recorded)
    monkeypatch.setattr(tempfile, "tempdir", str(directory))
    monkeypatch.setattr(census_module, "_SPILL", 50)

    def released():
        return bool(made) and all(f.closed for f in made) and not list(directory.iterdir())

    return released


@pytest.mark.parametrize("k", [5, 31, 33, 63])
@pytest.mark.parametrize("partitions", [1, 3, 64])
def test_partitioned_census_matches_oracle(k, partitions, spills, monkeypatch):
    # many spills, each partition in a file and a buffer, N-broken windows,
    # a read across a slice cut, and above k 32 codes of two words
    monkeypatch.setattr(census_module, "PARTITIONS", partitions)
    rng = random.Random(100 * k + partitions)
    reads = []
    for _ in range(40):
        seq = "".join(rng.choice("ACGT") for _ in range(rng.randint(k - 1, 3 * k)))
        if rng.random() < 0.3:
            cut = rng.randrange(len(seq))
            seq = seq[:cut] + "N" * rng.randint(1, 3) + seq[cut:]
        reads.append(seq)
    reads.append("".join(rng.choice("ACGT") for _ in range(_SLICE + k + 10)))
    reads += reads[:10] + reads[:5]  # counts of 2 and 3
    expected = naive_census(reads, k)
    if k > 32:
        assert max(kmer_codes(word)[0] for word in expected) >= 1 << 64

    census = count_kmers(reads, k)
    assert census.total() == sum(expected.values()) > 10 * census_module._SPILL
    assert census_strings(census) == expected
    assert len(census.counts) == len(expected)  # kept after the census closed
    for c in (1, 2, 3):
        solid = solid_set(count_kmers(reads, k), c)
        assert solid_strings(solid) == {w for w, n in expected.items() if n >= c}
    assert spills()


def test_solid_set_closes_the_census_and_keeps_its_totals(spills):
    reads = ["ACGTTACGGATTACA" * 20, "GGTTACATGNNACGT" * 20]
    census = count_kmers(reads, 7)
    solid = solid_set(census, 2)
    assert spills()
    assert census.total() == sum(naive_census(reads, 7).values())
    assert len(census.counts) == len(naive_census(reads, 7))
    assert len(solid) == sum(n >= 2 for n in naive_census(reads, 7).values())
    with pytest.raises(ValueError, match="closed"):
        next(iter(census.counts.items()))
    census = count_kmers(reads, 7)
    with pytest.raises(ValueError, match="threshold"):
        solid_set(census, 0)
    assert spills()


def test_census_closes_its_files_when_the_input_fails(spills):
    rng = random.Random(5)

    def texts():
        for _ in range(20):
            yield "".join(rng.choice("ACGT") for _ in range(100))
        raise RuntimeError("input broke")

    with pytest.raises(RuntimeError, match="input broke"):
        count_kmers(texts(), 31)
    assert spills()


def test_build_leaves_no_temporary_file_on_any_exit(spills, tmp_path, capsys):
    rng = random.Random(9)
    records = ["".join(rng.choice("ACGT") for _ in range(80)) for _ in range(30)]
    good = tmp_path / "reads.fq"
    good.write_text("".join(f"@r{i}\n{s}\n+\n{'I' * len(s)}\n" for i, s in enumerate(records)))
    broken = tmp_path / "broken.fq"
    broken.write_text(good.read_text() + "@bad\nACGT\n")  # no '+' line
    out = tmp_path / "unitigs.fa"
    assert main(["build", "-k", "15", "-c", "1", "-o", str(out), str(good)]) == 0
    assert f"distinct_kmers={len(naive_census(records, 15))}" in capsys.readouterr().out
    assert spills()
    for inputs in (["-c", "99", str(good)], ["-c", "1", str(broken)]):
        missing = tmp_path / "missing.fa"
        assert main(["build", "-k", "15", "-o", str(missing), *inputs]) == 2
        assert not missing.exists()
        assert spills()
