import random

import pytest

from cdbgmap.sequences import (
    MAX_K,
    Read,
    decode_kmer,
    kmer_codes,
    reverse_complement,
    reverse_complement_read,
    window_codes,
)

# Naive string-level oracles, kept independent of the packed implementation.
_COMP = {"A": "T", "C": "G", "G": "C", "T": "A"}


def naive_rc(s):
    return "".join(_COMP[b] for b in reversed(s))


def naive_canonical(s):
    return min(s, naive_rc(s))


def random_dna(rng, n):
    return "".join(rng.choice("ACGT") for _ in range(n))


def test_reverse_complement_examples():
    assert reverse_complement("ACGT") == "ACGT"
    assert reverse_complement("AAAA") == "TTTT"
    assert reverse_complement("ACTGA") == "TCAGT"


def test_reverse_complement_rejects_ambiguous():
    with pytest.raises(ValueError, match="non-ACGT in exact context"):
        reverse_complement("ACNGT")


def test_reverse_complement_matches_oracle_and_involution():
    rng = random.Random(11)
    for _ in range(200):
        s = random_dna(rng, rng.randint(1, 80))
        assert reverse_complement(s) == naive_rc(s)
        assert reverse_complement(reverse_complement(s)) == s


def test_reverse_complement_read_keeps_n():
    assert reverse_complement_read("ACNGT") == "ACNGT"[::-1].translate(
        str.maketrans("ACGTN", "TGCAN")
    )
    assert reverse_complement_read("NNAC") == "GTNN"


def test_encode_decode_round_trip_all_k():
    rng = random.Random(7)
    for k in range(1, MAX_K + 1):
        s = random_dna(rng, k)
        assert decode_kmer(kmer_codes(s)[0], k) == s
    assert MAX_K >= 63


def test_integer_order_is_lexicographic():
    rng = random.Random(3)
    for _ in range(300):
        k = rng.randint(2, 16)
        a, b = random_dna(rng, k), random_dna(rng, k)
        assert (kmer_codes(a)[0] < kmer_codes(b)[0]) == (a < b)


def test_canonical_properties():
    rng = random.Random(5)
    for _ in range(300):
        k = rng.randint(2, 31)
        s = random_dna(rng, k)
        canon = decode_kmer(min(kmer_codes(s)), k)
        assert canon == naive_canonical(s)
        assert decode_kmer(min(kmer_codes(canon)), k) == canon
        assert decode_kmer(min(kmer_codes(naive_rc(s))), k) == canon


def test_rc_code_matches_string_rc():
    rng = random.Random(9)
    for _ in range(200):
        k = rng.randint(1, 63)
        s = random_dna(rng, k)
        fwd, rc = kmer_codes(s)
        assert decode_kmer(fwd, k) == s
        assert decode_kmer(rc, k) == naive_rc(s)
    for bad in ("ACN", "acgt", "+123", "AC GT", "0123", ""):
        with pytest.raises(ValueError):
            kmer_codes(bad)


def test_read_validation():
    with pytest.raises(ValueError):
        Read(id="", sequence="ACGT")
    with pytest.raises(ValueError):
        Read(id="r1", sequence="")
    r = Read(id="r1", sequence="ACGT")
    assert (r.id, r.sequence) == ("r1", "ACGT")


# ord(base) -> 2-bit code; 4 marks anything that is not A/C/G/T.
_REF_CODE = [4] * 256
for _i, _b in enumerate("ACGT"):
    _REF_CODE[ord(_b)] = _i


def reference_window_codes(seq, size):
    """The per-base rolling encoder window_codes replaced, kept as the
    reference: one Python step per base, reset at any non-ACGT symbol."""
    mask = (1 << (2 * size)) - 1
    shift = 2 * (size - 1)
    comp_shift = (3 << shift, 2 << shift, 1 << shift, 0)
    out = []
    fwd = rc = 0
    valid = 0
    for i, byte in enumerate(seq.encode("ascii", "replace")):
        b = _REF_CODE[byte]
        if b == 4:
            valid = 0
            fwd = rc = 0
            continue
        fwd = ((fwd << 2) | b) & mask
        rc = (rc >> 2) | comp_shift[b]
        valid += 1
        if valid >= size:
            out.append((i - size + 1, fwd, rc))
    return out


def test_window_codes_equal_the_per_base_encoder():
    rng = random.Random(2024)
    # around one block of windows, and several kb spanning many blocks
    lengths = (0, 1, 2, 30, 100, 255, 256, 257, 300, 512, 600, 1000, 4100)
    alphabets = ("ACGT", "ACGTN", "ACGTacgtN", "ACGTéαN?")
    for size in range(1, MAX_K + 1):
        for _ in range(4):
            length = rng.choice(lengths) + rng.randint(0, size)
            alphabet = rng.choice(alphabets)
            weights = [20] * 4 + [1] * (len(alphabet) - 4)
            seq = "".join(rng.choices(alphabet, weights, k=length))
            assert window_codes(seq, size) == reference_window_codes(seq, size), (size, seq)
    for seq in ("acgtACGTACGT", "ACGTN" * 60, "ÅCGTACGTTT", "A" * 5000):
        for size in (1, 3, 30, 63):
            assert window_codes(seq, size) == reference_window_codes(seq, size)


def test_reverse_complement_reports_the_first_bad_symbol():
    with pytest.raises(ValueError, match=r"non-ACGT in exact context: 'N'"):
        reverse_complement("ACNGX")
    with pytest.raises(ValueError, match=r"non-ACGT in exact context: 'a'"):
        reverse_complement("Cat")
    assert reverse_complement("") == ""
