import gc
import gzip
import random
import re
import sys
import warnings

import pytest

from cdbgmap.fastx import read_described, read_sequences, write_fasta
from cdbgmap.sequences import Read

from conftest import damaged_gzip, fed_through, in_time


def test_multiline_fasta(tmp_path):
    p = tmp_path / "ref.fa"
    p.write_text(">chr1 some description\nACGT\nACGT\nTT\n>chr2\nGGGG\n")
    reads = list(read_sequences(p))
    assert [(r.id, r.sequence) for r in reads] == [
        ("chr1", "ACGTACGTTT"),
        ("chr2", "GGGG"),
    ]


def test_header_descriptions(tmp_path):
    fa = tmp_path / "ref.fa"
    fa.write_text(">u0 k=31  len=4 \nACGT\n>u1\nGG\n")
    fq = tmp_path / "r.fq"
    fq.write_text("@r1\tlane=2\nACGT\n+\nIIII\n")
    assert [(r.id, d) for r, d in read_described(fa)] == [("u0", "k=31  len=4"), ("u1", "")]
    assert [(r.id, d) for r, d in read_described(fq)] == [("r1", "lane=2")]


@pytest.mark.parametrize("text", [">  \nACGT\n", "@ \nACGT\n+\nIIII\n"])
def test_header_without_a_name_rejected(tmp_path, text):
    p = tmp_path / "x.fa"
    p.write_text(text)
    with pytest.raises(ValueError, match="without a name"):
        list(read_sequences(p))


def test_fastq_with_quality(tmp_path):
    p = tmp_path / "r.fq"
    p.write_text("@r1 extra\nACGT\n+\nIIII\n@r2\nGGTT\n+r2\nFFFF\n")
    reads = list(read_sequences(p))
    assert reads == [Read(id="r1", sequence="ACGT"), Read(id="r2", sequence="GGTT")]


def test_gzip_detected_by_magic_not_extension(tmp_path):
    p = tmp_path / "ref.fa"  # no .gz extension on purpose
    p.write_bytes(gzip.compress(b">u\nACGTA\n"))
    reads = list(read_sequences(p))
    assert [(r.id, r.sequence) for r in reads] == [("u", "ACGTA")]


def test_gzip_fastq(tmp_path):
    p = tmp_path / "reads.fq.gz"
    p.write_bytes(gzip.compress(b"@r1\nACGT\n+\nIIII\n@r2\nTTAA\n+\nFFFF\n"))
    reads = list(read_sequences(p))
    assert [(r.id, r.sequence) for r in reads] == [("r1", "ACGT"), ("r2", "TTAA")]


def test_lowercase_and_ambiguity_normalized(tmp_path):
    p = tmp_path / "r.fa"
    p.write_text(">r\nacgtRYn\n")
    (rec,) = read_sequences(p)
    assert rec.sequence == "ACGTNNN"


def test_duplicate_ids_suffixed(tmp_path):
    p = tmp_path / "r.fa"
    p.write_text(">a\nAA\n>a\nCC\n>a\nGG\n>b\nTT\n")
    ids = [r.id for r in read_sequences(p)]
    assert ids == ["a", "a.2", "a.3", "b"]
    assert len(set(ids)) == len(ids)
    # read_described gives the names as written
    assert [r.id for r, _ in read_described(p)] == ["a", "a", "a", "b"]
    p.write_text("@a\nAC\n+\nII\n@a\nGT\n+\nII\n")
    assert [r.id for r in read_sequences(p)] == ["a", "a.2"]
    assert [r.id for r, _ in read_described(p)] == ["a", "a"]


def test_only_runs_of_equal_ids_suffixed(tmp_path):
    p = tmp_path / "r.fa"
    p.write_text(">a\nAA\n>b\nCC\n>a\nGG\n>a\nTT\n")
    assert [r.id for r in read_sequences(p)] == ["a", "b", "a", "a.2"]


@pytest.mark.parametrize("damage", ["truncated", "xored", "magic"])
def test_damaged_gzip_is_a_value_error_naming_the_file(tmp_path, damage):
    rng = random.Random(8)
    text = "".join(
        f"@r{i}\n{''.join(rng.choice('ACGT') for _ in range(60))}\n+\n{'I' * 60}\n"
        for i in range(300)
    )
    p = damaged_gzip(tmp_path / "reads.fq.gz", gzip.compress(text.encode()), damage)
    with pytest.raises(ValueError, match="corrupt or truncated gzip file .*reads.fq.gz"):
        list(read_sequences(p))


def test_empty_file(tmp_path):
    p = tmp_path / "empty.fa"
    p.write_text("")
    assert list(read_sequences(p)) == []


def test_unrecognized_format(tmp_path):
    p = tmp_path / "junk.txt"
    p.write_text("hello\n")
    with pytest.raises(ValueError, match="unrecognized"):
        list(read_sequences(p))


def test_malformed_fastq(tmp_path):
    p = tmp_path / "bad.fq"
    p.write_text("@r1\nACGT\nIIII\n")
    with pytest.raises(ValueError, match="'\\+'"):
        list(read_sequences(p))


@pytest.mark.parametrize("text, message", [
    ("@r1\nACGT\n+\nIII\n", "quality length mismatch"),
    ("@r1\nACGT\nIIII\n", "missing '\\+' line"),
    ("@r1\nACGT\n", "missing '\\+' line"),
    ("@r1\nACGT\n+\n", "quality length mismatch"),
    ("r1\nACGT\n+\nIIII\n", "unrecognized sequence file format"),
    ("@r1\nACGT\n+\nIIII\nr2\nACGT\n+\nIIII\n", "malformed FASTQ record header"),
    ("@\nACGT\n+\nIIII\n", "FASTQ header without a name"),
])
def test_malformed_fastq_records_name_the_file(tmp_path, text, message):
    p = tmp_path / "bad.fq"
    p.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: .*{message}"):
        list(read_sequences(p))


def test_write_fasta_round_trip(tmp_path):
    p = tmp_path / "out.fa"
    n = write_fasta(p, [("u0", "ACGT" * 50), ("u1", "TTT")], width=60)
    assert n == 2
    back = list(read_sequences(p))
    assert [(r.id, r.sequence) for r in back] == [("u0", "ACGT" * 50), ("u1", "TTT")]


def test_crlf_tolerated(tmp_path):
    p = tmp_path / "r.fa"
    p.write_bytes(b">a\r\nACGT\r\n")
    (rec,) = read_sequences(p)
    assert rec.sequence == "ACGT"


def _fastx_bytes(fmt, n):
    """`n` random 100 bp records as FASTA, FASTQ or gzip FASTQ bytes."""
    rng = random.Random(n)
    seqs = ["".join(rng.choices("ACGT", k=100)) for _ in range(n)]
    if fmt == "fasta":
        return "".join(f">r{i} d\n{s[:60]}\n{s[60:]}\n" for i, s in enumerate(seqs)).encode()
    data = "".join(f"@r{i} d\n{s}\n+\n{'I' * 100}\n" for i, s in enumerate(seqs)).encode()
    return gzip.compress(data) if fmt == "fastq.gz" else data


@pytest.mark.parametrize("kind", ["pipe", "fifo"])
@pytest.mark.parametrize("fmt", ["fasta", "fastq", "fastq.gz"])
@pytest.mark.parametrize("n", [20, 3000])
def test_pipes_and_fifos_read_as_files(tmp_path, kind, fmt, n):
    # under 8 KB the whole input fits one buffered read, over 64 KB it does
    # not fit a pipe's buffer: an input opened twice loses its start or
    # cannot seek back to it
    data = _fastx_bytes(fmt, n)
    assert len(data) < 8192 if n == 20 else len(data) > 65536
    p = tmp_path / "in"
    p.write_bytes(data)
    expected = list(read_described(p))
    assert len(expected) == n
    with fed_through(kind, data, tmp_path / "in.fifo") as path:
        assert in_time(lambda: list(read_described(path))) == expected


@pytest.mark.parametrize("fmt", ["fastq", "fastq.gz"])
def test_inputs_are_closed_when_read_or_abandoned(tmp_path, monkeypatch, fmt):
    p = tmp_path / "in"
    p.write_bytes(_fastx_bytes(fmt, 20))
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(list(read_described(p))) == 20
        records = read_described(p)
        next(records)
        del records  # abandoned after one record
        gc.collect()
    assert unraisable == []
