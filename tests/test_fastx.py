import gzip
import random
import re

import pytest

from cdbgmap.fastx import read_described, read_sequences, write_fasta
from cdbgmap.sequences import Read

from conftest import damaged_gzip


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
