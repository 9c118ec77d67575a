import gzip
import os
import random
import struct
import threading

import pytest

from cdbgmap.cli import TSV_COLUMNS, main
from cdbgmap.fastx import write_fasta
from cdbgmap.graph import CompactedGraph, Unitig, read_unitigs_fasta
from cdbgmap.index import build_interior_index, save_indexes

from conftest import damaged_gzip, naive_canonical, naive_kmers, random_genome, with_crc


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out):
    pairs = {}
    for line in out.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs


def test_build_reports_stats_and_preserves_spectrum(tmp_path, capsys):
    genome = random_genome(1001, 1000)
    ref = tmp_path / "ref.fa"
    write_fasta(ref, [("chr", genome)])
    out = tmp_path / "unitigs.fa"
    gfa = tmp_path / "graph.gfa"
    solid = tmp_path / "solid.bin"
    code, stdout, _ = run(
        capsys, "build", "-k", "15", "-c", "1", "-o", str(out),
        "--gfa", str(gfa), "--solid-out", str(solid), str(ref),
    )
    assert code == 0
    stats = kv(stdout)
    assert int(stats["unitig_count"]) >= 1
    assert float(stats["mean_len"]) >= 15
    graph = read_unitigs_fasta(out, k=15)
    got = set()
    for u in graph.unitigs:
        got.update(naive_canonical(w) for w in naive_kmers(u.sequence, 15))
    assert got == {naive_canonical(w) for w in naive_kmers(genome, 15)}
    assert gfa.read_text().startswith("H\tVN:Z:1.0")
    assert solid.exists()


def test_build_empty_input_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.fa"
    empty.write_text("")
    code, _, err = run(capsys, "build", "-o", str(tmp_path / "u.fa"), str(empty))
    assert code == 2
    assert "no sequences" in err


def test_build_gzip_input(tmp_path, capsys):
    ref = tmp_path / "ref.fa"  # gzip content behind a plain name
    ref.write_bytes(gzip.compress(b">chr\n" + random_genome(5, 400).encode() + b"\n"))
    code, stdout, _ = run(
        capsys, "build", "-k", "9", "-c", "1", "-o", str(tmp_path / "u.fa"), str(ref)
    )
    assert code == 0
    assert "unitig_count=" in stdout


def test_build_rejects_bad_k(tmp_path, capsys):
    ref = tmp_path / "ref.fa"
    write_fasta(ref, [("chr", "ACGTACGT")])
    code, _, err = run(
        capsys, "build", "-k", "99", "-o", str(tmp_path / "u.fa"), str(ref)
    )
    assert code == 2
    assert "k must be" in err


def _built_workspace(tmp_path, capsys, genome=None, k=15):
    genome = genome or random_genome(2002, 4000)
    ref = tmp_path / "ref.fa"
    write_fasta(ref, [("chr", genome)])
    unitigs = tmp_path / "unitigs.fa"
    code, _, _ = run(
        capsys, "build", "-k", str(k), "-c", "1", "-o", str(unitigs), str(ref)
    )
    assert code == 0
    return genome, unitigs


def _reads_file(tmp_path, genome, n=120, length=60, name="reads.fa"):
    import random

    rng = random.Random(99)
    path = tmp_path / name
    records = []
    for i in range(n):
        start = rng.randrange(0, len(genome) - length)
        records.append((f"r{i}", genome[start : start + length]))
    write_fasta(path, records)
    return path


def test_map_tsv_schema_order_and_summary(tmp_path, capsys):
    genome, unitigs = _built_workspace(tmp_path, capsys)
    reads = _reads_file(tmp_path, genome)
    out = tmp_path / "map.tsv"
    code, stdout, _ = run(
        capsys, "map", "-k", "15", "-g", str(unitigs), "-o", str(out), str(reads)
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "\t".join(TSV_COLUMNS)
    assert len(lines) == 1 + 120
    ids = [line.split("\t")[0] for line in lines[1:]]
    assert ids == [f"r{i}" for i in range(120)]
    stats = kv(stdout)
    total = (
        float(stats["pct_single_unitig"])
        + float(stats["pct_branching_path"])
        + float(stats["pct_unmapped"])
    )
    assert abs(total - 100.0) < 0.11
    assert float(stats["pct_unmapped"]) == 0.0
    assert "anchor_index_bytes_per_key" in stats


def test_map_threads_byte_identical(tmp_path, capsys):
    genome, unitigs = _built_workspace(tmp_path, capsys)
    n = 8 * 1024 + 300  # more 1,024-read chunks than 4 workers keep in flight (8)
    reads = _reads_file(tmp_path, genome, n=n)
    outputs = []
    for threads in ("1", "2", "4", "8"):
        out = tmp_path / f"t{threads}.tsv"
        code, stdout, _ = run(
            capsys, "map", "-k", "15", "-g", str(unitigs), "-o", str(out),
            "--threads", threads, str(reads),
        )
        assert code == 0
        assert kv(stdout)["reads"] == str(n)
        outputs.append(out.read_bytes())
    assert outputs[0].count(b"\n") == 1 + n
    assert all(output == outputs[0] for output in outputs[1:])


def _fastq_text(genome, n, length=60, seed=98):
    rng = random.Random(seed)
    records = []
    for i in range(n):
        start = rng.randrange(0, len(genome) - length)
        records.append(f"@r{i}\n{genome[start : start + length]}\n+\n{'I' * length}\n")
    return "".join(records)


@pytest.mark.parametrize("damage", ["truncated", "xored", "magic"])
def test_damaged_gzip_input_exits_2(tmp_path, capsys, damage):
    genome, unitigs = _built_workspace(tmp_path, capsys)
    reads = damaged_gzip(
        tmp_path / "reads.fq.gz", gzip.compress(_fastq_text(genome, 600).encode()), damage
    )
    ref_text = f">chr\n{random_genome(3004, 20000)}\n".encode()
    ref = damaged_gzip(tmp_path / "ref.fa.gz", gzip.compress(ref_text), damage)
    commands = (
        ("build", "-k", "15", "-c", "1", "-o", str(tmp_path / "u.fa"), str(reads)),
        ("map", "-k", "15", "-g", str(unitigs), "-o", str(tmp_path / "m.tsv"), str(reads)),
        ("eval", "-k", "15", "--reference", str(ref), "--rates", "0",
         "--reads-per-rate", "20", "-o", str(tmp_path / "e.csv")),
    )
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv[0]
        assert err.startswith("error: corrupt or truncated gzip file"), err
        assert str(ref if argv[0] == "eval" else reads) in err
    assert not (tmp_path / "m.tsv").exists()


@pytest.mark.parametrize("name, data", [
    ("accent.fq", b"@r1\nACGT\xc3\xa9ACGTACGTACGTACGT\n+\nIIIIIIIIIIIIIIIIIIIIII\n"),
    ("empty.fa", b">r1\n>r2\n" + b"ACGT" * 10 + b"\n"),
])
def test_bad_record_exits_2_naming_the_file(tmp_path, capsys, name, data):
    _, unitigs = _built_workspace(tmp_path, capsys)
    bad = tmp_path / name
    bad.write_bytes(data)
    commands = (
        ("build", "-k", "15", "-c", "1", "-o", str(tmp_path / "u.fa"), str(bad)),
        ("map", "-k", "15", "-g", str(unitigs), "-o", str(tmp_path / "m.tsv"), str(bad)),
        ("eval", "-k", "15", "--reference", str(bad), "--rates", "0",
         "--reads-per-rate", "20", "-o", str(tmp_path / "e.csv")),
    )
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv[0]
        assert err.startswith("error:") and "Traceback" not in err, err
        assert err.count(str(bad)) == 1, err
    assert not (tmp_path / "m.tsv").exists()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("damage", ["malformed", "truncated"])
def test_map_input_error_leaves_no_tsv(tmp_path, capsys, threads, damage):
    genome, unitigs = _built_workspace(tmp_path, capsys)
    if damage == "malformed":  # rows are written before the bad record is read
        reads = tmp_path / "reads.fq"
        reads.write_text(_fastq_text(genome, 3000) + "@bad\nACGT\nIIII\n")
    else:
        text = _fastq_text(genome, 12000)
        reads = damaged_gzip(tmp_path / "reads.fq.gz", gzip.compress(text.encode()), damage)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, _, err = run(
        capsys, "map", "-k", "15", "-g", str(unitigs), "-o", str(out_dir / "map.tsv"),
        "--threads", threads, str(reads),
    )
    assert code == 2
    assert err.startswith("error:")
    assert os.listdir(out_dir) == []


def test_map_output_in_a_missing_directory_exits_2_naming_it(tmp_path, capsys):
    genome, unitigs = _built_workspace(tmp_path, capsys)
    reads = _reads_file(tmp_path, genome, n=5)
    out = tmp_path / "nodir" / "map.tsv"
    code, _, err = run(capsys, "map", "-k", "15", "-g", str(unitigs), "-o", str(out), str(reads))
    assert code == 2
    assert err.startswith("error:") and f"{out}'" in err


def test_map_writes_into_a_fifo_in_place(tmp_path, capsys):
    genome, unitigs = _built_workspace(tmp_path, capsys)
    reads = _reads_file(tmp_path, genome, n=50)
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code, _, _ = run(capsys, "map", "-k", "15", "-g", str(unitigs), "-o", str(fifo), str(reads))
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert code == 0
    assert got[0].count(b"\n") == 1 + 50
    assert os.listdir(tmp_path).count("out.fifo") == 1


def test_map_index_round_trip_equivalent(tmp_path, capsys):
    genome, unitigs = _built_workspace(tmp_path, capsys)
    reads = _reads_file(tmp_path, genome)
    idx = tmp_path / "graph.idx"
    direct = tmp_path / "direct.tsv"
    via_index = tmp_path / "via.tsv"
    assert run(
        capsys, "map", "-k", "15", "-g", str(unitigs), "-o", str(direct),
        "--index-out", str(idx), str(reads),
    )[0] == 0
    assert run(
        capsys, "map", "-k", "15", "-g", str(unitigs), "-o", str(via_index),
        "--index-in", str(idx), str(reads),
    )[0] == 0
    assert direct.read_bytes() == via_index.read_bytes()


def test_map_wrong_k_for_index_exits_2(tmp_path, capsys):
    genome, unitigs = _built_workspace(tmp_path, capsys)
    reads = _reads_file(tmp_path, genome)
    idx = tmp_path / "graph.idx"
    run(
        capsys, "map", "-k", "15", "-g", str(unitigs), "-o",
        str(tmp_path / "a.tsv"), "--index-out", str(idx), str(reads),
    )
    code, _, err = run(
        capsys, "map", "-k", "17", "-g", str(unitigs), "-o",
        str(tmp_path / "b.tsv"), "--index-in", str(idx), str(reads),
    )
    assert code == 2
    assert "k=15" in err


def test_map_wrong_k_for_graph_exits_2(tmp_path, capsys):
    genome, unitigs = _built_workspace(tmp_path, capsys)
    reads = _reads_file(tmp_path, genome)
    out = tmp_path / "map.tsv"
    code, _, err = run(
        capsys, "map", "-k", "13", "-g", str(unitigs), "-o", str(out), str(reads)
    )
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert "k=15" in err and "k=13" in err
    assert not out.exists()


def test_map_index_of_another_graph_exits_2(tmp_path, capsys):
    repeat = random_genome(2005, 40)
    genomes = {
        "one_unitig": random_genome(2002, 3000),
        "repeats": random_genome(2003, 300) + repeat + random_genome(2004, 300) + repeat,
    }
    spaces = {}
    for name, genome in genomes.items():
        space = tmp_path / name
        space.mkdir()
        _, unitigs = _built_workspace(space, capsys, genome)
        reads = _reads_file(space, genome, n=20)
        idx = space / "graph.idx"
        assert run(
            capsys, "map", "-k", "15", "-g", str(unitigs), "-o",
            str(space / "a.tsv"), "--index-out", str(idx), str(reads),
        )[0] == 0
        spaces[name] = (unitigs, idx, reads)
    for graph_of, index_of in (("one_unitig", "repeats"), ("repeats", "one_unitig")):
        unitigs, _, reads = spaces[graph_of]
        code, _, err = run(
            capsys, "map", "-k", "15", "-g", str(unitigs), "-o",
            str(tmp_path / "b.tsv"), "--index-in", str(spaces[index_of][1]), str(reads),
        )
        assert code == 2, (graph_of, index_of)
        assert err.startswith("error:") and "was not built from" in err


def test_map_missing_graph_exits_2(tmp_path, capsys):
    reads = tmp_path / "reads.fa"
    write_fasta(reads, [("r0", "ACGTACGTACGT")])
    code, _, err = run(
        capsys, "map", "-g", str(tmp_path / "nope.fa"), "-o",
        str(tmp_path / "o.tsv"), str(reads),
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("name, text", [
    ("reads.fa", ">r0\nACGTACGTACGTACGTACGT\n"),
    ("with_n.fa", ">u0 k=15\nACGTACGTNCGTACGTACGT\n"),
    ("letter_id.fa", ">uX k=15\nACGTACGTACGTACGTACGT\n"),
    ("no_header.fa", "ACGTACGTACGTACGTACGT\n"),  # an error the FASTX reader raises
])
def test_map_bad_graph_file_exits_2_naming_it_once(tmp_path, capsys, name, text):
    graph = tmp_path / name
    graph.write_text(text)
    reads = tmp_path / "input.fa"
    write_fasta(reads, [("r0", "ACGTACGTACGTACGTACGT")])
    out = tmp_path / "map.tsv"
    code, _, err = run(capsys, "map", "-k", "15", "-g", str(graph), "-o", str(out), str(reads))
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert err.count(str(graph)) == 1, err
    assert not out.exists()


def test_map_graph_with_a_bad_k_field_exits_2(tmp_path, capsys):
    graph = tmp_path / "bad_k.fa"
    graph.write_text(">u0 k=abc\nACGTACGTACGTACGTACGT\n")
    reads = tmp_path / "input.fa"
    write_fasta(reads, [("r0", "ACGTACGTACGTACGTACGT")])
    out = tmp_path / "map.tsv"
    code, _, err = run(capsys, "map", "-k", "15", "-g", str(graph), "-o", str(out), str(reads))
    assert code == 2
    assert err == f"error: {graph}: unitig header has a bad k field: 'k=abc'\n"
    assert not out.exists()


@pytest.mark.parametrize("gfa", ["nodir/x.gfa", "a_directory"])
@pytest.mark.parametrize("existing", [False, True])
def test_build_error_leaves_no_output(tmp_path, capsys, gfa, existing):
    # a missing directory fails before any work, a directory only when the
    # GFA is written, after the unitig FASTA
    ref = tmp_path / "ref.fa"
    write_fasta(ref, [("chr", random_genome(1001, 1000))])
    (tmp_path / "a_directory").mkdir()
    out = tmp_path / "b.fa"
    if existing:
        out.write_bytes(b">old\nACGT\n")
    before = sorted(os.listdir(tmp_path))
    code, _, err = run(capsys, "build", "-k", "15", "-c", "1", "-o", str(out),
                       "--gfa", str(tmp_path / gfa), "--solid-out", str(tmp_path / "s.bin"),
                       str(ref))
    assert code == 2
    assert err.startswith("error:") and f"{tmp_path / gfa}'" in err, err
    assert sorted(os.listdir(tmp_path)) == before
    assert os.listdir(tmp_path / "a_directory") == []
    if existing:
        assert out.read_bytes() == b">old\nACGT\n"


@pytest.mark.parametrize("output", ["nodir/r.csv", "a_directory"])
def test_eval_error_leaves_no_truth(tmp_path, capsys, output):
    (tmp_path / "a_directory").mkdir()
    truth = tmp_path / "t.tsv"
    code, _, err = run(
        capsys, "eval", "-k", "15", "--random-ref", "1000", "--rates", "0",
        "--reads-per-rate", "20", "--read-length", "60", "--no-exhaustive",
        "-o", str(tmp_path / output), "--truth-out", str(truth),
    )
    assert code == 2
    assert err.startswith("error:") and f"{tmp_path / output}'" in err, err
    assert sorted(os.listdir(tmp_path)) == ["a_directory"]
    assert os.listdir(tmp_path / "a_directory") == []


def test_map_malformed_fastq_keeps_an_existing_output(tmp_path, capsys):
    genome, unitigs = _built_workspace(tmp_path, capsys)
    reads = tmp_path / "reads.fq"
    reads.write_text(_fastq_text(genome, 50) + "@bad\nACGT\n+\nIII\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "map.tsv"
    out.write_bytes(b"old\n")
    code, _, err = run(
        capsys, "map", "-k", "15", "-g", str(unitigs), "-o", str(out),
        "--index-out", str(out_dir / "graph.idx"), str(reads),
    )
    assert code == 2
    assert err == f"error: {reads}: malformed FASTQ record: quality length mismatch\n"
    assert os.listdir(out_dir) == ["map.tsv"]
    assert out.read_bytes() == b"old\n"


@pytest.mark.parametrize("threads", ["0", "-1"])
@pytest.mark.parametrize("command", ["map", "eval"])
def test_threads_below_1_exits_2(tmp_path, capsys, command, threads):
    out = tmp_path / "out"
    if command == "map":
        genome, unitigs = _built_workspace(tmp_path, capsys)
        reads = _reads_file(tmp_path, genome, n=5)
        argv = ["map", "-k", "15", "-g", str(unitigs), "--threads", threads,
                "-o", str(out), str(reads)]
    else:
        argv = ["eval", "-k", "15", "--random-ref", "500", "--reads-per-rate", "10",
                "--read-length", "60", "--threads", threads, "-o", str(out)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == "error: --threads must be >= 1\n"
    assert not out.exists()


def test_eval_csv_and_gating(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code, stdout, _ = run(
        capsys, "eval", "-k", "15", "--random-ref", "3000", "--seed", "7",
        "--rates", "0,0.01", "--reads-per-rate", "150", "--read-length", "60",
        "-o", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("error_rate,recall,d0")
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[1]) == 1.0  # recall at rate 0
    assert float(first[2]) == 100.0  # d0 at rate 0

    code, _, err = run(
        capsys, "eval", "-k", "15", "--random-ref", "2000", "--seed", "7",
        "--rates", "0.01", "--reads-per-rate", "60", "--read-length", "60",
        "-o", str(tmp_path / "r2.csv"), "--min-recall", "101",
    )
    assert code == 1
    assert "gates unmet" in err


def test_eval_reference_file_and_truth(tmp_path, capsys):
    genome = random_genome(3003, 2500)
    ref = tmp_path / "ref.fa"
    write_fasta(ref, [("chr", genome)])
    out = tmp_path / "report.csv"
    truth = tmp_path / "truth.tsv"
    code, _, _ = run(
        capsys, "eval", "-k", "15", "--reference", str(ref), "--rates", "0",
        "--reads-per-rate", "50", "--read-length", "70", "-o", str(out),
        "--truth-out", str(truth),
    )
    assert code == 0
    assert truth.read_text().startswith("read_id\t")


def test_eval_bad_rates_exit_2(tmp_path, capsys):
    code, _, err = run(
        capsys, "eval", "--random-ref", "500", "--rates", "0,zap",
        "-o", str(tmp_path / "r.csv"), "-k", "9",
    )
    assert code == 2
    assert "bad rate list" in err


def _index_sections(idx_path):
    """(start, end) byte ranges of a saved index by name, in file order: the
    header fields, the unitig sequences and the CRC trailer."""
    size = idx_path.stat().st_size
    sizes = [("magic", 8), ("version", 4), ("k", 4), ("unitig count", 4),
             ("unitigs", size - 24), ("trailer", 4)]
    sections, end = {}, 0
    for name, n in sizes:
        sections[name] = (end, end + n)
        end += n
    return sections


def _saved_index(tmp_path, capsys, genome=None):
    """A built graph, a few reads and the index `map --index-out` saved."""
    genome, unitigs = _built_workspace(tmp_path, capsys, genome)
    reads = _reads_file(tmp_path, genome, n=5)
    idx = tmp_path / "graph.idx"
    assert run(
        capsys, "map", "-k", "15", "-g", str(unitigs), "-o",
        str(tmp_path / "a.tsv"), "--index-out", str(idx), str(reads),
    )[0] == 0
    return unitigs, reads, idx


def _map_with_index(tmp_path, capsys, unitigs, reads, content, name="bad"):
    """Exit code and stderr of `map --index-in` on an index of `content`,
    checking that a failure leaves no TSV."""
    bad = tmp_path / f"{name}.idx"
    bad.write_bytes(content)
    out = tmp_path / f"{name}.tsv"
    code, _, err = run(
        capsys, "map", "-k", "15", "-g", str(unitigs), "-o", str(out),
        "--index-in", str(bad), str(reads),
    )
    if code:
        assert err.startswith("error:") and "Traceback" not in err, (name, err)
        assert not out.exists(), name
    return code, err


def test_map_truncated_index_exits_2(tmp_path, capsys):
    unitigs, reads, idx = _saved_index(tmp_path, capsys)
    data = idx.read_bytes()
    sections = _index_sections(idx)
    cuts = {"version": 10}
    for part in ("k", "unitigs", "trailer"):
        start, end = sections[part]
        cuts[part] = (start + end) // 2
    for where, cut in cuts.items():
        code, err = _map_with_index(tmp_path, capsys, unitigs, reads, data[:cut], where)
        assert code == 2 and "truncated or malformed" in err, where
    code, err = _map_with_index(tmp_path, capsys, unitigs, reads, data + b"\x00", "extra")
    assert code == 2 and "CRC-32 mismatch" in err


def test_map_short_read_is_unmapped_too_short(tmp_path, capsys):
    genome, unitigs = _built_workspace(tmp_path, capsys, k=31)
    reads = _reads_file(tmp_path, genome, n=40, length=80)
    lines = reads.read_text().splitlines()  # two lines per read
    with_short = tmp_path / "with_short.fa"
    with_short.write_text("\n".join(lines[:20] + [">short", genome[100:120]] + lines[20:]) + "\n")
    plain, mixed = tmp_path / "plain.tsv", tmp_path / "mixed.tsv"
    assert run(capsys, "map", "-g", str(unitigs), "-o", str(plain), str(reads))[0] == 0
    code, _, err = run(capsys, "map", "-g", str(unitigs), "-o", str(mixed), str(with_short))
    assert code == 0, err
    rows = mixed.read_text().splitlines()
    assert len(rows) == 1 + 41
    assert rows[11].split("\t") == [
        "short", "unmapped", ".", ".", ".", ".", ".", "unmapped", "too_short"
    ]
    assert rows[:11] + rows[12:] == plain.read_text().splitlines()


def test_map_v1_or_wrong_fingerprint_index_exits_2(tmp_path, capsys):
    unitigs, reads, idx = _saved_index(tmp_path, capsys)
    data = idx.read_bytes()
    graph = read_unitigs_fasta(unitigs, 15)
    rebuild = "this cdbgmap reads version 7: rebuild it with `cdbgmap map --index-out`"
    cases = {}
    for version in range(1, 7):  # the loader reads nothing past another version
        old = bytearray(data)
        struct.pack_into("<I", old, 8, version)
        cases[f"v{version}"] = (bytes(old), f"format version {version}, " + rebuild)
    wrong = bytearray(data)  # a header k other than -k, which the unitigs allow
    struct.pack_into("<I", wrong, 12, 13)
    cases["k"] = (with_crc(wrong), "index was built for k=13, requested k=15")
    wrong = bytearray(data)  # a unitig count other than the unitigs the file holds
    struct.pack_into("<I", wrong, 16, len(graph) + 1)
    cases["unitig count"] = (with_crc(wrong), f"the unitig count {len(graph) + 1} is not")
    more = tmp_path / "more.saved"  # a file of every unitig of -g and one more
    extra = Unitig(len(graph), "ACGT" * 5)
    save_indexes(more, build_interior_index(CompactedGraph(15, graph.unitigs + [extra])))
    cases["one unitig more"] = (more.read_bytes(), "was not built from")
    for name, (content, message) in cases.items():
        code, err = _map_with_index(tmp_path, capsys, unitigs, reads, content, name)
        assert code == 2 and message in err, (name, err)


def test_map_corrupt_index_exits_2(tmp_path, capsys):
    repeat = random_genome(2005, 40)
    genome = (random_genome(2003, 300) + repeat + random_genome(2004, 300) + repeat
              + random_genome(2006, 300))
    unitigs, reads, idx = _saved_index(tmp_path, capsys, genome)
    data = idx.read_bytes()
    sections = _index_sections(idx)
    rng = random.Random(1105)
    cases = 0
    for name, (start, end) in sections.items():
        for pos in rng.sample(range(start, end), min(end - start, 8)):
            bad = bytearray(data)
            bad[pos] ^= rng.randrange(1, 256)
            code, _ = _map_with_index(tmp_path, capsys, unitigs, reads, bytes(bad), f"flip{pos}")
            assert code == 2, (name, pos)
            cases += 1
    assert cases >= 30
    # a valid CRC over one base of a middle unitig changed to another base,
    # or to a symbol outside ACGT, or over a header k out of range
    graph = read_unitigs_fasta(unitigs, 15)
    assert len(graph) >= 3
    middle = len(graph) // 2
    at = sections["unitigs"][0] + sum(len(u.sequence) + 1 for u in graph.unitigs[:middle])
    at += len(graph.unitigs[middle].sequence) // 2
    base = data[at:at + 1]
    fields = [("was not built from", at, b"A" if base != b"A" else b"C"),
              ("malformed", at, b"N")]
    fields += [("is not in [2, 63]", sections["k"][0], struct.pack("<I", k))
               for k in (0, 1, 64, 2**32 - 1)]
    for message, at, value in fields:
        bad = bytearray(data)
        bad[at:at + len(value)] = value
        code, err = _map_with_index(tmp_path, capsys, unitigs, reads, with_crc(bad), message)
        assert code == 2 and message in err, (message, err)
