import errno
import gzip
import io
import os
import random
import threading
import zlib

import pytest

from cdbgmap.cli import TSV_COLUMNS, main
from cdbgmap.fastx import write_fasta
from cdbgmap.graph import CompactedGraph, Unitig, read_unitigs_fasta
from cdbgmap.index import build_interior_index, save_indexes

from conftest import (
    damaged_gzip,
    fed_through,
    in_time,
    naive_canonical,
    naive_kmers,
    random_genome,
)


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
    code, stdout, _ = run(
        capsys, "build", "-k", "15", "-c", "1", "-o", str(out), "--gfa", str(gfa), str(ref),
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


def test_build_solid_out_is_not_an_option(tmp_path, capsys):
    # the solid k-mer file was dropped: an old command line fails in argparse
    ref = tmp_path / "ref.fa"
    write_fasta(ref, [("chr", random_genome(1001, 1000))])
    out, solid = tmp_path / "unitigs.fa", tmp_path / "s.bin"
    with pytest.raises(SystemExit) as exc:
        main(["build", "-k", "15", "-c", "1", "-o", str(out), "--solid-out", str(solid),
              str(ref)])
    assert exc.value.code == 2
    assert "--solid-out" in capsys.readouterr().err
    assert not out.exists() and not solid.exists()


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


def test_build_from_a_gzip_pipe_writes_the_unitigs_of_the_file(tmp_path, capsys):
    ref = tmp_path / "ref.fa.gz"
    ref.write_bytes(gzip.compress(b">chr\n" + random_genome(5, 4000).encode() + b"\n"))
    from_file, from_pipe = tmp_path / "file.fa", tmp_path / "pipe.fa"
    assert run(capsys, "build", "-k", "15", "-c", "1", "-o", str(from_file), str(ref))[0] == 0
    with fed_through("pipe", ref.read_bytes()) as path:
        code, stdout, _ = in_time(
            lambda: run(capsys, "build", "-k", "15", "-c", "1", "-o", str(from_pipe), path)
        )
    assert code == 0 and "reads=1" in stdout
    assert from_pipe.read_bytes() == from_file.read_bytes()


def test_build_from_an_empty_pipe_exits_2(tmp_path, capsys):
    with fed_through("pipe", b"") as path:
        code, _, err = in_time(lambda: run(capsys, "build", "-o", str(tmp_path / "u.fa"), path))
    assert code == 2
    assert "no sequences" in err
    assert os.listdir(tmp_path) == []


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


def test_map_reads_from_a_fifo_on_a_piped_graph_as_from_files(tmp_path, capsys):
    genome, unitigs = _built_workspace(tmp_path, capsys)
    reads = _reads_file(tmp_path, genome)
    from_files, piped = tmp_path / "files.tsv", tmp_path / "piped.tsv"
    code, _, _ = run(capsys, "map", "-k", "15", "-g", str(unitigs), "-o", str(from_files),
                     str(reads))
    assert code == 0
    with fed_through("pipe", unitigs.read_bytes()) as graph, \
            fed_through("fifo", reads.read_bytes(), tmp_path / "reads.fifo") as fifo:
        code, stdout, _ = in_time(
            lambda: run(capsys, "map", "-k", "15", "-g", graph, "-o", str(piped), fifo)
        )
    assert code == 0 and "reads=120" in stdout
    assert piped.read_bytes() == from_files.read_bytes()


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


@pytest.mark.parametrize("kind", ["pipe", "fifo"])
def test_map_index_in_through_a_pipe_gives_the_tsv_of_the_file(tmp_path, capsys, kind):
    # the index file is opened once and read forward, like every sequence input
    unitigs, reads, idx, direct = _saved_index(tmp_path, capsys)
    out = tmp_path / "piped.tsv"
    with fed_through(kind, idx.read_bytes(), tmp_path / "index.fifo") as path:
        code, _, err = in_time(lambda: run(
            capsys, "map", "-k", "15", "-g", str(unitigs), "-o", str(out),
            "--index-in", path, str(reads),
        ))
    assert (code, err) == (0, "")
    assert out.read_bytes() == direct


def test_map_without_k_reads_the_k_of_the_graph(tmp_path, capsys):
    genome, unitigs = _built_workspace(tmp_path, capsys)
    reads = _reads_file(tmp_path, genome)
    given, recorded = tmp_path / "given.tsv", tmp_path / "recorded.tsv"
    argv = ("-g", str(unitigs), str(reads))
    assert run(capsys, "map", "-k", "15", "-o", str(given), *argv)[0] == 0
    assert run(capsys, "map", "-o", str(recorded), *argv)[0] == 0
    assert recorded.read_bytes() == given.read_bytes()


@pytest.mark.parametrize("k", [None, "13", "15", "31"])
def test_map_graph_without_recorded_k_exits_2(tmp_path, capsys, k):
    genome, unitigs = _built_workspace(tmp_path, capsys)
    headerless = tmp_path / "headerless.fa"
    headerless.write_text(unitigs.read_text().replace(" k=15", ""))
    reads = _reads_file(tmp_path, genome, n=5)
    out = tmp_path / "map.tsv"
    code, _, err = run(capsys, "map", *(("-k", k) if k else ()), "-g", str(headerless),
                       "-o", str(out), str(reads))
    assert code == 2
    assert err == f"error: {headerless}: unitig header 'u0' records no k\n"
    assert not out.exists()


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
                       "--gfa", str(tmp_path / gfa), str(ref))
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


def _same_file_twice(tmp_path, spelling):
    """An existing file and a second name for it: the same path, a path
    through `..`, or a symbolic link."""
    (tmp_path / "sub").mkdir()
    first = tmp_path / "out"
    first.write_bytes(b"old\n")
    if spelling == "link":
        second = tmp_path / "link"
        second.symlink_to(first)
    else:
        second = first if spelling == "same" else tmp_path / "sub" / ".." / "out"
    return first, second


def _rejected_as_one_file(tmp_path, before, first, code, err, second):
    assert code == 2
    assert err == f"error: two outputs name the same file: {second}\n"
    assert sorted(os.listdir(tmp_path)) == before  # no temporary file either
    assert first.read_bytes() == b"old\n"


@pytest.mark.parametrize("spelling", ["same", "dotdot", "link"])
def test_build_two_outputs_naming_one_file_exit_2(tmp_path, capsys, spelling):
    ref = tmp_path / "ref.fa"
    write_fasta(ref, [("chr", random_genome(1001, 1000))])
    first, second = _same_file_twice(tmp_path, spelling)
    before = sorted(os.listdir(tmp_path))
    code, _, err = run(capsys, "build", "-k", "11", "-c", "1", "-o", str(first),
                       "--gfa", str(second), str(ref))
    _rejected_as_one_file(tmp_path, before, first, code, err, second)
    # outputs written in place are not replaced, so they may coincide
    assert run(capsys, "build", "-k", "11", "-c", "1", "-o", os.devnull,
               "--gfa", os.devnull, str(ref))[0] == 0


def test_map_two_outputs_naming_one_file_exit_2(tmp_path, capsys):
    genome, unitigs = _built_workspace(tmp_path, capsys)
    reads = _reads_file(tmp_path, genome, n=5)
    first, second = _same_file_twice(tmp_path, "dotdot")
    before = sorted(os.listdir(tmp_path))
    code, _, err = run(capsys, "map", "-k", "15", "-g", str(unitigs), "-o", str(first),
                       "--index-out", str(second), str(reads))
    _rejected_as_one_file(tmp_path, before, first, code, err, second)


def test_eval_two_outputs_naming_one_file_exit_2(tmp_path, capsys):
    first, second = _same_file_twice(tmp_path, "same")
    before = sorted(os.listdir(tmp_path))
    code, _, err = run(
        capsys, "eval", "-k", "15", "--random-ref", "1000", "--rates", "0",
        "--reads-per-rate", "20", "--read-length", "60", "--no-exhaustive",
        "-o", str(first), "--truth-out", str(second),
    )
    _rejected_as_one_file(tmp_path, before, first, code, err, second)


def _rejected_as_an_input(tmp_path, before, output, code, err, data):
    assert code == 2
    assert err == f"error: an output names an input file: {output}\n"
    assert sorted(os.listdir(tmp_path)) == before  # no temporary file either
    assert output.read_bytes() == data


@pytest.mark.parametrize("flag", ["-o", "--gfa"])
def test_build_output_naming_an_input_exits_2(tmp_path, capsys, flag):
    (tmp_path / "sub").mkdir()
    ref = tmp_path / "ref.fa"
    write_fasta(ref, [("chr", random_genome(1001, 1000))])
    data, before = ref.read_bytes(), sorted(os.listdir(tmp_path))
    if flag == "-o":
        output, argv = ref, ["-o", str(ref)]
    else:  # another spelling of the input's path
        output = tmp_path / "sub" / ".." / "ref.fa"
        argv = ["-o", str(tmp_path / "g.fa"), "--gfa", str(output)]
    code, _, err = run(capsys, "build", "-k", "11", "-c", "1", *argv, str(ref))
    _rejected_as_an_input(tmp_path, before, output, code, err, data)


@pytest.mark.parametrize("names", ["graph", "reads", "index"])
def test_map_output_naming_an_input_exits_2(tmp_path, capsys, names):
    genome, unitigs = _built_workspace(tmp_path, capsys)
    reads = _reads_file(tmp_path, genome, n=5)
    index = tmp_path / "graph.idx"
    index.write_bytes(unitigs.read_bytes())  # the index file is the unitig FASTA
    if names == "index":
        output = index
        argv = ["--index-in", str(index), "--index-out", str(index), "-o", str(tmp_path / "m.tsv")]
    else:
        output = unitigs if names == "graph" else reads
        argv = ["-o", str(output)]
    data, before = output.read_bytes(), sorted(os.listdir(tmp_path))
    code, _, err = run(capsys, "map", "-k", "15", "-g", str(unitigs), *argv, str(reads))
    _rejected_as_an_input(tmp_path, before, output, code, err, data)
    # an output written in place replaces nothing, so it may name an input
    assert run(capsys, "map", "-k", "15", "-g", str(unitigs), "-o", os.devnull, os.devnull)[0] == 0


@pytest.mark.parametrize("flag", ["-o", "--truth-out"])
def test_eval_output_naming_its_reference_exits_2(tmp_path, capsys, flag):
    ref = tmp_path / "s.fa"
    write_fasta(ref, [("chr", random_genome(1001, 1000))])
    data, before = ref.read_bytes(), sorted(os.listdir(tmp_path))
    other = "--truth-out" if flag == "-o" else "-o"
    code, _, err = run(
        capsys, "eval", "-k", "15", "--reference", str(ref), "--rates", "0",
        "--reads-per-rate", "20", "--read-length", "60", "--no-exhaustive",
        flag, str(ref), other, str(tmp_path / "other"),
    )
    _rejected_as_an_input(tmp_path, before, ref, code, err, data)


def test_eval_audits_reads_across_thousands_of_junctions(tmp_path, capsys):
    # at k 5 the 20 kb reference compacts to 512 short unitigs, so each 8 kb
    # read's path holds 7,996 of them: the exhaustive audit must not recurse
    # per junction
    out = tmp_path / "deep.csv"
    code, _, err = run(
        capsys, "eval", "-k", "5", "--random-ref", "20000", "--rates", "0",
        "--reads-per-rate", "3", "--read-length", "8000", "--seed", "1", "-o", str(out),
    )
    assert (code, err) == (0, "")
    header, row = out.read_text().splitlines()
    assert header.split(",")[:8] == ["error_rate", "recall", "d0", "d1", "d2", "d3",
                                     "d4plus", "subopt_frac"]
    assert row.split(",")[:8] == ["0", "1.000000", "100.0000", "0.0000", "0.0000",
                                  "0.0000", "0.0000", "0.000000"]


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("gate", ["--min-recall", "--min-d0"])
def test_eval_non_finite_gate_exits_2(tmp_path, capsys, gate, value):
    # nothing compares below NaN, so a NaN gate would pass every report
    out, truth = tmp_path / "r.csv", tmp_path / "t.tsv"
    code, stdout, err = run(
        capsys, "eval", "-k", "15", "--random-ref", "2000", "--seed", "7",
        "--rates", "0.01", "--reads-per-rate", "60", "--read-length", "60",
        "-o", str(out), "--truth-out", str(truth), f"{gate}={value}",
    )
    assert code == 2
    assert err == f"error: {gate} must be a finite number, got {float(value)}\n"
    assert stdout == ""
    assert os.listdir(tmp_path) == []


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


def test_eval_reference_with_a_malformed_later_record_exits_2(tmp_path, capsys):
    # only the first record is used, but the whole file is parsed
    ref = tmp_path / "ref.fa"
    ref.write_text(f">chr\n{random_genome(3003, 2500)}\n>\nACGT\n")
    code, _, err = run(
        capsys, "eval", "-k", "15", "--reference", str(ref), "--rates", "0",
        "--reads-per-rate", "50", "--read-length", "70", "-o", str(tmp_path / "report.csv"),
    )
    assert code == 2
    assert err == f"error: {ref}: FASTA header without a name\n"
    assert os.listdir(tmp_path) == ["ref.fa"]


def test_eval_bad_rates_exit_2(tmp_path, capsys):
    code, _, err = run(
        capsys, "eval", "--random-ref", "500", "--rates", "0,zap",
        "-o", str(tmp_path / "r.csv"), "-k", "9",
    )
    assert code == 2
    assert "bad rate list" in err


def _saved_index(tmp_path, capsys, genome=None):
    """A built graph, a few reads, the index `map --index-out` saved and the
    TSV of that run, which read no index."""
    genome, unitigs = _built_workspace(tmp_path, capsys, genome)
    reads = _reads_file(tmp_path, genome, n=5)
    idx, direct = tmp_path / "graph.idx", tmp_path / "a.tsv"
    assert run(
        capsys, "map", "-k", "15", "-g", str(unitigs), "-o",
        str(direct), "--index-out", str(idx), str(reads),
    )[0] == 0
    assert idx.read_bytes() == unitigs.read_bytes()
    return unitigs, reads, idx, direct.read_bytes()


def _map_with_index(tmp_path, capsys, unitigs, reads, content, name="bad"):
    """Exit code, stderr and TSV bytes (None when there is none) of `map
    --index-in` on an index of `content`, checking that a failure is one
    `error:` line and leaves no TSV."""
    bad = tmp_path / f"{name}.idx"
    bad.write_bytes(content)
    out = tmp_path / f"{name}.tsv"
    code, _, err = run(
        capsys, "map", "-k", "15", "-g", str(unitigs), "-o", str(out),
        "--index-in", str(bad), str(reads),
    )
    bad.unlink()
    if code:
        assert err.startswith("error:") and err.count("\n") == 1, (name, err)
        assert not out.exists(), name
        return code, err, None
    tsv = out.read_bytes()
    out.unlink()
    return code, err, tsv


def _damaged_index_outcomes(tmp_path, capsys, unitigs, reads, direct, damaged):
    """Map through each (name, content) index of `damaged`: each run either
    exits 2 with an `error:` line and no TSV, or writes the TSV of the run
    without an index.  Returns how many runs did each."""
    rejected = same = 0
    for name, content in damaged:
        code, err, tsv = _map_with_index(tmp_path, capsys, unitigs, reads, content, name)
        if code:
            assert code == 2, (name, err)
            rejected += 1
        else:
            assert tsv == direct, name
            same += 1
    return rejected, same


def test_map_truncated_index_exits_2(tmp_path, capsys):
    # a loaded graph is used only when it equals -g, so a cut file is
    # rejected or cannot change the TSV; cutting the last newline keeps it
    unitigs, reads, idx, direct = _saved_index(tmp_path, capsys)
    data = idx.read_bytes()
    cuts = sorted({*range(0, len(data), 7), len(data) - 1})
    damaged = [(f"cut{cut}", data[:cut]) for cut in cuts]
    rejected, same = _damaged_index_outcomes(tmp_path, capsys, unitigs, reads, direct, damaged)
    assert (rejected, same) == (len(cuts) - 1, 1)


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
    unitigs, reads, idx, _ = _saved_index(tmp_path, capsys)
    data = idx.read_bytes()
    graph = read_unitigs_fasta(unitigs, 15)
    cases = {}
    # the binary layout of earlier releases is no sequence file: its first
    # byte is no record marker, and a byte above 127 in the chunk decoded to
    # say so is reported as one
    for version in (1, 7):
        body = b"CDBGIDX1" + b"".join(n.to_bytes(4, "little") for n in (version, 15, len(graph)))
        body += "".join(u.sequence + "\n" for u in graph.unitigs).encode()
        cases[f"v{version}"] = (
            body + zlib.crc32(body).to_bytes(4, "little"),
            (f"v{version}.idx: unrecognized sequence file format",
             f"v{version}.idx: 'ascii' codec can't decode byte"),
        )
    # the graph of an index read at another k is another graph
    cases["k"] = (data.replace(b" k=15", b" k=13"), ("was not built from",))
    more = tmp_path / "more.saved"  # a file of every unitig of -g and one more
    extra = Unitig(len(graph), "ACGT" * 5)
    save_indexes(more, build_interior_index(CompactedGraph(15, graph.unitigs + [extra])))
    cases["one unitig more"] = (more.read_bytes(), ("was not built from",))
    for name, (content, messages) in cases.items():
        code, err, _ = _map_with_index(tmp_path, capsys, unitigs, reads, content, name)
        assert code == 2 and any(message in err for message in messages), (name, err)


def test_map_corrupt_index_exits_2(tmp_path, capsys):
    # a loaded graph is used only when it equals -g, so a changed byte is
    # rejected or cannot change the TSV (a base made lowercase, say)
    repeat = random_genome(2005, 40)
    genome = (random_genome(2003, 300) + repeat + random_genome(2004, 300) + repeat
              + random_genome(2006, 300))
    unitigs, reads, idx, direct = _saved_index(tmp_path, capsys, genome)
    data = idx.read_bytes()
    assert data.count(b">") >= 3
    rng = random.Random(1105)
    damaged = []
    for pos in range(len(data)):
        bad = bytearray(data)
        bad[pos] ^= rng.randrange(1, 256)
        damaged.append((f"flip{pos}", bytes(bad)))
    rejected, same = _damaged_index_outcomes(tmp_path, capsys, unitigs, reads, direct, damaged)
    assert rejected > 0.9 * len(damaged) and same > 0
    # a base of a middle unitig changed to another base, or made lowercase
    at = data.index(b"\n", data.index(b">u1 ")) + 10
    base = data[at:at + 1]
    other = data[:at] + (b"A" if base != b"A" else b"C") + data[at + 1:]
    code, err, _ = _map_with_index(tmp_path, capsys, unitigs, reads, other)
    assert code == 2 and "was not built from" in err
    lower = data[:at] + base.lower() + data[at + 1:]
    assert _map_with_index(tmp_path, capsys, unitigs, reads, lower)[2] == direct


class _FullStdout(io.StringIO):
    """A standard output on a full disk: its `failing` method, write or
    flush, raises ENOSPC."""

    def __init__(self, failing):
        super().__init__()
        self.failing = failing

    def _full(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(self, text):
        if self.failing == "write":
            self._full()
        return super().write(text)

    def flush(self):
        if self.failing == "flush":
            self._full()
        super().flush()


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize("command", ["build", "map", "eval"])
def test_unwritable_stdout_exits_2_and_keeps_the_outputs(
        tmp_path, capsys, monkeypatch, command, failing):
    # the summary is printed before the outputs are moved into place, so a
    # summary that cannot be written creates and replaces no output
    genome, unitigs = _built_workspace(tmp_path, capsys)
    reads = _reads_file(tmp_path, genome, n=20)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    old, new = out_dir / "old", out_dir / "new"
    old.write_bytes(b"old\n")
    argv = {
        "build": ("build", "-k", "15", "-c", "1", "-o", str(old), "--gfa", str(new),
                  str(tmp_path / "ref.fa")),
        "map": ("map", "-g", str(unitigs), "-o", str(old), "--index-out", str(new),
                str(reads)),
        "eval": ("eval", "-k", "15", "--random-ref", "2000", "--rates", "0",
                 "--reads-per-rate", "20", "--read-length", "60", "-o", str(old),
                 "--truth-out", str(new)),
    }[command]
    monkeypatch.setattr("sys.stdout", _FullStdout(failing))
    code = main(list(argv))
    monkeypatch.undo()
    assert code == 2
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert os.listdir(out_dir) == ["old"]
    assert old.read_bytes() == b"old\n"
