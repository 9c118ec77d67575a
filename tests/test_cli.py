import gzip
import hashlib
import os
import random
import struct
import threading

import pytest

from cdbgmap.cli import TSV_COLUMNS, main
from cdbgmap.fastx import write_fasta
from cdbgmap.graph import read_unitigs_fasta
from cdbgmap.index import load_indexes

from conftest import damaged_gzip, naive_canonical, naive_kmers, random_genome


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
    """End offsets of the header and the three tables of a saved index."""
    anchor, interior = load_indexes(idx_path)
    header = 8 + 4 + 4 + 32  # magic, version, k, fingerprint
    anchor_end = header + 8 + sum(
        16 + 4 + 5 * (len(s) + len(e)) for s, e in anchor._table.values()
    )
    interior_end = anchor_end + 8 + sum(16 + 4 + 8 * len(o) for o in interior._table.values())
    lengths_end = interior_end + 8 + 8 * len(interior._unitig_lengths)
    assert lengths_end == idx_path.stat().st_size
    return header, anchor_end, interior_end, lengths_end


def test_map_truncated_index_exits_2(tmp_path, capsys):
    genome, unitigs = _built_workspace(tmp_path, capsys)
    reads = _reads_file(tmp_path, genome, n=5)
    idx = tmp_path / "graph.idx"
    assert run(
        capsys, "map", "-k", "15", "-g", str(unitigs), "-o",
        str(tmp_path / "a.tsv"), "--index-out", str(idx), str(reads),
    )[0] == 0
    data = idx.read_bytes()
    header, anchor_end, interior_end, lengths_end = _index_sections(idx)
    cuts = {
        "header": 12,
        "anchor table": (header + anchor_end) // 2,
        "interior table": (anchor_end + interior_end) // 2,
        "lengths table": lengths_end - 4,
    }
    for where, cut in cuts.items():
        bad = tmp_path / "cut.idx"
        bad.write_bytes(data[:cut])
        code, _, err = run(
            capsys, "map", "-k", "15", "-g", str(unitigs), "-o",
            str(tmp_path / "b.tsv"), "--index-in", str(bad), str(reads),
        )
        assert code == 2, where
        assert err.startswith("error:") and "Traceback" not in err, where
    bad.write_bytes(data + b"\x00")
    code, _, err = run(
        capsys, "map", "-k", "15", "-g", str(unitigs), "-o",
        str(tmp_path / "b.tsv"), "--index-in", str(bad), str(reads),
    )
    assert code == 2 and "after the index tables" in err


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


def _canonical_anchor_bytes(anchor):
    """The anchor table as formats 1 and 2 wrote it: keyed by canonical
    (k-1)-mer, each key holding the oriented unitigs that start and end
    with that word as written.  The written keys are closed under reverse
    complement, so those are the canonical ones."""
    from cdbgmap.sequences import rc_code

    k1 = anchor.k - 1
    canonical = sorted(key for key in anchor._table if key <= rc_code(key, k1))
    out = [struct.pack("<Q", len(canonical))]
    for key in canonical:
        starts, ends = anchor._table[key]
        out.append(key.to_bytes(16, "big") + struct.pack("<HH", len(starts), len(ends)))
        out.extend(struct.pack("<IB", uid, o == "-") for uid, o in starts + ends)
    return b"".join(out)


def _lengths_bytes(interior):
    lengths = interior._unitig_lengths
    out = [struct.pack("<Q", len(lengths))]
    out.extend(struct.pack("<II", uid, lengths[uid]) for uid in sorted(lengths))
    return b"".join(out)


def _v1_index_bytes(idx_path):
    """The same indexes in format version 1: a 16-byte header of version, k,
    min_length 0 and stride 1, canonical anchor keys, and interior keys
    canonical with a written-is-canonical byte on each occurrence."""
    from cdbgmap.sequences import rc_code

    anchor, interior = load_indexes(idx_path)
    k1 = anchor.k - 1
    canonical = {}
    for fwd, occs in interior._table.items():
        rc = rc_code(fwd, k1)
        for uid, off in occs:
            canonical.setdefault(min(fwd, rc), []).append((uid, off, int(fwd <= rc)))
    out = [b"CDBGIDX1", struct.pack("<IIII", 1, anchor.k, 0, 1), _canonical_anchor_bytes(anchor)]
    out.append(struct.pack("<Q", len(canonical)))
    for key in sorted(canonical):
        occs = sorted(canonical[key])
        out.append(key.to_bytes(16, "big") + struct.pack("<I", len(occs)))
        out.extend(struct.pack("<IIB", *occ) for occ in occs)
    out.append(_lengths_bytes(interior))
    return b"".join(out)


def _v2_index_bytes(idx_path):
    """The same indexes in format version 2: a header of version, k,
    min_length 0, stride 1 and the graph fingerprint, canonical anchor
    keys, and interior keys written as in version 3."""
    anchor, interior = load_indexes(idx_path)
    header = struct.pack("<IIII32s", 2, anchor.k, 0, 1, interior.fingerprint)
    out = [b"CDBGIDX1", header, _canonical_anchor_bytes(anchor)]
    out.append(struct.pack("<Q", len(interior._table)))
    for key in sorted(interior._table):
        occs = interior._table[key]
        out.append(key.to_bytes(16, "big") + struct.pack("<I", len(occs)))
        out.extend(struct.pack("<II", *occ) for occ in occs)
    out.append(_lengths_bytes(interior))
    return b"".join(out)


def test_map_v1_or_wrong_fingerprint_index_exits_2(tmp_path, capsys):
    genome, unitigs = _built_workspace(tmp_path, capsys)
    reads = _reads_file(tmp_path, genome, n=5)
    idx = tmp_path / "graph.idx"
    assert run(
        capsys, "map", "-k", "15", "-g", str(unitigs), "-o",
        str(tmp_path / "a.tsv"), "--index-out", str(idx), str(reads),
    )[0] == 0
    data = idx.read_bytes()
    header = _index_sections(idx)[0]
    fingerprint = slice(header - 32, header)
    assert data[fingerprint] == hashlib.sha256(
        "".join(u.sequence + "\n" for u in read_unitigs_fasta(unitigs, 15).unitigs).encode()
    ).digest()
    wrong = bytearray(data)
    wrong[fingerprint.start] ^= 1
    rebuild = "this cdbgmap reads version 3: rebuild it with `cdbgmap map --index-out`"
    cases = {
        "v1": (_v1_index_bytes(idx), "format version 1, " + rebuild),
        "v2": (_v2_index_bytes(idx), "format version 2, " + rebuild),
        "fingerprint": (bytes(wrong), "was not built from"),
    }
    for name, (content, message) in cases.items():
        bad = tmp_path / f"{name}.idx"
        bad.write_bytes(content)
        out = tmp_path / f"{name}.tsv"
        code, _, err = run(
            capsys, "map", "-k", "15", "-g", str(unitigs), "-o", str(out),
            "--index-in", str(bad), str(reads),
        )
        assert code == 2, name
        assert err.startswith("error:") and message in err, (name, err)
        assert "Traceback" not in err and not out.exists(), name
