"""Seeded input generator for the benchmark workloads.

Each workload is written from a seed alone: the same seed gives the same
files byte for byte.  Besides the inputs the program reads, every workload
gets a truth file (read id, source, origin, strand, injected error
positions) that the output checks and the quality metrics are computed
from.  Nothing here imports the package under test, so a change to its
simulator cannot change a workload.

Usage: python3 bench/workloads.py WORKLOAD SEED OUTDIR
"""

from __future__ import annotations

import gzip
import os
import random
import sys
from dataclasses import dataclass

K = 31
READ_LENGTH = 100

_COMPLEMENT = str.maketrans("ACGT", "TGCA")
_OTHER = {"A": "CGT", "C": "AGT", "G": "ACT", "T": "ACG"}


def revcomp(seq: str) -> str:
    return seq.translate(_COMPLEMENT)[::-1]


def random_dna(rng: random.Random, length: int) -> str:
    return "".join(rng.choices("ACGT", k=length))


def mutate(rng: random.Random, seq: str, rate: float) -> tuple[str, list[int]]:
    """Substitute each base with probability `rate`; returns the new sequence
    and the substituted positions."""
    chars = list(seq)
    positions = []
    for i, base in enumerate(chars):
        if rng.random() < rate:
            chars[i] = rng.choice(_OTHER[base])
            positions.append(i)
    return "".join(chars), positions


@dataclass(frozen=True)
class Spec:
    """What a workload builds from and how it maps.  Why each workload was
    chosen is recorded in BENCHMARK.json."""

    build_input: str  # file name of the build input, inside the workload dir
    min_coverage: int
    threads: int
    map_reads: int
    # the audit sample is the head of the map reads; each audit pass runs in
    # a fresh process, so the sample is sized for a pass of a second or more
    audit_reads: int


SPECS = {
    "uniq-ref": Spec("ref.fa", 1, 1, 30_000, 10_000),
    "repeat-ref": Spec("ref.fa", 1, 1, 10_000, 1_000),
    "reads-build": Spec("reads.fq.gz", 3, 2, 10_000, 6_000),
}


def _sample_reads(rng, sources, count, error_rates):
    """Reads of READ_LENGTH from random sources, origins and strands.

    `error_rates` is cycled over the reads, so a list of two rates gives
    alternating reads at each rate.  Returns (records, truth rows).
    """
    records = []
    truth = []
    for i in range(count):
        src = rng.randrange(len(sources))
        ref = sources[src]
        origin = rng.randint(0, len(ref) - READ_LENGTH)
        strand = "+" if rng.random() < 0.5 else "-"
        seq = ref[origin : origin + READ_LENGTH]
        if strand == "-":
            seq = revcomp(seq)
        rate = error_rates[i % len(error_rates)]
        errors: list[int] = []
        if rate > 0:
            seq, errors = mutate(rng, seq, rate)
        rid = f"r{i}"
        records.append((rid, seq))
        truth.append((rid, src, origin, strand, errors))
    return records, truth


def _write_fasta(path, records):
    with open(path, "w", encoding="ascii") as out:
        for name, seq in records:
            out.write(f">{name}\n")
            for i in range(0, len(seq), 80):
                out.write(seq[i : i + 80] + "\n")


def _fastq_text(records) -> str:
    return "".join(f"@{n}\n{s}\n+\n{'I' * len(s)}\n" for n, s in records)


def _write_truth(path, truth):
    with open(path, "w", encoding="ascii") as out:
        out.write("read_id\tsource\torigin\tstrand\terror_positions\n")
        for rid, src, origin, strand, errors in truth:
            errs = ",".join(map(str, errors)) or "."
            out.write(f"{rid}\t{src}\t{origin}\t{strand}\t{errs}\n")


def _uniq_ref(rng):
    ref = random_dna(rng, 200_000)
    records, truth = _sample_reads(rng, [ref], 30_000, (0.0, 0.01))
    return [("ref", ref)], records, truth


def _repeat_ref(rng):
    backbone = random_dna(rng, 60_000)
    families = [random_dna(rng, 1_000) for _ in range(3)]
    copies = []
    for family in families:
        for _ in range(40):
            copy, _ = mutate(rng, family, 0.02)
            copies.append(copy if rng.random() < 0.5 else revcomp(copy))
    rng.shuffle(copies)
    cuts = sorted(rng.randrange(len(backbone)) for _ in copies)
    pieces = []
    last = 0
    for cut, copy in zip(cuts, copies):
        pieces.append(backbone[last:cut])
        pieces.append(copy)
        last = cut
    pieces.append(backbone[last:])
    ref = "".join(pieces)
    records, truth = _sample_reads(rng, [ref], 10_000, (0.0, 0.01))
    return [("ref", ref)], records, truth


def _reads_build(rng):
    hap1 = random_dna(rng, 100_000)
    hap2, _ = mutate(rng, hap1, 0.002)
    records, truth = _sample_reads(rng, [hap1, hap2], 30_000, (0.005,))
    return None, records, truth


def generate(name: str, seed: int, outdir: str) -> Spec:
    """Write one workload's inputs into `outdir`:

    - the build input (`ref.fa`, or `reads.fq.gz` for reads-build);
    - `map.fq`, the reads to map, and `truth.tsv`, their truth;
    - `one.fq`, a single read for the index-building setup step;
    - `audit.fq`, the first `audit_reads` reads of `map.fq`.
    """
    spec = SPECS[name]
    rng = random.Random(f"{name}:{seed}")
    refs, records, truth = {
        "uniq-ref": _uniq_ref,
        "repeat-ref": _repeat_ref,
        "reads-build": _reads_build,
    }[name](rng)
    os.makedirs(outdir, exist_ok=True)
    if refs is not None:
        _write_fasta(os.path.join(outdir, spec.build_input), refs)
    else:
        raw = _fastq_text(records).encode("ascii")
        with open(os.path.join(outdir, spec.build_input), "wb") as fh:
            with gzip.GzipFile(fileobj=fh, mode="wb", mtime=0) as gz:
                gz.write(raw)
    records, truth = records[: spec.map_reads], truth[: spec.map_reads]
    with open(os.path.join(outdir, "map.fq"), "w", encoding="ascii") as out:
        out.write(_fastq_text(records))
    with open(os.path.join(outdir, "audit.fq"), "w", encoding="ascii") as out:
        out.write(_fastq_text(records[: spec.audit_reads]))
    with open(os.path.join(outdir, "one.fq"), "w", encoding="ascii") as out:
        out.write(_fastq_text(records[:1]))
    _write_truth(os.path.join(outdir, "truth.tsv"), truth)
    return spec


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in SPECS:
        sys.exit(f"usage: {sys.argv[0]} {{{','.join(SPECS)}}} SEED OUTDIR")
    generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])
