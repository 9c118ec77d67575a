"""Read simulation with substitution errors and mapping-quality evaluation.

The harness builds a coverage-1 graph from a reference, simulates reads with
known error positions from the same sequence, and scores every mapped read
by its distance to optimum: the number of mismatches at error-free read
positions.  Distance buckets are reported as percentages of the mapped
reads; recall is reported separately as mapped over simulated.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from .census import count_kmers, solid_set
from .graph import CompactedGraph, compact
from .index import AnchorIndex, InteriorIndex, build_anchor_index, build_interior_index
from .mapper import (
    MappingParams,
    MappingResult,
    map_branching,
    map_exhaustive,
    map_reads,
)
from .sequences import Read, non_acgt, reverse_complement

_OTHER_BASES = {
    "A": "CGT",
    "C": "AGT",
    "G": "ACT",
    "T": "ACG",
}


@dataclass(frozen=True)
class SimConfig:
    reference: str
    read_length: int
    read_count: int
    error_rate: float
    rng_seed: int

    def __post_init__(self):
        if not 0.0 <= self.error_rate < 1.0:
            raise ValueError(f"error_rate must be in [0, 1), got {self.error_rate}")
        if self.read_length < 1:
            raise ValueError("read_length must be >= 1")
        if self.read_count < 0:
            raise ValueError("read_count must be >= 0")
        if len(self.reference) < self.read_length:
            raise ValueError("reference shorter than read_length")
        bad = non_acgt(self.reference)
        if bad:
            raise ValueError(f"reference holds a non-ACGT symbol: {bad[0]!r}")


@dataclass(frozen=True)
class SimulatedRead:
    """A read plus its ground truth: origin, strand, injected error positions
    (in read coordinates, applied after strand selection)."""

    read: Read
    origin: int
    strand: str
    error_positions: tuple[int, ...]


def simulate_reads(cfg: SimConfig) -> Iterator[SimulatedRead]:
    """Deterministic stream of simulated reads for a fixed seed.

    Origins are uniform over [0, len(reference) - read_length]; each base is
    substituted independently with probability error_rate, to a uniformly
    random different base.
    """
    import random

    rng = random.Random(cfg.rng_seed)
    ref = cfg.reference
    span = len(ref) - cfg.read_length
    rate = cfg.error_rate
    for i in range(cfg.read_count):
        origin = rng.randint(0, span)
        strand = "+" if rng.random() < 0.5 else "-"
        seq = ref[origin : origin + cfg.read_length]
        if strand == "-":
            seq = reverse_complement(seq)
        errors: list[int] = []
        if rate > 0.0:
            chars = list(seq)
            for j in range(len(chars)):
                if rng.random() < rate:
                    chars[j] = rng.choice(_OTHER_BASES[chars[j]])
                    errors.append(j)
            seq = "".join(chars)
        yield SimulatedRead(
            read=Read(id=f"sim_{i}", sequence=seq),
            origin=origin,
            strand=strand,
            error_positions=tuple(errors),
        )


def distance_to_optimum(result: MappingResult, truth: SimulatedRead) -> int:
    """Mismatches of a mapped read at positions where no error was injected."""
    if not result.mapped:
        raise ValueError("distance to optimum requires a mapped result")
    length = len(truth.read.sequence)
    if result.strand == "+":
        positions = result.mismatch_positions
    else:
        positions = tuple(length - 1 - p for p in result.mismatch_positions)
    injected = set(truth.error_positions)
    return sum(1 for p in positions if p not in injected)


@dataclass(frozen=True)
class EvalRow:
    error_rate: float
    recall: float
    d0: float
    d1: float
    d2: float
    d3: float
    d4plus: float
    subopt_frac: float
    reads_per_sec: float


@dataclass
class EvalReport:
    rows: list[EvalRow]

    CSV_HEADER = "error_rate,recall,d0,d1,d2,d3,d4plus,subopt_frac,reads_per_sec"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.error_rate:g},{r.recall:.6f},{r.d0:.4f},{r.d1:.4f},"
                f"{r.d2:.4f},{r.d3:.4f},{r.d4plus:.4f},{r.subopt_frac:.6f},"
                f"{r.reads_per_sec:.1f}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv(), encoding="ascii")


def build_reference_graph(
    reference: str, k: int
) -> tuple[CompactedGraph, AnchorIndex, InteriorIndex]:
    """Coverage-1 graph of one long sequence, plus both mapping indexes."""
    solid = solid_set(count_kmers([reference], k), 1)
    graph = compact(solid)
    return graph, build_anchor_index(graph), build_interior_index(graph)


def compare_branching_mappers(
    sims: list[SimulatedRead],
    results: list[MappingResult],
    graph: CompactedGraph,
    anchor: AnchorIndex,
    params: MappingParams,
) -> dict:
    """Greedy-vs-exhaustive audit over one simulated batch.

    Returns counts of: reads the exhaustive mapper maps that greedy branching
    does not, reads it maps strictly better, dominance violations (which
    must always be zero), and reads whose exhaustive search was cut short by
    its budget.  A cut-short read counts only as `truncated`: its result is
    no optimum, so it is neither a win nor a violation.
    """
    exhaustive_only = strictly_better = dominance_violations = truncated = 0
    for sim in sims:
        greedy = map_branching(sim.read, graph, anchor, params)
        exact = map_exhaustive(sim.read, graph, anchor, params)
        if exact.truncated:
            truncated += 1
        elif exact.mapped and not greedy.mapped:
            exhaustive_only += 1
        elif exact.mapped and greedy.mapped:
            if exact.mismatches < greedy.mismatches:
                strictly_better += 1
            elif exact.mismatches > greedy.mismatches:
                dominance_violations += 1
        elif greedy.mapped and not exact.mapped:
            dominance_violations += 1
    mapped = sum(1 for r in results if r.mapped)
    return {
        "reads": len(sims),
        "mapped": mapped,
        "exhaustive_only": exhaustive_only,
        "strictly_better": strictly_better,
        "dominance_violations": dominance_violations,
        "truncated": truncated,
        "subopt_frac": (exhaustive_only + strictly_better) / mapped if mapped else 0.0,
    }


def evaluate_rate(
    rate: float,
    sims: list[SimulatedRead],
    graph: CompactedGraph,
    anchor: AnchorIndex,
    interior: InteriorIndex,
    params: MappingParams,
    threads: int = 1,
    compare_exhaustive: bool = True,
) -> EvalRow:
    """The report row of reads simulated at error rate `rate`: map them,
    score them against their truth and, when asked, audit them with the
    exhaustive mapper."""
    started = time.perf_counter()
    results = map_reads(
        [s.read for s in sims], graph, anchor, interior, params, threads=threads
    )
    elapsed = time.perf_counter() - started
    buckets = [0, 0, 0, 0, 0]
    mapped = 0
    for sim, result in zip(sims, results):
        if not result.mapped:
            continue
        mapped += 1
        d = distance_to_optimum(result, sim)
        buckets[min(d, 4)] += 1
    recall = mapped / len(sims) if sims else 0.0
    shares = [100.0 * b / mapped if mapped else 0.0 for b in buckets]
    subopt = 0.0
    if compare_exhaustive:
        subopt = compare_branching_mappers(sims, results, graph, anchor, params)["subopt_frac"]
    return EvalRow(
        error_rate=rate,
        recall=recall,
        d0=shares[0],
        d1=shares[1],
        d2=shares[2],
        d3=shares[3],
        d4plus=shares[4],
        subopt_frac=subopt,
        reads_per_sec=len(sims) / elapsed if elapsed > 0 else 0.0,
    )


def run_accuracy_sweep(
    reference: str,
    k: int,
    rates: list[float],
    read_count: int,
    params: MappingParams = MappingParams(),
    read_length: int = 100,
    seed: int = 0,
    threads: int = 1,
    compare_exhaustive: bool = True,
    truth_path: str | Path | None = None,
) -> EvalReport:
    """Build a coverage-1 graph from the reference, map simulated reads at
    each error rate, and aggregate recall plus the distance-to-optimum
    histogram.  An empty rate list gives an empty report."""
    if read_length < k:
        raise ValueError("read_length must be >= k")
    if rates:
        graph, anchor, interior = build_reference_graph(reference, k)
    rows = []
    truth_lines = []
    for i, rate in enumerate(rates):
        cfg = SimConfig(
            reference=reference,
            read_length=read_length,
            read_count=read_count,
            error_rate=rate,
            rng_seed=seed + i,
        )
        sims = list(simulate_reads(cfg))
        rows.append(evaluate_rate(
            rate, sims, graph, anchor, interior, params, threads, compare_exhaustive
        ))
        if truth_path is not None:
            for s in sims:
                errs = ",".join(map(str, s.error_positions))
                truth_lines.append(
                    f"{s.read.id}\t{rate:g}\t{s.origin}\t{s.strand}\t{errs}"
                )
    if truth_path is not None:
        header = "read_id\terror_rate\torigin\tstrand\terror_positions\n"
        Path(truth_path).write_text(
            header + "\n".join(truth_lines) + ("\n" if truth_lines else ""),
            encoding="ascii",
        )
    return EvalReport(rows=rows)
