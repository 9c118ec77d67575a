"""Command line frontend: build, map and eval subcommands.

Build constructs the unitig graph from reads or a reference, map places
reads on it, eval runs the simulated-read accuracy harness.  Exit codes:
0 success, 1 quality gates unmet in eval gating mode, 2 usage or IO error.
On exit 2 no output file is created or replaced.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import time
from itertools import chain, count

from .census import count_kmers, solid_set
from .evaluation import run_accuracy_sweep
from .fastx import read_sequences
from .graph import compact, read_unitigs_fasta, write_gfa, write_unitigs_fasta
from .index import (
    approximate_bytes,
    build_anchor_index,
    build_interior_index,
    load_indexes,
    save_indexes,
)
from .mapper import BRANCHING_PATH, SINGLE_UNITIG, UNMAPPED
from .mapper import MappingParams, MappingResult, map_stream
from .mapper import map_reads  # noqa: F401  (bench/traced.py wraps cli.map_reads)
from .sequences import MAX_K

TSV_COLUMNS = (
    "read_id",
    "status",
    "strand",
    "path",
    "start_offset",
    "mismatches",
    "mismatch_positions",
    "regime",
    "reason",
)


def _add_common(parser):
    parser.add_argument("-k", type=int, default=31, help="k-mer size (default 31)")


def _add_mapping_params(parser):
    parser.add_argument(
        "-t",
        "--max-mismatches",
        type=int,
        default=2,
        dest="max_mismatches",
        help="mismatch budget per read (default 2)",
    )
    parser.add_argument(
        "-n",
        "--max-anchor-attempts",
        type=int,
        default=2,
        dest="max_anchor_attempts",
        help="anchor attempts per read end (default 2)",
    )
    parser.add_argument(
        "--strand",
        choices=("both", "forward"),
        default="both",
        help="map both strands or the forward one only",
    )
    parser.add_argument("--threads", type=int, default=1)


def _params(args) -> MappingParams:
    return MappingParams(
        max_mismatches=args.max_mismatches,
        max_anchor_attempts=args.max_anchor_attempts,
        strand_mode="both" if args.strand == "both" else "forward_only",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdbgmap",
        description="Compacted de Bruijn graph construction and read mapping "
        "on branching unitig paths",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="count k-mers, filter, compact to unitigs")
    _add_common(p_build)
    p_build.add_argument(
        "-c",
        "--min-coverage",
        type=int,
        default=3,
        dest="min_coverage",
        help="k-mer coverage threshold (default 3; use 1 for a reference)",
    )
    p_build.add_argument("-o", "--output", required=True, help="unitigs FASTA path")
    p_build.add_argument("--gfa", help="also write the graph as GFA1")
    p_build.add_argument("inputs", nargs="+", help="FASTA/FASTQ files, plain or gzip")

    p_map = sub.add_parser("map", help="map reads onto the unitig graph")
    p_map.add_argument("-k", type=int, help="k-mer size (default: the k the graph records)")
    _add_mapping_params(p_map)
    p_map.add_argument("-g", "--graph", required=True, help="unitigs FASTA from build")
    p_map.add_argument("-o", "--output", required=True, help="mapping TSV path")
    p_map.add_argument("--index-in", help="load prebuilt indexes instead of building")
    p_map.add_argument("--index-out", help="save the indexes for later runs")
    p_map.add_argument("reads", nargs="+", help="read files to map")

    p_eval = sub.add_parser("eval", help="simulated-read accuracy harness")
    _add_common(p_eval)
    _add_mapping_params(p_eval)
    ref = p_eval.add_mutually_exclusive_group(required=True)
    ref.add_argument("--reference", help="reference FASTA (first record used)")
    ref.add_argument(
        "--random-ref",
        type=int,
        metavar="LENGTH",
        help="use a seeded uniform-random reference of this length",
    )
    p_eval.add_argument(
        "--rates",
        default="0,0.001,0.002,0.005,0.01,0.02",
        help="comma-separated substitution error rates",
    )
    p_eval.add_argument("--reads-per-rate", type=int, default=10000)
    p_eval.add_argument("--read-length", type=int, default=100)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("-o", "--output", required=True, help="report CSV path")
    p_eval.add_argument("--truth-out", help="write the simulation truth as TSV")
    p_eval.add_argument(
        "--no-exhaustive",
        action="store_true",
        help="skip the greedy-vs-exhaustive comparison",
    )
    p_eval.add_argument(
        "--min-recall",
        type=float,
        help="gate: fail (exit 1) if recall drops below this on any rate",
    )
    p_eval.add_argument(
        "--min-d0",
        type=float,
        help="gate: fail (exit 1) if the distance-0 share drops below this",
    )
    return parser


class SystemExit2(Exception):
    """Usage or IO error; main() turns it into exit code 2."""


def _check_k(k: int) -> None:
    if not 2 <= k <= MAX_K:
        raise SystemExit2(f"k must be in [2, {MAX_K}], got {k}")


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise SystemExit2("--threads must be >= 1")


@contextlib.contextmanager
def _output_on_success(*paths: str | None, inputs=()):
    """Temporary paths to write the outputs at `paths` to (None for an output
    not asked for), which appear at `paths` only if the block succeeds.  Each
    is created beside its output at once, so an unwritable place fails
    before any work, and all are moved over their outputs at the end or
    removed on any error.  A path that exists and is not a regular file (a
    FIFO, /dev/stdout) is yielded as is, since it cannot be replaced.  An
    output that resolves to the same file as another output or as one of
    the `inputs` (None for an input not given) is rejected before anything
    is created, since it would replace that file."""
    read_from = {os.path.realpath(path) for path in inputs if path is not None}
    reals = []  # the file each output replaces, None for one written in place
    for path in paths:
        in_place = path is None or os.path.exists(path) and not os.path.isfile(path)
        real = None if in_place else os.path.realpath(path)
        if real is not None and real in reals:
            raise SystemExit2(f"two outputs name the same file: {path}")
        if real in read_from:
            raise SystemExit2(f"an output names an input file: {path}")
        reals.append(real)
    temps, moves = [], []
    try:
        for path, real in zip(paths, reals):
            if real is None:
                temps.append(path)
                continue
            tmp = f"{real}.{os.getpid()}.{len(moves)}.tmp"
            try:
                open(tmp, "w").close()
            except OSError as exc:  # name the path asked for, not the temporary one
                raise OSError(exc.errno, exc.strerror, path) from None
            moves.append((tmp, real))
            temps.append(tmp)
        yield temps
        for tmp, real in moves:
            os.replace(tmp, real)
    except BaseException:
        for tmp, _ in moves:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise


def cmd_build(args) -> int:
    _check_k(args.k)
    if args.min_coverage < 1:
        raise SystemExit2("coverage threshold must be >= 1")
    with _output_on_success(args.output, args.gfa, inputs=args.inputs) as (output, gfa):
        # zip draws from `tally` only after a read, so it ends at the read count
        tally = count()
        reads = chain.from_iterable(map(read_sequences, args.inputs))
        texts = (read.sequence for read, _ in zip(reads, tally))
        with count_kmers(texts, args.k) as census:  # closes its temporary files on any exit
            n_reads = next(tally)
            if not n_reads:
                raise SystemExit2("no sequences")
            solid = solid_set(census, args.min_coverage)
        if not len(solid):
            raise SystemExit2("no solid k-mers at this coverage threshold")
        graph = compact(solid)
        write_unitigs_fasta(output, graph)
        if gfa:
            write_gfa(gfa, graph, build_anchor_index(graph))
        print(f"reads={n_reads}")
        print(f"distinct_kmers={len(census.counts)}")
        print(f"solid_kmers={len(solid)}")
        print(f"unitig_count={len(graph)}")
        print(f"mean_len={graph.mean_length():.2f}")
        sys.stdout.flush()  # an unwritable stdout fails before the outputs are moved
    return 0


def _result_to_tsv(result: MappingResult) -> str:
    if result.mapped:
        path = ",".join(f"u{uid}{orient}" for uid, orient in result.path)
        positions = ",".join(map(str, result.mismatch_positions)) or "."
        fields = (
            result.read_id,
            "mapped",
            result.strand,
            path,
            str(result.start_offset),
            str(result.mismatches),
            positions,
            result.regime,
            ".",
        )
    else:
        fields = (result.read_id, "unmapped", ".", ".", ".", ".", ".", UNMAPPED,
                  result.reason or ".")
    return "\t".join(fields)


def cmd_map(args) -> int:
    _check_threads(args.threads)
    inputs = [args.graph, args.index_in, *args.reads]
    with _output_on_success(args.output, args.index_out, inputs=inputs) as (output, index_out):
        graph = read_unitigs_fasta(args.graph, k=args.k)
        _check_k(graph.k)
        if args.index_in:
            anchor, interior = load_indexes(args.index_in)
            if interior.graph != graph:
                raise SystemExit2(f"index {args.index_in} was not built from {args.graph}")
            graph = interior.graph  # equal to the -g graph: keep one of the two
        else:
            anchor = build_anchor_index(graph)
            interior = build_interior_index(graph)
        if index_out:
            save_indexes(index_out, interior)
        reads = chain.from_iterable(map(read_sequences, args.reads))
        regimes = {SINGLE_UNITIG: 0, BRANCHING_PATH: 0, UNMAPPED: 0}
        started = time.perf_counter()
        with open(output, "w", encoding="ascii") as out:
            out.write("\t".join(TSV_COLUMNS) + "\n")
            for rows in map_stream(reads, graph, anchor, interior, _params(args),
                                   threads=args.threads, render=_result_to_tsv):
                for row in rows:  # the regime is the next-to-last column
                    regimes[row.rsplit("\t", 2)[1]] += 1
                out.write("\n".join(rows))
                out.write("\n")
        elapsed = time.perf_counter() - started
        n_reads = sum(regimes.values())
        total = n_reads or 1
        print(f"reads={n_reads}")
        for regime, n in regimes.items():
            print(f"pct_{regime}={100.0 * n / total:.2f}")
        print(f"reads_per_sec={n_reads / elapsed if elapsed else 0.0:.1f}")
        for name, idx in (("anchor", anchor), ("interior", interior)):
            keys = len(idx) or 1
            print(f"{name}_index_keys={len(idx)}")
            print(f"{name}_index_bytes_per_key={approximate_bytes(idx) / keys:.1f}")
        sys.stdout.flush()  # an unwritable stdout fails before the outputs are moved
    return 0


def cmd_eval(args) -> int:
    _check_k(args.k)
    _check_threads(args.threads)
    for flag, gate in (("--min-recall", args.min_recall), ("--min-d0", args.min_d0)):
        # a NaN gate would pass every report: nothing compares below NaN
        if gate is not None and not math.isfinite(gate):
            raise SystemExit2(f"{flag} must be a finite number, got {gate}")
    try:
        rates = [float(r) for r in args.rates.split(",") if r.strip() != ""]
    except ValueError as exc:
        raise SystemExit2(f"bad rate list: {exc}")
    outputs = _output_on_success(args.output, args.truth_out, inputs=[args.reference])
    with outputs as (output, truth_out):
        if args.random_ref is not None:
            import random

            rng = random.Random(args.seed)
            reference = "".join(rng.choice("ACGT") for _ in range(args.random_ref))
        else:
            records = read_sequences(args.reference)
            first = next(records, None)
            if first is None:
                raise SystemExit2("no sequences")
            for _ in records:  # parsed, not held: a malformed record still fails
                pass
            reference = first.sequence
            if "N" in reference:
                reference = max(reference.split("N"), key=len)
        report = run_accuracy_sweep(
            reference,
            k=args.k,
            rates=rates,
            read_count=args.reads_per_rate,
            params=_params(args),
            read_length=args.read_length,
            seed=args.seed,
            threads=args.threads,
            compare_exhaustive=not args.no_exhaustive,
            truth_path=truth_out,
        )
        report.write_csv(output)
        for row in report.rows:
            print(
                f"rate={row.error_rate:g} recall={row.recall:.4f} d0={row.d0:.2f} "
                f"subopt_frac={row.subopt_frac:.6f} reads_per_sec={row.reads_per_sec:.0f}"
            )
        sys.stdout.flush()  # an unwritable stdout fails before the outputs are moved
    gates_ok = True
    for row in report.rows:
        if args.min_recall is not None and row.recall * 100.0 < args.min_recall:
            gates_ok = False
        if args.min_d0 is not None and row.d0 < args.min_d0:
            gates_ok = False
    if not gates_ok:
        print("quality gates unmet", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"build": cmd_build, "map": cmd_map, "eval": cmd_eval}
    try:
        return handlers[args.command](args)
    except (SystemExit2, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
