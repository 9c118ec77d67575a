"""Child-process runs of the `cdbgmap` CLI and the checks on what they write.

Every child is started from the checkout's own `src/`, waited for with
`os.wait4`, and its peak RSS is taken from that child's own rusage.  The
benchmark's own RUSAGE_CHILDREN would keep the maximum over all earlier children,
so the map phase would inherit the setup phase's peak.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from checker import Replayer, check_tsv, read_fastx, read_unitigs, self_test, self_test_ok
from workloads import K, Spec

MAX_MISMATCHES = 2  # the CLI's default budget, which every run uses
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Child:
    returncode: int
    seconds: float
    peak_rss_mb: float
    output: str


@dataclass
class Workdir:
    """One workload's generated inputs and the outputs written beside them."""

    root: str  # checkout root, whose src/ holds the package
    path: str
    spec: Spec

    def file(self, name: str) -> str:
        return os.path.join(self.path, name)


def run_child(wd: Workdir, argv: list, log: str) -> Child:
    env = dict(os.environ, PYTHONPATH=os.path.join(wd.root, "src"))
    started = time.perf_counter()
    with open(wd.file(log), "w", encoding="utf-8") as out:
        proc = subprocess.Popen(
            argv, cwd=wd.path, env=env, stdout=out, stderr=subprocess.STDOUT
        )
        _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(wd.file(log), encoding="utf-8") as fh:
        output = fh.read()
    return Child(proc.returncode, elapsed, usage.ru_maxrss / 1024.0, output)


def cli(wd: Workdir, args: list, log: str) -> Child:
    return run_child(wd, [sys.executable, "-m", "cdbgmap.cli"] + args, log)


def build_args(spec: Spec, out: str) -> list:
    return ["build", "-k", str(K), "-c", str(spec.min_coverage), "-o", out,
            spec.build_input]


def index_args(graph: str, index: str, out: str) -> list:
    return ["map", "-k", str(K), "-g", graph, "-o", out, "--index-out", index, "one.fq"]


def map_args(graph: str, index: str, out: str, threads: int) -> list:
    return ["map", "-k", str(K), "-g", graph, "-o", out, "--index-in", index,
            "--threads", str(threads), "map.fq"]


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_text(path: str) -> str:
    with open(path, encoding="ascii") as fh:
        return fh.read()


@dataclass
class Setup:
    seconds: float
    peak_rss_mb: float
    ok: bool
    digests: tuple


def setup(wd: Workdir, tag: str) -> Setup:
    """`cdbgmap build`, then the index build and save, as a user runs them."""
    graph, index = f"unitigs{tag}.fa", f"idx{tag}"
    build = cli(wd, build_args(wd.spec, graph), f"build{tag}.log")
    indexed = cli(wd, index_args(graph, index, f"one{tag}.tsv"), f"index{tag}.log")
    ok = build.returncode == 0 and indexed.returncode == 0
    digests = (sha256(wd.file(graph)), sha256(wd.file(index))) if ok else ()
    return Setup(build.seconds + indexed.seconds,
                 max(build.peak_rss_mb, indexed.peak_rss_mb), ok, digests)


def differing_rows(text_a: str, text_b: str) -> set:
    """Read ids on the rows where two TSVs differ (all ids if lengths differ)."""
    a, b = text_a.split("\n"), text_b.split("\n")
    if len(a) != len(b):
        return {line.split("\t")[0] for line in a[1:] + b[1:] if line}
    return {x.split("\t")[0] for x, y in zip(a, b) if x != y and x} | {
        y.split("\t")[0] for x, y in zip(a, b) if x != y and y
    }


def read_truth(path: str) -> dict:
    truth = {}
    with open(path, encoding="ascii") as fh:
        next(fh)
        for line in fh:
            rid, _, _, _, errs = line.rstrip("\n").split("\t")
            truth[rid] = set() if errs == "." else {int(p) for p in errs.split(",")}
    return truth


def read_audit(path: str) -> list:
    rows = []
    with open(path, encoding="ascii") as fh:
        next(fh)
        for line in fh:
            rid, g_map, g_cost, e_map, e_cost, trunc = line.rstrip("\n").split("\t")
            rows.append((rid, g_map == "1", int(g_cost) if g_map == "1" else None,
                         e_map == "1", int(e_cost) if e_map == "1" else None,
                         trunc == "1"))
    return rows


@dataclass
class Quality:
    recall: float
    d0_pct: float


def quality(rows: dict, truth: dict, read_length: dict) -> Quality:
    """Recall over all reads; d0 is the share of mapped reads whose every
    reported mismatch falls on a position where an error was injected."""
    mapped = d0 = 0
    for rid, fields in rows.items():
        if fields[1] != "mapped":
            continue
        mapped += 1
        positions = [] if fields[6] == "." else [int(p) for p in fields[6].split(",")]
        if fields[2] == "-":
            positions = [read_length[rid] - 1 - p for p in positions]
        if set(positions) <= truth[rid]:
            d0 += 1
    return Quality(mapped / len(truth), 100.0 * d0 / mapped if mapped else 0.0)


@dataclass
class AuditSummary:
    strictly_better: int
    exhaustive_only: int
    truncated: int
    violations: set


def audit_summary(rows: list) -> AuditSummary:
    """Counts as `cdbgmap eval` makes them; a violation is an exhaustive
    result costlier than greedy, or greedy mapping a read exhaustive misses."""
    better = only = truncated = 0
    violations = set()
    for rid, g_map, g_cost, e_map, e_cost, trunc in rows:
        truncated += trunc
        if e_map and not g_map:
            only += 1
        elif e_map and g_map:
            if e_cost < g_cost:
                better += 1
            elif e_cost > g_cost:
                violations.add(rid)
        elif g_map:
            violations.add(rid)
    return AuditSummary(better, only, truncated, violations)


@dataclass
class Checked:
    """Failed read ids plus what the quality metrics need from one TSV."""

    failed: set = field(default_factory=set)
    rows: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


class Verifier:
    """Checks TSVs of one workload against its reads and unitig FASTA."""

    def __init__(self, wd: Workdir, graph: str):
        self.wd = wd
        self.reads = read_fastx(wd.file("map.fq"))
        self.read_ids = [rid for rid, _ in self.reads]
        self.replayer = Replayer(read_unitigs(wd.file(graph)), K, MAX_MISMATCHES)

    def check(self, tsv: str, returncode: int) -> Checked:
        if returncode != 0:
            return Checked(set(self.read_ids), {}, [f"{tsv}: exit {returncode}"])
        text = read_text(self.wd.file(tsv))
        failed, rows = check_tsv(text, self.reads, self.replayer)
        return Checked(failed, rows, [f"{tsv}: sha256 {sha256(self.wd.file(tsv))}"])

    def self_test(self, tsv: str, reads: int = 1000) -> dict:
        """The checker's own test, on the head of a TSV it has passed."""
        lines = read_text(self.wd.file(tsv)).split("\n")[: reads + 1]
        return self_test("\n".join(lines) + "\n", self.reads[:reads], self.replayer)


def audit_child(wd: Workdir, graph: str, index: str, out: str):
    """Read count and pass time of one audit child, or None when it failed."""
    argv = [sys.executable, os.path.join(BENCH_DIR, "audit.py"), graph, index,
            "audit.fq", str(K), out]
    child = run_child(wd, argv, "audit.log")
    if child.returncode != 0:
        return None
    return json.loads(child.output.strip().splitlines()[-1])


def timed_run(wd: Workdir, seconds: float, setup_reps: int, min_rounds: int,
              log) -> tuple[dict, int, int, bool]:
    """Untraced run: end-to-end metrics, failed and attempted read counts,
    and whether the checker's self-test held.

    The window is spent in rounds of one set-up (while fewer than
    `setup_reps` were made), one map pass and one audit pass, so that every
    metric samples the whole window rather than one stretch of it.  A
    round starts only when the last round's length still fits in the
    window; audit passes fill what is left of it.  Set-up time and peak
    RSS are medians over their repetitions; a throughput is the reads of
    all its passes over their summed time, which on a host whose speed
    drifts between runs varied less from run to run than the median pass."""
    spec = wd.spec
    window_end = time.perf_counter() + seconds
    setups, maps, audit_passes = [], [], []
    audit_reads = 0
    failed: set = set()
    audit_failed = False
    first_text = None

    def audit_once() -> float:
        nonlocal audit_reads, audit_failed
        started = time.perf_counter()
        timing = audit_child(wd, "unitigs0.fa", "idx0", "audit.tsv")
        if timing is None:
            audit_failed = True
        else:
            audit_reads = timing["reads"]
            audit_passes.append(timing["seconds"])
        return time.perf_counter() - started

    last_setup = last_round = last_audit = 0.0
    while len(maps) < min_rounds or time.perf_counter() + last_round + (
        last_setup if len(setups) < setup_reps else 0.0
    ) <= window_end:
        if len(setups) < setup_reps:
            setups.append(setup(wd, str(len(setups))))
            last_setup = setups[-1].seconds
        round_started = time.perf_counter()
        tsv = f"map{len(maps)}.tsv"
        child = cli(wd, map_args("unitigs0.fa", "idx0", tsv, spec.threads), f"{tsv}.log")
        maps.append(child)
        if child.returncode == 0 and first_text is None:
            first_text = read_text(wd.file(tsv))
        elif child.returncode == 0:
            failed |= differing_rows(first_text, read_text(wd.file(tsv)))
            os.remove(wd.file(tsv))
        last_audit = audit_once()
        last_round = time.perf_counter() - round_started
    while len(setups) < setup_reps:
        setups.append(setup(wd, str(len(setups))))
    while not audit_failed and time.perf_counter() + last_audit <= window_end:
        last_audit = audit_once()

    verifier = Verifier(wd, "unitigs0.fa")
    all_ids = set(verifier.read_ids)
    if not all(s.ok for s in setups) or len({s.digests for s in setups}) != 1:
        log("setup failed or gave different outputs across repetitions")
        failed |= all_ids
    if any(c.returncode != 0 for c in maps):
        failed |= all_ids
    first = verifier.check("map0.tsv", maps[0].returncode)
    failed |= first.failed
    for note in first.notes:
        log(note)

    audit_ids = set(verifier.read_ids[: spec.audit_reads])
    if audit_failed:
        failed |= audit_ids
        summary = AuditSummary(0, 0, 0, set())
        audit_rate = 0.0
    else:
        summary = audit_summary(read_audit(wd.file("audit.tsv")))
        failed |= summary.violations
        audit_rate = audit_reads * len(audit_passes) / sum(audit_passes)
        log(f"audit passes={len(audit_passes)} "
            f"strictly_better={summary.strictly_better} "
            f"exhaustive_only={summary.exhaustive_only} truncated={summary.truncated}")

    if spec.threads > 1:
        # the fork-parallel TSV must be byte-identical to the 1-worker one
        one = cli(wd, map_args("unitigs0.fa", "idx0", "map_1w.tsv", 1), "map_1w.log")
        if one.returncode != 0 or first_text is None:
            failed |= all_ids
        else:
            diff = differing_rows(first_text, read_text(wd.file("map_1w.tsv")))
            log(f"{spec.threads}-worker TSV vs 1-worker: {len(diff)} rows differ")
            failed |= diff

    test_ok = False
    if first.rows:
        counts = verifier.self_test("map0.tsv")
        test_ok = self_test_ok(counts)
        log(f"checker self-test {counts} -> {'ok' if test_ok else 'FAILED'}")

    rows = first.rows
    lengths = {rid: len(seq) for rid, seq in verifier.reads}
    q = quality(rows, read_truth(wd.file("truth.tsv")), lengths)
    audit_mapped = sum(1 for rid in audit_ids if rid in rows and rows[rid][1] == "mapped")
    subopt = ((summary.strictly_better + summary.exhaustive_only) / audit_mapped
              if audit_mapped else 0.0)
    n = len(verifier.read_ids)
    metrics = {
        "setup_s": (statistics.median([s.seconds for s in setups]), "s"),
        "setup_peak_rss_mb": (statistics.median([s.peak_rss_mb for s in setups]), "MB"),
        "map_reads_per_s": (n * len(maps) / sum(c.seconds for c in maps), "reads/s"),
        "map_peak_rss_mb": (statistics.median([c.peak_rss_mb for c in maps]), "MB"),
        "audit_reads_per_s": (audit_rate, "reads/s"),
        "recall": (q.recall, "fraction"),
        "d0_pct": (q.d0_pct, "%"),
        "greedy_optimal_frac": (1.0 - subopt, "fraction"),
    }
    log("setup seconds: " + " ".join(f"{s.seconds:.3f}" for s in setups))
    log("map pass seconds: " + " ".join(f"{c.seconds:.3f}" for c in maps))
    log("audit pass seconds: " + " ".join(f"{t:.4f}" for t in audit_passes))
    log(f"failed_frac={len(failed) / n:.6f} (fraction of reads)")
    return metrics, len(failed), n, test_ok
