"""Traced run: per-layer metrics from spans recorded around each module's calls.

The package is imported in this process and the module-level names its
layers call are replaced from outside (the package itself is unchanged).
Each wrapper records a span: name, start, end, parent span and, for the
mapper entry points, the read id.  Spans are kept in memory; a span's self
time is its duration minus its children's.  Generators are timed per
`next`, so `fastx.read_sequences` covers parsing only.

The traced commands are the same as the untraced run's: `cdbgmap build`,
the index build and save, and `cdbgmap map --index-in`, all through
`cdbgmap.cli.main`, then one pass of the greedy-vs-exhaustive audit.  The
map runs with 1 worker, because forked workers would drop their spans.
Per-layer metrics cover the build, index and map commands, except the
`mapper.map_branching`, `mapper.map_exhaustive` and `mapper.exhaustive.*`
ones, which cover the audit.  Before any wrapper is installed, the
untraced CLI runs once (its TSV must equal the traced one) and
`map_reads` is timed in process at 1 and 2 workers, which gives
`mapper.map_reads.speedup_2w` and the base for the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
from collections import Counter, defaultdict

import harness
from audit import audit_pass
from workloads import K


class Tracer:
    """In-memory spans: [name, start, end, parent index, read id, note]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._restore: list = []

    def _open(self, name, read_id=None):
        sid = len(self.spans)
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, read_id, None]
        self.spans.append(rec)
        self.stack.append(sid)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self.stack.pop()

    def call(self, name, fn, read_id=None, note=None):
        """`fn` wrapped in a span; `note(args, result)` is kept on the span."""
        def wrapper(*args, **kwargs):
            rec = self._open(name, read_id(args) if read_id else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if note is not None:
                rec[5] = note(args, result)
            return result

        return wrapper

    def iterator(self, name, fn):
        """`fn` returns an iterator; each `next` on it gets its own span."""
        def wrapper(*args, **kwargs):
            items = iter(fn(*args, **kwargs))
            while True:
                rec = self._open(name)
                try:
                    item = next(items)
                except StopIteration:
                    rec[5] = "exhausted"
                    self._close(rec)
                    return
                except BaseException:
                    self._close(rec)
                    raise
                self._close(rec)
                yield item

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def unpatch(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def phase(self, name):
        """A root span; the counters are reset at its start."""
        self.counts.clear()
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)


def install(tracer: Tracer):
    """Wrap, from outside, the names each layer calls."""
    from cdbgmap import census, cli, index, mapper
    from cdbgmap.index import AnchorIndex, InteriorIndex

    def read_id(args):
        return args[0].id

    def graph_note(args, graph):
        return (len(graph), graph.mean_length())

    def bytes_note(args, total):
        idx = args[0]
        return ("interior" if isinstance(idx, InteriorIndex) else "anchor", total, len(idx))

    t = tracer
    for name in ("count_kmers", "solid_set"):
        t.patch(cli, name, t.call(f"census.{name}", getattr(cli, name), note=lambda a, r: r))
    t.patch(cli, "compact", t.call("graph.compact", cli.compact, note=graph_note))
    t.patch(cli, "read_unitigs_fasta",
            t.call("graph.read_unitigs_fasta", cli.read_unitigs_fasta))
    t.patch(cli, "write_unitigs_fasta",
            t.call("graph.write_unitigs_fasta", cli.write_unitigs_fasta))
    for name in ("build_anchor_index", "build_interior_index", "save_indexes"):
        t.patch(cli, name, t.call(f"index.{name}", getattr(cli, name)))
    t.patch(cli, "load_indexes",
            t.call("index.load_indexes", cli.load_indexes, note=lambda a, r: r))
    t.patch(cli, "approximate_bytes",
            t.call("cli.approximate_bytes", cli.approximate_bytes, note=bytes_note))
    t.patch(cli, "read_sequences", t.iterator("fastx.read_sequences", cli.read_sequences))
    t.patch(cli, "map_reads", t.call("mapper.map_reads", cli.map_reads))
    t.patch(mapper, "map_read", t.call("mapper.map_read", mapper.map_read,
                                       read_id=read_id, note=lambda a, r: r))
    for name in ("map_branching", "map_exhaustive"):
        t.patch(mapper, name, t.call(f"mapper.{name}", getattr(mapper, name),
                                     read_id=read_id))
    for module, layer in ((census, "census"), (index, "index"), (mapper, "mapper")):
        t.patch(module, "window_codes",
                t.call(f"sequences.window_codes.{layer}", module.window_codes))
    for name in ("starts_with_codes", "ends_with_codes"):
        t.patch(AnchorIndex, name, t.counter(f"index.{name}", getattr(AnchorIndex, name)))


def _quiet_main(tracer: Tracer, argv: list) -> int:
    from cdbgmap import cli

    main = tracer.call("cli.main", cli.main)
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def _percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def traced_run(wd: harness.Workdir, log) -> tuple[dict, int, int, bool]:
    from cdbgmap import mapper
    from cdbgmap.fastx import read_sequences
    from cdbgmap.graph import read_unitigs_fasta
    from cdbgmap.index import load_indexes

    spec = wd.spec
    # untraced reference: the CLI in child processes, as the timed run uses it
    base = harness.setup(wd, "0")
    child = harness.cli(wd, harness.map_args("unitigs0.fa", "idx0", "map0.tsv", spec.threads),
                        "map0.log")
    verifier = harness.Verifier(wd, "unitigs0.fa")
    all_ids = set(verifier.read_ids)
    failed = set() if base.ok else set(all_ids)
    failed |= verifier.check("map0.tsv", child.returncode).failed

    graph = read_unitigs_fasta(wd.file("unitigs0.fa"), k=K)
    anchor, interior = load_indexes(wd.file("idx0"))
    reads = list(read_sequences(wd.file("map.fq")))
    params = mapper.MappingParams()
    wall = {}
    for threads in (1, 2):
        started = time.perf_counter()
        mapper.map_reads(reads, graph, anchor, interior, params, threads=threads)
        wall[threads] = time.perf_counter() - started

    tracer = Tracer()
    install(tracer)
    counts = {}
    audit_reads = reads[: spec.audit_reads]
    try:
        os.chdir(wd.path)
        with tracer.phase("phase.build"):
            rc_build = _quiet_main(tracer, harness.build_args(spec, "unitigs_t.fa"))
        with tracer.phase("phase.index"):
            rc_index = _quiet_main(tracer, harness.index_args("unitigs_t.fa", "idx_t", "one_t.tsv"))
        with tracer.phase("phase.map"):
            rc_map = _quiet_main(tracer, harness.map_args("unitigs_t.fa", "idx_t", "map_t.tsv", 1))
        counts = dict(tracer.counts)
        with tracer.phase("phase.audit"):
            _, pairs = audit_pass(audit_reads, graph, anchor, params)
    finally:
        os.chdir(wd.root)
        tracer.unpatch()

    # the wrappers must change no result
    if rc_build or rc_index or rc_map:
        failed |= all_ids
    else:
        diff = harness.differing_rows(harness.read_text(wd.file("map0.tsv")),
                                      harness.read_text(wd.file("map_t.tsv")))
        log(f"traced TSV vs untraced TSV: {len(diff)} rows differ")
        failed |= diff
    summary = harness.audit_summary([
        (g.read_id, g.mapped, g.mismatches, e.mapped, e.mismatches, e.truncated)
        for g, e in pairs
    ])
    failed |= summary.violations

    metrics = layer_metrics(tracer.spans, counts, summary, len(reads), wall,
                            os.path.getsize(wd.file("idx_t")),
                            os.path.getsize(wd.file("map_t.tsv")), spec.threads, log)
    return metrics, len(failed), len(all_ids), True


def layer_metrics(spans, counts, audit, n_reads, wall, index_bytes, tsv_bytes, threads, log):
    roots = []
    for rec in spans:
        roots.append(len(roots) if rec[3] < 0 else roots[rec[3]])
    phase_of = [spans[r][0] for r in roots]
    setup_phases = ("phase.build", "phase.index")
    commands = setup_phases + ("phase.map",)

    total = defaultdict(float)
    calls = Counter()
    child_time = defaultdict(float)
    records = 0
    for i, rec in enumerate(spans):
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]
        if phase_of[i] in commands or rec[0] in ("mapper.map_branching", "mapper.map_exhaustive"):
            total[rec[0]] += rec[2] - rec[1]
            calls[rec[0]] += 1
            if rec[0] == "fastx.read_sequences" and rec[5] is None:
                records += 1

    def find(name, phase):
        return [(i, rec) for i, rec in enumerate(spans) if rec[0] == name and phase_of[i] == phase]

    census = find("census.count_kmers", "phase.build")[0][1][5]
    solid = find("census.solid_set", "phase.build")[0][1][5]
    graph_note = find("graph.compact", "phase.build")[0][1][5]
    anchor, interior = find("index.load_indexes", "phase.map")[0][1][5]
    interior_bytes = next(rec[5] for _, rec in find("cli.approximate_bytes", "phase.map")
                          if rec[5][0] == "interior")
    main_id, main_rec = find("cli.main", "phase.map")[0]

    regime_s = defaultdict(float)
    regime_n = Counter()
    reasons = Counter()
    latencies = []
    window_calls_map = 0
    for i, rec in enumerate(spans):
        if phase_of[i] != "phase.map":
            continue
        if rec[0] == "mapper.map_read":
            result = rec[5]
            regime_s[result.regime] += rec[2] - rec[1]
            regime_n[result.regime] += 1
            latencies.append(rec[2] - rec[1])
            if not result.mapped:
                reasons[result.reason] += 1
        elif rec[0] == "sequences.window_codes.mapper":
            window_calls_map += 1
    latencies.sort()

    # largest setup span, by name, among the commands' direct children
    setup_children = defaultdict(float)
    for i, rec in enumerate(spans):
        parent = rec[3]
        if phase_of[i] in setup_phases and parent >= 0 and spans[parent][0] == "cli.main":
            setup_children[rec[0]] += rec[2] - rec[1]
    largest = max(setup_children, key=setup_children.get)
    traced_map = total["mapper.map_reads"]
    log(f"largest setup span: {largest} ({setup_children[largest]:.3f} s)")
    log(f"regime split (reads): {dict(regime_n)}; the untraced map uses "
        f"--threads {threads}, the traced one 1 worker")
    log(f"tracing overhead: traced map_reads {traced_map:.3f} s vs untraced "
        f"{wall[1]:.3f} s ({100 * (traced_map / wall[1] - 1):+.1f}%)")

    m = {}
    for layer in ("census", "index", "mapper"):
        name = f"sequences.window_codes.{layer}"
        m[f"{name}.s"] = (total[name], "s")
        m[f"{name}.calls"] = (calls[name], "count")
    m["mapper.window_codes.calls_per_read"] = (window_calls_map / n_reads, "calls/read")
    m["fastx.read_sequences.s"] = (total["fastx.read_sequences"], "s")
    m["fastx.records"] = (records, "count")
    m["census.count_kmers.s"] = (total["census.count_kmers"], "s")
    m["census.windows"] = (census.total(), "count")
    m["census.distinct_kmers"] = (len(census.counts), "count")
    m["census.solid_set.s"] = (total["census.solid_set"], "s")
    m["census.solid_kmers"] = (len(solid), "count")
    m["graph.compact.s"] = (total["graph.compact"], "s")
    m["graph.unitigs"] = (graph_note[0], "count")
    m["graph.mean_len"] = (graph_note[1], "bp")
    m["graph.read_unitigs_fasta.s"] = (total["graph.read_unitigs_fasta"], "s")
    for name in ("build_anchor_index", "build_interior_index", "save_indexes", "load_indexes"):
        m[f"index.{name}.s"] = (total[f"index.{name}"], "s")
    m["index.anchor_keys"] = (len(anchor), "count")
    m["index.interior_keys"] = (len(interior), "count")
    m["index.interior_bytes_per_key"] = (interior_bytes[1] / max(1, interior_bytes[2]), "B/key")
    m["index.file_bytes"] = (index_bytes, "bytes")
    for name in ("starts_with_codes", "ends_with_codes"):
        m[f"index.{name}.calls"] = (counts.get(f"index.{name}", 0), "count")
    for regime in ("single_unitig", "branching_path", "unmapped"):
        m[f"mapper.map_read.{regime}.s"] = (regime_s[regime], "s")
        m[f"mapper.map_read.{regime}.reads"] = (regime_n[regime], "count")
    m["mapper.map_read.p50_us"] = (1e6 * _percentile(latencies, 0.5), "us")
    m["mapper.map_read.p99_us"] = (1e6 * _percentile(latencies, 0.99), "us")
    for reason in ("no_anchor", "begin_not_found", "end_not_found", "cover_failed",
                   "budget_exceeded"):
        m[f"mapper.unmapped.{reason}"] = (reasons[reason], "count")
    m["mapper.map_branching.s"] = (total["mapper.map_branching"], "s")
    m["mapper.map_exhaustive.s"] = (total["mapper.map_exhaustive"], "s")
    m["mapper.exhaustive.truncated"] = (audit.truncated, "count")
    m["mapper.exhaustive.strictly_better"] = (audit.strictly_better, "count")
    m["mapper.exhaustive.only"] = (audit.exhaustive_only, "count")
    m["mapper.map_reads.speedup_2w"] = (wall[1] / wall[2], "x")
    m["cli.main.self_s"] = (main_rec[2] - main_rec[1] - child_time[main_id], "s")
    m["cli.approximate_bytes.s"] = (
        sum(r[2] - r[1] for _, r in find("cli.approximate_bytes", "phase.map")), "s")
    m["cli.tsv_bytes"] = (tsv_bytes, "bytes")
    m["trace.overhead_frac"] = (traced_map / wall[1] - 1.0, "fraction")
    return m
