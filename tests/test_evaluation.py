import random
from dataclasses import replace
from functools import partial

import pytest

from cdbgmap import evaluation
from cdbgmap.evaluation import (
    EvalReport,
    SimConfig,
    build_reference_graph,
    compare_branching_mappers,
    distance_to_optimum,
    run_accuracy_sweep,
    simulate_reads,
)
from cdbgmap.mapper import MappingParams, map_branching, map_exhaustive, map_read
from cdbgmap.sequences import Read

from conftest import build_graph, indexes_for, naive_rc, random_genome

from test_mapper import TRAP_READ, TRAP_UNITIGS

PARAMS = MappingParams()


def test_simulate_error_free_reads_are_substrings():
    ref = random_genome(1, 500)
    cfg = SimConfig(reference=ref, read_length=60, read_count=50, error_rate=0.0, rng_seed=4)
    for sim in simulate_reads(cfg):
        assert sim.error_positions == ()
        expected = ref[sim.origin : sim.origin + 60]
        if sim.strand == "-":
            expected = naive_rc(expected)
        assert sim.read.sequence == expected


def test_simulate_deterministic_under_seed():
    ref = random_genome(2, 400)
    cfg = SimConfig(reference=ref, read_length=50, read_count=30, error_rate=0.02, rng_seed=9)
    a = list(simulate_reads(cfg))
    b = list(simulate_reads(cfg))
    assert a == b


def test_simulate_validates_config():
    ref = random_genome(3, 100)
    with pytest.raises(ValueError, match="error_rate"):
        SimConfig(reference=ref, read_length=50, read_count=1, error_rate=1.0, rng_seed=0)
    with pytest.raises(ValueError, match="shorter"):
        SimConfig(reference=ref, read_length=200, read_count=1, error_rate=0.0, rng_seed=0)
    # simulate_reads reverse-complements the reference unchecked
    for bad, symbol in ((ref[:50] + "N" + ref[51:], "N"), ("acgt" + ref[4:], "a"), (ref + "-", "-")):
        with pytest.raises(ValueError, match=f"non-ACGT symbol: '{symbol}'"):
            SimConfig(reference=bad, read_length=50, read_count=1, error_rate=0.0, rng_seed=0)


def test_simulate_error_positions_are_the_actual_diffs():
    ref = random_genome(4, 600)
    cfg = SimConfig(reference=ref, read_length=80, read_count=60, error_rate=0.05, rng_seed=7)
    for sim in simulate_reads(cfg):
        clean = ref[sim.origin : sim.origin + 80]
        if sim.strand == "-":
            clean = naive_rc(clean)
        diffs = tuple(
            i for i, (a, b) in enumerate(zip(clean, sim.read.sequence)) if a != b
        )
        assert diffs == sim.error_positions


def test_distance_to_optimum_basics():
    graph = build_graph([random_genome(5, 300)], 9)
    anchor, interior = indexes_for(graph)
    ref = graph.unitigs[0]
    cfg = SimConfig(reference=ref, read_length=60, read_count=40, error_rate=0.02, rng_seed=1)
    for sim in simulate_reads(cfg):
        result = map_read(sim.read, graph, anchor, interior, PARAMS)
        if result.mapped:
            # errors land at their injected positions on a repeat-free unitig
            assert distance_to_optimum(result, sim) == 0


def test_distance_to_optimum_counts_off_error_mismatches():
    # the greedy decoy maps the trap read with one mismatch at a position
    # where no error was injected
    from cdbgmap.evaluation import SimulatedRead

    graph = build_graph(TRAP_UNITIGS, 5)
    anchor, _ = indexes_for(graph)
    read = Read(id="trap", sequence=TRAP_READ)
    result = map_branching(read, graph, anchor, PARAMS)
    truth = SimulatedRead(read=read, origin=0, strand="+", error_positions=())
    assert result.mapped and result.mismatches == 1
    assert distance_to_optimum(result, truth) == 1


def test_distance_to_optimum_requires_mapped():
    from cdbgmap.evaluation import SimulatedRead
    from cdbgmap.mapper import MappingResult

    truth = SimulatedRead(
        read=Read(id="x", sequence="ACGT"), origin=0, strand="+", error_positions=()
    )
    with pytest.raises(ValueError):
        distance_to_optimum(MappingResult(read_id="x", regime="unmapped"), truth)


def test_compare_branching_mappers_flags_trap():
    from cdbgmap.evaluation import SimulatedRead

    graph = build_graph(TRAP_UNITIGS, 5)
    anchor, _ = indexes_for(graph)
    read = Read(id="trap", sequence=TRAP_READ)
    sims = [SimulatedRead(read=read, origin=0, strand="+", error_positions=())]
    results = [map_branching(read, graph, anchor, PARAMS)]
    stats = compare_branching_mappers(sims, results, graph, anchor, PARAMS)
    assert stats["strictly_better"] == 1
    assert stats["dominance_violations"] == 0


def test_audit_leaves_out_reads_cut_short(monkeypatch):
    # forty copies of four 40 bp repeat units, each with a point variant,
    # make a branching graph at k 11; small expansion budgets cut the
    # exhaustive search short on many reads, and greedy maps some of those
    # that the cut-short search does not
    rng = random.Random(5)
    units = [random_genome(300 + i, 40) for i in range(4)]
    parts = []
    for i in range(40):
        unit = list(rng.choice(units))
        unit[rng.randrange(len(unit))] = rng.choice("ACGT")
        parts.append("".join(unit) + random_genome(400 + i, 6))
    genome = "".join(parts)
    graph, anchor, _ = build_reference_graph(genome, 11)
    params = MappingParams(max_mismatches=3)
    sims = list(simulate_reads(SimConfig(genome, 80, 60, 0.03, 9)))
    greedy = [map_branching(s.read, graph, anchor, params) for s in sims]
    full = [map_exhaustive(s.read, graph, anchor, params) for s in sims]
    assert not any(r.truncated for r in full)
    for budget in (10, 40):
        cut = [map_exhaustive(s.read, graph, anchor, params, expansion_budget=budget)
               for s in sims]
        truncated = sum(r.truncated for r in cut)
        assert 0 < truncated < len(sims)
        assert any(g.mapped and not e.mapped for g, e in zip(greedy, cut))
        for g, e, f in zip(greedy, cut, full):
            # a read whose search was cut short says so
            if replace(e, truncated=False) != f:
                assert e.truncated
            if not e.truncated and g.mapped:
                assert e.mapped and e.mismatches <= g.mismatches
        monkeypatch.setattr(evaluation, "map_exhaustive",
                            partial(map_exhaustive, expansion_budget=budget))
        stats = compare_branching_mappers(sims, greedy, graph, anchor, params)
        assert stats["truncated"] == truncated
        assert stats["dominance_violations"] == 0
        assert stats["exhaustive_only"] + stats["strictly_better"] <= len(sims) - truncated


def test_run_accuracy_sweep_smoke(tmp_path):
    ref = random_genome(6, 3000)
    truth_path = tmp_path / "truth.tsv"
    report = run_accuracy_sweep(
        ref,
        k=15,
        rates=[0.0, 0.01],
        read_count=150,
        read_length=60,
        seed=5,
        truth_path=truth_path,
    )
    assert len(report.rows) == 2
    row0, row1 = report.rows
    assert row0.error_rate == 0.0
    assert row0.recall == 1.0
    assert row0.d0 == 100.0
    assert row0.d1 == row0.d2 == row0.d3 == row0.d4plus == 0.0
    # distance buckets are percentages of mapped reads
    assert abs(sum((row1.d0, row1.d1, row1.d2, row1.d3, row1.d4plus)) - 100.0) < 0.11
    assert row1.d0 <= row0.d0
    assert row0.reads_per_sec > 0

    csv = report.to_csv()
    assert csv.splitlines()[0] == EvalReport.CSV_HEADER
    assert len(csv.splitlines()) == 3

    truth_lines = truth_path.read_text().splitlines()
    assert truth_lines[0] == "read_id\terror_rate\torigin\tstrand\terror_positions"
    assert len(truth_lines) == 1 + 2 * 150


def test_run_accuracy_sweep_empty_rates():
    report = run_accuracy_sweep(random_genome(7, 500), k=9, rates=[], read_count=10)
    assert report.rows == []
    assert report.to_csv().strip() == EvalReport.CSV_HEADER


def test_run_accuracy_sweep_validates_read_length():
    with pytest.raises(ValueError, match="read_length"):
        run_accuracy_sweep(random_genome(8, 500), k=31, rates=[0.0], read_count=5, read_length=20)


def test_build_reference_graph_spectrum():
    ref = random_genome(9, 800)
    graph, anchor, interior = build_reference_graph(ref, 9)
    from conftest import naive_canonical, naive_kmers

    got = set()
    for text in graph.unitigs:
        got.update(naive_canonical(w) for w in naive_kmers(text, 9))
    want = {naive_canonical(w) for w in naive_kmers(ref, 9)}
    assert got == want
