"""Greedy-vs-exhaustive audit over a fixed read sample, as `cdbgmap eval` pays it.

Loads the unitig FASTA and a saved index, then times `map_branching` plus
`map_exhaustive` over every read of the sample, once: each pass runs in a
fresh process, as `cdbgmap eval` does, so every timed pass starts from the
same cold caches.  The results are written as TSV (read id, greedy mapped
and cost, exhaustive mapped, cost and truncation) and the pass time is
printed as one JSON line.

Usage (with the package on PYTHONPATH):
    python3 bench/audit.py GRAPH_FA INDEX READS K OUT_TSV
"""

from __future__ import annotations

import json
import sys
import time

from cdbgmap import mapper
from cdbgmap.fastx import read_sequences
from cdbgmap.graph import read_unitigs_fasta
from cdbgmap.index import load_indexes

def audit_pass(reads, graph, anchor, params):
    """One pass over the sample: (seconds in the two mappers, result pairs).

    The mappers are looked up on the module at call time, so a traced run
    that replaces them from outside sees every call."""
    pairs = []
    busy = 0.0
    clock = time.perf_counter
    for read in reads:
        t0 = clock()
        greedy = mapper.map_branching(read, graph, anchor, params)
        exact = mapper.map_exhaustive(read, graph, anchor, params)
        busy += clock() - t0
        pairs.append((greedy, exact))
    return busy, pairs


def audit_rows(pairs) -> str:
    def cost(r):
        return str(r.mismatches) if r.mapped else "."

    lines = [
        f"{g.read_id}\t{int(g.mapped)}\t{cost(g)}\t{int(e.mapped)}\t{cost(e)}"
        f"\t{int(e.truncated)}\n"
        for g, e in pairs
    ]
    return "read_id\tgreedy_mapped\tgreedy_cost\texh_mapped\texh_cost\ttruncated\n" + "".join(lines)


def main(argv) -> int:
    graph_fa, index, reads_path, k, out = argv
    graph = read_unitigs_fasta(graph_fa, k=int(k))
    anchor, _ = load_indexes(index)
    reads = list(read_sequences(reads_path))
    busy, pairs = audit_pass(reads, graph, anchor, mapper.MappingParams())
    with open(out, "w", encoding="ascii") as fh:
        fh.write(audit_rows(pairs))
    print(json.dumps({"reads": len(reads), "seconds": busy}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
