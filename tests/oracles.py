"""Reference walkers over packed codes, and string views of package objects.

No product path uses these: they are the oracles the graph, census, index
and acceptance tests check the package against.  `enumerate_paths` walks
the solid set's packed codes one base at a time, independently of
`compact`; `walk_sequence` is the sequence law of a node-centric walk;
`scan_overlaps` tests every window of a read against the anchor keys, as
the strided probes of `AnchorIndex.overlaps` must find them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from cdbgmap.census import KmerCensus, SolidKmerSet
from cdbgmap.graph import CompactedGraph
from cdbgmap.sequences import decode_kmer, kmer_codes, reverse_complement


def census_strings(census: KmerCensus) -> dict[str, int]:
    return {decode_kmer(c, census.k): n for c, n in census.counts.items()}


def solid_strings(solid: SolidKmerSet) -> set[str]:
    return {decode_kmer(c, solid.k) for c in solid.codes}


def scan_overlaps(seq: str, keys, size: int) -> list[tuple[int, str]]:
    """Every `size`-window of `seq` that is in `keys`, as (position, word)
    pairs in ascending order: one lookup per window."""
    return [(i, w) for i in range(len(seq) - size + 1) if (w := seq[i : i + size]) in keys]


def oriented_sequence(graph: CompactedGraph, unitig_id: int, orientation: str) -> str:
    if orientation == "+":
        return graph.unitigs[unitig_id].sequence
    if orientation == "-":
        return reverse_complement(graph.unitigs[unitig_id].sequence)
    raise ValueError(f"orientation must be '+' or '-', got {orientation!r}")


@dataclass(frozen=True)
class DbgWalk:
    """A node-centric walk: consecutive k-mers overlap by k-1 characters."""

    nodes: tuple[str, ...]

    @property
    def is_path(self) -> bool:
        return len(set(self.nodes)) == len(self.nodes)


def walk_sequence(walk: DbgWalk | Sequence[str]) -> str:
    """The sequence a walk generates: first node plus one character per step."""
    nodes = walk.nodes if isinstance(walk, DbgWalk) else tuple(walk)
    if not nodes:
        raise ValueError("empty walk")
    k = len(nodes[0])
    parts = [nodes[0]]
    for prev, cur in zip(nodes, nodes[1:]):
        if len(cur) != k or prev[1:] != cur[:-1]:
            raise ValueError("not a walk")
        parts.append(cur[-1])
    return "".join(parts)


class PathEnumeration(NamedTuple):
    walks: list[DbgWalk]
    truncated: bool


def enumerate_paths(
    solid: SolidKmerSet, start: str, len_nodes: int, budget: int = 100_000
) -> PathEnumeration:
    """All oriented node paths of exactly len_nodes nodes starting at `start`.

    A node is an oriented k-mer whose canonical form is solid; a path never
    repeats one.  Intended for small instances only: the search is
    exhaustive, counting one unit of budget per node expansion.  When the
    budget runs out the partial result is returned with truncated=True,
    never silently dropped.
    """
    if len_nodes < 1:
        raise ValueError("len_nodes must be >= 1")
    k = solid.k
    if len(start) != k:
        raise ValueError(f"start must be a {k}-mer")
    bits, rc = kmer_codes(start)
    if min(bits, rc) not in solid.codes:
        return PathEnumeration([], False)

    codes = solid.codes
    mask = (1 << (2 * k)) - 1
    shift = 2 * (k - 1)
    walks: list[DbgWalk] = []
    expansions = 0
    truncated = False
    stack: list[int] = [bits]
    on_path: set[int] = {bits}

    def recurse(fwd: int, rc: int) -> None:
        nonlocal expansions, truncated
        if len(stack) == len_nodes:
            walks.append(DbgWalk(nodes=tuple(decode_kmer(c, k) for c in stack)))
            return
        base = (fwd << 2) & mask
        rc_shifted = rc >> 2
        for b in range(4):
            nf = base | b
            nr = rc_shifted | ((3 - b) << shift)
            if (nf if nf < nr else nr) not in codes or nf in on_path:
                continue
            expansions += 1
            if expansions > budget:
                truncated = True
                return
            stack.append(nf)
            on_path.add(nf)
            recurse(nf, nr)
            on_path.discard(nf)
            stack.pop()
            if truncated:
                return

    recurse(bits, rc)
    return PathEnumeration(walks, truncated)
