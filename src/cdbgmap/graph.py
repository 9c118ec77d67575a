"""Compacted de Bruijn graph construction over canonical solid k-mers.

The graph is node-centric: a k-mer and its reverse complement are one node.
Unitigs are maximal non-branching paths; extension across a junction is
allowed only when the current end has exactly one forward neighbour, that
neighbour has exactly one backward neighbour, the junction (k-1)-overlap is
not its own reverse complement, and the neighbour has not already been
consumed (which also cuts cycles).  One step, the single successor of an
oriented k-mer, is used both ways: forward from the end, and forward from
the neighbour's reverse orientation, whose successors are the neighbour's
predecessors.  A unitig's left arm is its right arm walked from the seed's
reverse orientation.  A palindromic overlap needs no test of its own: past
it, the neighbour's reverse complement is a second predecessor, unless the
neighbour is the current end reversed, which is consumed.

Construction is deterministic: seeds are taken in ascending packed-canonical
order, ids are dense in seed order, and each unitig is stored in whichever
orientation is lexicographically smaller end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .census import SolidKmerSet
from .fastx import read_described, write_fasta
from .sequences import (
    BASES,
    decode_kmer,
    flip,
    kmer_codes,
    non_acgt,
    rc_code,
    reverse_complement,
)

if TYPE_CHECKING:  # pragma: no cover
    from .index import AnchorIndex


@dataclass(frozen=True)
class Unitig:
    """One maximal non-branching path; sequence is the stored orientation."""

    id: int
    sequence: str


class CompactedGraph:
    """A set of unitigs plus k; the reference the mapper aligns against."""

    def __init__(self, k: int, unitigs: Sequence[Unitig]):
        if k < 2:
            raise ValueError(f"k must be >= 2, got {k}")
        for i, u in enumerate(unitigs):
            if u.id != i:
                raise ValueError(f"unitig ids must be dense from 0, got {u.id} at {i}")
            if len(u.sequence) < k:
                raise ValueError(f"unitig {u.id} shorter than k")
            if non_acgt(u.sequence):
                raise ValueError(f"unitig {u.id} contains non-ACGT symbols")
        self.k = k
        self.unitigs = list(unitigs)

    def __len__(self) -> int:
        return len(self.unitigs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CompactedGraph)
            and self.k == other.k
            and self.unitigs == other.unitigs
        )

    def oriented_sequence(self, unitig_id: int, orientation: str) -> str:
        if orientation == "+":
            return self.unitigs[unitig_id].sequence
        if orientation == "-":
            return reverse_complement(self.unitigs[unitig_id].sequence)
        raise ValueError(f"orientation must be '+' or '-', got {orientation!r}")

    def mean_length(self) -> float:
        total = sum(len(u.sequence) for u in self.unitigs)
        return total / len(self.unitigs) if self.unitigs else 0.0


def compact(solid: SolidKmerSet) -> CompactedGraph:
    """Build the compacted graph; every solid k-mer lands in exactly one unitig."""
    if not solid.codes:
        raise ValueError("cannot compact an empty solid k-mer set")
    k = solid.k
    codes = solid.codes
    mask = (1 << (2 * k)) - 1
    shift = 2 * (k - 1)
    consumed: set[int] = set()

    def _step(fwd: int, rc: int):
        """The single oriented successor (nf, nr) of an oriented k-mer, or
        None if it has 0 or more than 1."""
        found = None
        for b in range(4):
            nf = ((fwd << 2) | b) & mask
            nr = (rc >> 2) | ((3 - b) << shift)
            if (nf if nf < nr else nr) in codes:
                if found is not None:
                    return None
                found = nf, nr
        return found

    def _arm(fwd: int, rc: int) -> str:
        """The bases of the maximal rightward extension, consuming its k-mers."""
        out = []
        while step := _step(fwd, rc):
            nf, nr = step
            nc = nf if nf < nr else nr
            # its predecessors are the successors of its reverse orientation
            if nc in consumed or _step(nr, nf) is None:
                break
            out.append(BASES[nf & 3])
            consumed.add(nc)
            fwd, rc = nf, nr
        return "".join(out)

    unitigs: list[Unitig] = []
    for seed in sorted(codes):
        if seed in consumed:
            continue
        consumed.add(seed)
        rc = rc_code(seed, k)
        right = _arm(seed, rc)
        # leftward extension is rightward extension of the reverse orientation
        left = _arm(rc, seed)
        seq = reverse_complement(left) + decode_kmer(seed, k) + right
        seq = min(seq, reverse_complement(seq))
        unitigs.append(Unitig(id=len(unitigs), sequence=seq))
    return CompactedGraph(k=k, unitigs=unitigs)


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


def write_unitigs_fasta(path: str | Path, graph: CompactedGraph) -> int:
    """One record per unitig, named `u<id>`, with the graph's k recorded in
    the header's description (`>u0 k=31`)."""
    return write_fasta(path, ((f"u{u.id} k={graph.k}", u.sequence) for u in graph.unitigs))


def _recorded_k(description: str) -> int | None:
    for field in description.split():
        if field.startswith("k="):
            if not field[2:].isdigit():
                raise ValueError(f"unitig header has a bad k field: {field!r}")
            return int(field[2:])
    return None


def read_unitigs_fasta(path: str | Path, k: int) -> CompactedGraph:
    """Inverse of write_unitigs_fasta.  A header that records a k other than
    `k` raises ValueError; a header without one is taken to be at `k`.
    Every ValueError names the file once, as `<path>: <message>`."""
    described = list(read_described(path))  # its errors name the file already
    try:
        records = []
        for rec, description in described:
            if rec.id[:1] != "u" or not rec.id[1:].isdigit():
                raise ValueError(f"not a unitig FASTA header: {rec.id!r}")
            recorded = _recorded_k(description)
            if recorded is not None and recorded != k:
                raise ValueError(f"graph built with k={recorded}, requested k={k}")
            records.append(Unitig(id=int(rec.id[1:]), sequence=rec.sequence))
        records.sort(key=lambda u: u.id)
        return CompactedGraph(k=k, unitigs=records)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_gfa(path: str | Path, graph: CompactedGraph, anchor_index: "AnchorIndex") -> None:
    """GFA1 dump: S lines with sequences, L lines with (k-1)-overlap links.

    Links are derived from the anchor index itself so the two views can never
    disagree on ids or orientations.  A link and its reverse-complement
    counterpart are the same bidirected edge and are emitted once.
    """
    overlap = graph.k - 1
    links = set()
    for key in anchor_index.keys():
        for a, oa, *_ in anchor_index.ends_with_codes(key):
            for b, ob, *_ in anchor_index.starts_with_codes(key):
                fwd = (a, oa, b, ob)
                mirror = (b, flip(ob), a, flip(oa))
                links.add(min(fwd, mirror))
    with open(path, "w", encoding="ascii") as out:
        out.write("H\tVN:Z:1.0\n")
        for u in graph.unitigs:
            out.write(f"S\tu{u.id}\t{u.sequence}\n")
        for a, oa, b, ob in sorted(links):
            out.write(f"L\tu{a}\t{oa}\tu{b}\t{ob}\t{overlap}M\n")
