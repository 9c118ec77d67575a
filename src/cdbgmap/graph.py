"""Compacted de Bruijn graph construction over canonical solid k-mers.

The graph is node-centric: a k-mer and its reverse complement are one node.
Unitigs are maximal non-branching paths.  Extension runs through the end's
last k-1 bases, the (k-1)-overlap, as in BCALM 2's compaction by overlap
adjacency, and asks two questions of it: does exactly one solid k-mer start
with it (the neighbour), and does no solid k-mer other than the end finish
with it?  The second asks of the end's three siblings, the end with another
first base; one sibling hit stops the arm.  The neighbour must also not have
been visited, which cuts cycles.  The probes, four successors and three
siblings, are written out inline because the walk is nothing but these
lookups (see `compact`).  A unitig's left arm is its right arm walked from
the seed's reverse orientation.  A palindromic overlap needs no test of its
own: past it, the neighbour's reverse complement is a sibling of the end,
or the end itself, which is visited.

Construction is deterministic: seeds are taken in ascending packed-canonical
order, ids are dense in seed order, and each unitig is stored in whichever
orientation is lexicographically smaller end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .census import SolidKmerSet
from .fastx import read_described, write_fasta
from .sequences import (
    BASES,
    decode_kmer,
    flip,
    kmer_codes,
    non_acgt,
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

    def mean_length(self) -> float:
        total = sum(len(u.sequence) for u in self.unitigs)
        return total / len(self.unitigs) if self.unitigs else 0.0


def compact(solid: SolidKmerSet) -> CompactedGraph:
    """Build the compacted graph; every solid k-mer lands in exactly one unitig.

    An arm step probes the four successors of the current end and, when
    exactly one is solid and unvisited, the end's three siblings, breaking at
    the first solid one: seven lookups per extended step.  The probes are
    written out inline: a probe is one comparison and one set lookup, so a
    helper call per step, or a loop over the bases, costs as much as the
    probes it runs.
    `unvisited` starts as a copy of the solid set, so it holds the solid
    set's own ints, and a visit removes one instead of storing a freshly
    computed int for every k-mer.
    """
    if not solid.codes:
        raise ValueError("cannot compact an empty solid k-mer set")
    k = solid.k
    codes = solid.codes
    mask = (1 << (2 * k)) - 1
    shift = 2 * (k - 1)
    # appending A, C, G or T to the forward orientation prepends T, G, C or
    # A to the reverse one: its top two bits become t0, t1, t2 or 0.  XOR
    # with t2, t1 or t0 changes the first base, and XOR with 1, 2 or 3 the
    # last base's complement to match: the end's three siblings
    t0, t1, t2 = 3 << shift, 2 << shift, 1 << shift
    unvisited = set(codes)
    remove = unvisited.remove

    def _arm(fwd: int, rc: int) -> str:
        """The bases of the maximal rightward extension, visiting its k-mers."""
        out = []
        append = out.append
        while True:
            f = (fwd << 2) & mask
            r = rc >> 2
            hits = 0
            b = r | t0
            if (f if f < b else b) in codes:
                hits += 1
                nf, nr = f, b
            a = f | 1
            b = r | t1
            if (a if a < b else b) in codes:
                hits += 1
                nf, nr = a, b
            a = f | 2
            b = r | t2
            if (a if a < b else b) in codes:
                hits += 1
                nf, nr = a, b
            a = f | 3
            if (a if a < r else r) in codes:
                hits += 1
                nf, nr = a, r
            if hits != 1:
                break
            nc = nf if nf < nr else nr
            if nc not in unvisited:
                break
            # no other k-mer ends with the end's last k-1 bases: none of its
            # three siblings, the end with another first base, is solid
            a = fwd ^ t2
            b = rc ^ 1
            if (a if a < b else b) in codes:
                break
            a = fwd ^ t1
            b = rc ^ 2
            if (a if a < b else b) in codes:
                break
            a = fwd ^ t0
            b = rc ^ 3
            if (a if a < b else b) in codes:
                break
            append(nf & 3)
            remove(nc)
            fwd, rc = nf, nr
        return "".join([BASES[b] for b in out])

    unitigs: list[Unitig] = []
    for seed in sorted(codes):
        if seed not in unvisited:
            continue
        remove(seed)
        word = decode_kmer(seed, k)
        rc = kmer_codes(word)[1]
        right = _arm(seed, rc)
        # leftward extension is rightward extension of the reverse orientation
        left = _arm(rc, seed)
        seq = reverse_complement(left) + word + right
        seq = min(seq, reverse_complement(seq))
        unitigs.append(Unitig(id=len(unitigs), sequence=seq))
    return CompactedGraph(k=k, unitigs=unitigs)


def write_unitigs_fasta(path: str | Path, graph: CompactedGraph) -> int:
    """One record per unitig, named `u<id>`, with the graph's k recorded in
    the header's description (`>u0 k=31`)."""
    return write_fasta(path, ((f"u{u.id} k={graph.k}", u.sequence) for u in graph.unitigs))


def _recorded_k(name: str, description: str) -> int:
    for field in description.split():
        if field.startswith("k="):
            if not field[2:].isdigit():
                raise ValueError(f"unitig header has a bad k field: {field!r}")
            return int(field[2:])
    raise ValueError(f"unitig header {name!r} records no k")


def read_unitigs_fasta(path: str | Path, k: int | None = None) -> CompactedGraph:
    """Inverse of write_unitigs_fasta, at the k its headers record.  Every
    header must record the same k; a header that records none, two headers
    that record different ks, a file with no header at all, and a `k` other
    than the recorded one each raise ValueError.  Every ValueError names the
    file once, as `<path>: <message>`."""
    described = list(read_described(path))  # its errors name the file already
    try:
        records, recorded = [], None
        for rec, description in described:
            if rec.id[:1] != "u" or not rec.id[1:].isdigit():
                raise ValueError(f"not a unitig FASTA header: {rec.id!r}")
            header_k = _recorded_k(rec.id, description)
            if recorded is not None and header_k != recorded:
                raise ValueError(f"unitig headers record k={recorded} and k={header_k}")
            recorded = header_k
            records.append(Unitig(id=int(rec.id[1:]), sequence=rec.sequence))
        if recorded is None:
            raise ValueError("no unitig header records k")
        if k is not None and k != recorded:
            raise ValueError(f"graph built with k={recorded}, requested k={k}")
        records.sort(key=lambda u: u.id)
        return CompactedGraph(k=recorded, unitigs=records)
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
