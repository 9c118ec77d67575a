"""Read mapping onto unitig paths of a compacted de Bruijn graph.

Two regimes exist.  A read that fits inside one unitig is placed by the
interior index (single-unitig regime).  A read spanning two or more unitigs
is mapped by the greedy seed-and-extend procedure (branching regime):

1. its (k-1)-mer windows that are indexed unitig overlaps are detected;
2. among the first `max_anchor_attempts` detected overlaps, a unitig ending
   with the overlap must align the read's left extremity (begin anchor);
3. symmetrically, among the last ones, a unitig starting with the overlap
   must align the right extremity (end anchor);
4. the gap between the two anchors is covered junction by junction, always
   keeping the cumulative Hamming cost within the mismatch budget.

Within one cover there is no backtracking; when a cover fails, the anchor
loops move on to the next begin/end overlap until the attempt budgets are
spent.  At a junction the candidate whose suffix lands exactly on the next
detected overlap is tried first and, if it fits the budget, the remaining
candidates are skipped; that shortcut is disabled at the first and last
detected overlaps of the read.  Ties are always broken by smallest unitig
id, then forward orientation, so results are deterministic.  Orientations
are the strings '+' and '-' throughout, and '+' < '-' sorts forward first.

The exhaustive mapper anchors like the greedy one (begin anchors only) and
then searches every walk on from them (a walk may repeat a unitig), which
makes its cost a lower bound for the greedy cost on every read.  It keeps
one optimum: the first cheapest path in begin-anchor then candidate order,
on the first strand that reaches that cost.  It deepens a bound on the
cost from the cheapest begin anchor's up to t and, under each bound, looks
depth first, on an explicit stack of frames rather than by recursion, for
the first walk within it: the first bound with a walk is the minimum, and
that walk the first cheapest.  Scored by Hamming cost along the read, the
rest of a walk depends only on the read position of its last junction, on
the oriented unitig there, or rather on that unitig's last word, which fixes
its junction candidates, and on the mismatches left; so each such state
found to have no walk on is remembered for the strand pass, with whether a
Hamming check below it went over, and never searched again.  A (read
position, candidate list) pair is searched at most once per number of
mismatches left, at most t + 1 times, and the search is polynomial in the
read length and the number of anchor words.  That holds only because it
searches walks, not paths of distinct unitigs, and scores Hamming cost, not
edit distance.  Its `expansion_budget` bounds the candidate evaluations of
one strand pass; a pass that spends it fails, `truncated`, with no walk.
Both mappers take their begin anchors from `_begins` and cost every
junction candidate through `_junction`, so they share one anchoring and
extension geometry and differ only in search policy.  Anchors come from
the read's words, each looked up as written on the strand: the anchor table,
keyed by the words themselves, gives the unitigs ending with a begin
overlap, and, for the greedy end anchor (a junction at the end overlap whose
unitig reaches the read's end), the unitigs starting with the end overlap.
A begin overlap at read position 0 is one anchor with an empty head, however
many unitigs end with it.  Every junction looks up the path's last word in
the one anchor table: its candidates are `starts_with_codes` of that word,
which is the begin overlap itself at a path's first junction, since a begin
anchor's unitig ends with it.  Each candidate entry carries its oriented
text and its text after the overlap, built once with the index and never
per read, and `_junction` compares the latter with the read in place
(`str.startswith`) before it counts mismatches on a slice.

All four mappers are one driver, `_map`, run over a list of regimes, each a
strand pass with its index and the strands it tries.  Three rules settle the
result: a regime's result is its first strand whose pass succeeds; a later
regime's result replaces an earlier one only when strictly cheaper; and no
regime runs after a cost-0 result.  A read is `truncated` if any pass that
ran was, mapped or not, and unmapped it carries the worst reason over them.
`map_single_unitig` and `map_branching` are one regime over the mapping
strands; `map_read` is the single-unitig regime and then the branching one;
`map_exhaustive` is one regime per strand, so its strands compete on cost
and a perfect first strand ends the search.  The driver unmaps a read
shorter than k as `too_short` and builds the one `ReadView` that every pass
over the read shares.  Both indexes are keyed by the written words, so no
pass encodes anything; each reads the strand's text as it stands:

- a single-unitig pass seeds from the words of its own strand that are
  interior keys, one dict lookup each, scanned lazily from the read's start,
  so a read placed by its first hit reads no further.  Before that, the pass
  checks the t+1 disjoint words at 0, k-1, ..., t(k-1) of its strand: if the
  read holds them all (L >= (t+1)(k-1)) and none is an interior key, the
  pass fails unscanned, since t mismatches leave at least one of them exact
  (pigeonhole; a word holding N is a miss).  Such a `skipped` pass is
  scanned for its reason only if the read ends unmapped, and not once its
  reason is `budget_exceeded`, the worst;
- the branching and exhaustive passes detect the anchor overlaps once per
  read, on its forward text, with `AnchorIndex.overlaps`: at k > 24 it
  looks up only every s-th (k-s)-gram of the read (s = min(8, k-23)) in the
  anchor index's probe table and tests whole just the windows a hit names;
  at k <= 24 each (k-1)-substring of the read is one anchor-key test.  The
  '-' strand's overlaps are the forward ones, read off the reverse
  complement.

`map_stream` maps a read stream of any length through one order-keeping
engine: it draws the reads in chunks, maps them in this process with one
worker, or with more sends them to forked workers, at most 2 x workers
chunks in flight, and yields each chunk's results in input order.  It
starts no more workers than the CPUs the process may run on, whatever
`threads` asks for.  A worker applies an optional `render` to its results
before they cross the pipe (`cdbgmap map` passes its TSV-row formatter).
While the stream runs, every object that existed before it is frozen out
of the collector, so a full collection walks only what mapping makes.
`map_reads` is that stream collected into a list.
"""

from __future__ import annotations

import gc
import os
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from typing import Any, Callable, Iterable, Iterator

from .graph import CompactedGraph
from .index import AnchorIndex, InteriorIndex
from .sequences import Read, reverse_complement
from .sequences import window_codes  # noqa: F401  (bench/traced.py wraps mapper.window_codes)

SINGLE_UNITIG = "single_unitig"
BRANCHING_PATH = "branching_path"
UNMAPPED = "unmapped"

NO_ANCHOR = "no_anchor"
BEGIN_NOT_FOUND = "begin_not_found"
END_NOT_FOUND = "end_not_found"
COVER_FAILED = "cover_failed"
BUDGET_EXCEEDED = "budget_exceeded"
TOO_SHORT = "too_short"

_REASON_PRIORITY = {
    None: -1,
    NO_ANCHOR: 0,
    BEGIN_NOT_FOUND: 1,
    END_NOT_FOUND: 2,
    COVER_FAILED: 3,
    BUDGET_EXCEEDED: 4,
}


@dataclass(frozen=True)
class MappingParams:
    """Mapping knobs: mismatch budget, anchor attempts per direction, strands.

    The defaults (two mismatches, two anchor attempts, both strands) are the
    ones every evaluation in this package uses."""

    max_mismatches: int = 2
    max_anchor_attempts: int = 2
    strand_mode: str = "both"  # "both" or "forward_only"

    def __post_init__(self):
        if self.max_mismatches < 0:
            raise ValueError("max_mismatches must be >= 0")
        if self.max_anchor_attempts < 1:
            raise ValueError("max_anchor_attempts must be >= 1")
        if self.strand_mode not in ("both", "forward_only"):
            raise ValueError(f"unknown strand_mode {self.strand_mode!r}")

    @property
    def strands(self) -> tuple[str, ...]:
        return ("+", "-") if self.strand_mode == "both" else ("+",)


@dataclass(frozen=True, init=False)
class MappingResult:
    read_id: str
    regime: str
    strand: str | None
    path: tuple[tuple[int, str], ...]
    start_offset: int | None
    mismatches: int | None
    mismatch_positions: tuple[int, ...]
    reason: str | None
    repeated: bool
    truncated: bool

    def __init__(self, read_id, regime, strand=None, path=(), start_offset=None,
                 mismatches=None, mismatch_positions=(), reason=None, repeated=False,
                 truncated=False):
        # one result per read: its fields go into the instance dict in
        # declaration order, not through one frozen `__setattr__` call each
        d = self.__dict__
        d["read_id"] = read_id
        d["regime"] = regime
        d["strand"] = strand
        d["path"] = path
        d["start_offset"] = start_offset
        d["mismatches"] = mismatches
        d["mismatch_positions"] = mismatch_positions
        d["reason"] = reason
        d["repeated"] = repeated
        d["truncated"] = truncated

    @property
    def mapped(self) -> bool:
        return self.regime != UNMAPPED


def _hamming(seq: str, base: int, text: str, limit: int):
    """Mismatches of `text` against the read `seq` from position `base`,
    clipped to the shorter of the two, as (count, positions in read
    coordinates), aborting with (count, None) as soon as the count exceeds
    `limit`.

    The two texts' ASCII bytes are read as big-endian ints and XOR-ed, so a
    mismatch is a non-zero byte.  ASCII bytes XOR to at most 0x7F, so the
    highest set bit lies in the byte `bit_length() >> 3` places from the
    end: the first mismatch left.  Each is taken in ascending read order and
    its byte cleared, with no loop over the matching bases.  A text outside
    ASCII raises UnicodeEncodeError (parsed reads are ACGTN)."""
    part = seq[base : base + len(text)]
    if part == text:
        return 0, ()
    end = base + len(part) - 1
    diff = int.from_bytes(part.encode("ascii"), "big") ^ int.from_bytes(
        text[: len(part)].encode("ascii"), "big")
    cost = 0
    out = []
    while diff:
        cost += 1
        if cost > limit:
            return cost, None
        back = diff.bit_length() >> 3
        out.append(end - back)
        diff &= (1 << (back << 3)) - 1
    return cost, tuple(out)


class ReadView:
    """A read's (k-1)-mer words on both strands, as written: the strand's
    own text for the interior seeds, and the anchor overlaps, found once on
    the forward text.

    `unplaceable` reads the t+1 disjoint words at 0, k-1, ..., t(k-1) of a
    strand before any scan: when none is a key, no placement within t
    mismatches exists, since t mismatches leave one of them exact
    (pigeonhole; a word holding N is a miss).
    """

    def __init__(self, sequence: str, size: int):
        self.size = size
        self._seq = sequence
        self._rc_seq: str | None = None
        self._base = len(sequence) - size
        self._dets: list | None = None  # forward detected overlaps

    def sequence(self, strand: str) -> str:
        if strand == "+":
            return self._seq
        if self._rc_seq is None:
            self._rc_seq = reverse_complement(self._seq)
        return self._rc_seq

    def unplaceable(self, strand: str, keys, t: int) -> bool:
        """Whether the strand provably has no placement within `t`
        mismatches on a text whose words are `keys`: the read holds t+1
        disjoint words and none of them is a key."""
        size = self.size
        if self._base < t * size:
            return False
        seq = self.sequence(strand)
        for i in range(0, (t + 1) * size, size):
            if seq[i : i + size] in keys:
                return False
        return True

    def detected(self, strand: str, anchor: AnchorIndex) -> list:
        """The strand's windows that are indexed unitig overlaps, as
        (position, word) pairs in ascending order, found on the forward text
        by `anchor.overlaps`.  The anchor keys are closed under reverse
        complement, so the '-' strand's are the forward ones, read off the
        reverse complement at L-(k-1)-p."""
        if self._dets is None:
            self._dets = anchor.overlaps(self._seq)
        if strand == "+" or not self._dets:
            return self._dets
        size, base = self.size, self._base
        rc = self.sequence(strand)
        return [(base - p, rc[base - p : base - p + size]) for p, _ in reversed(self._dets)]


class _Attempt:
    """Internal outcome of one strand pass: a placement when `reason` is
    None, else the reason there is none."""

    __slots__ = ("reason", "path", "start_offset", "cost", "positions", "truncated")

    def __init__(self, reason=None, path=(), start_offset=0, cost=0, positions=(),
                 truncated=False):
        self.reason = reason
        self.path = path
        self.start_offset = start_offset
        self.cost = cost
        self.positions = positions
        self.truncated = truncated


# the one outcome of every pass failed by the pigeonhole rule, unscanned: its
# reason stands in for the one that only the scan gives
_SKIPPED = _Attempt(NO_ANCHOR)


def _worse(reason_a: str | None, reason_b: str | None) -> str | None:
    return reason_a if _REASON_PRIORITY[reason_a] >= _REASON_PRIORITY[reason_b] else reason_b


def _map(read: Read, graph: CompactedGraph, params: MappingParams, *regimes) -> MappingResult:
    """The strand/regime driver behind every mapper.  A regime is
    (strand_pass, index, strands), and its result is its first strand whose
    pass succeeds.  A later regime's result replaces an earlier one only when
    strictly cheaper, and no regime runs after a cost-0 result.  The result
    is truncated if any pass that ran was, and unmapped, its reason is the
    worst over them.  A pass `skipped` by the pigeonhole rule
    has failed, but its reason needs the full scan: that runs, with
    `exact=True`, only when the read ends unmapped and its reason is not
    yet the worst one."""
    if len(read.sequence) < graph.k:
        return MappingResult(read.id, UNMAPPED, reason=TOO_SHORT)
    view = ReadView(read.sequence, graph.k - 1)
    best = best_strand = None
    reason = None
    truncated = False
    skipped = []
    for strand_pass, index, strands in regimes:
        for strand in strands:
            attempt = strand_pass(view, strand, graph, index, params)
            if attempt.reason is None:
                if best is None or attempt.cost < best.cost:
                    best, best_strand = attempt, strand
                break
            if attempt is _SKIPPED:
                skipped.append((strand_pass, index, strand))
                continue
            reason = _worse(reason, attempt.reason)
            truncated = truncated or attempt.truncated
        if best is not None and best.cost == 0:
            break
    if best is None:
        for strand_pass, index, strand in skipped:
            if reason == BUDGET_EXCEEDED:  # the worst reason: no rescan changes it
                break
            attempt = strand_pass(view, strand, graph, index, params, exact=True)
            reason = _worse(reason, attempt.reason)
        return MappingResult(read.id, UNMAPPED, reason=reason, truncated=truncated)
    path = tuple(best.path)
    if len(path) == 1:
        regime, repeated = SINGLE_UNITIG, False
    else:
        regime, repeated = BRANCHING_PATH, len({u for u, _ in path}) != len(path)
    return MappingResult(read.id, regime, best_strand, path, best.start_offset, best.cost,
                         best.positions, None, repeated, truncated)


def _begins(pos_b, word, k1, anchor):
    """Begin anchors at the detected overlap `word` at `pos_b`:
    the unitigs ending with it that reach back to read position 0, smallest
    id then '+' first.  Each is yielded as (head, start_offset, text): the
    path it starts, the read's offset in the path, and the unitig text under
    the read's [0, pos_b).  At `pos_b` 0 no unitig covers anything left of
    the overlap, so all of them give one anchor, (), 0, '', yielded once."""
    ends = anchor.ends_with_codes(word)
    if not pos_b:
        if ends:
            yield (), 0, ""
        return
    for uid, orient, s, _, _ in ends:
        left_start = len(s) - k1 - pos_b
        if left_start < 0:
            continue  # the read would extend past the unitig start
        yield ((uid, orient),), left_start, s[left_start : left_start + pos_b]


def _junction(seq, at, body, limit):
    """The cost of a junction candidate: the mismatches, as `_hamming` gives
    them, of the text `body` it lays on the read from position `at` (its
    text after the overlap, as an anchor entry holds it), which `_hamming`
    clips at the read's end.  An exact fit is found in place, with no
    slice."""
    if seq.startswith(body, at):
        return 0, ()
    return _hamming(seq, at, body, limit)


def _branch_pass(
    view: ReadView,
    strand: str,
    graph: CompactedGraph,
    anchor: AnchorIndex,
    params: MappingParams,
) -> _Attempt:
    k1 = graph.k - 1
    t = params.max_mismatches
    n = params.max_anchor_attempts
    dets = view.detected(strand, anchor)
    if not dets:
        return _Attempt(NO_ANCHOR)
    seq = view.sequence(strand)
    length = len(seq)
    det_positions = [pos for pos, _ in dets]
    starting = anchor.starts_with_codes

    failure = BEGIN_NOT_FOUND
    for pos_b, word_b in dets[:n]:
        begin = None
        for head, start_offset, text in _begins(pos_b, word_b, k1, anchor):
            cost_b, plist_b = _hamming(seq, 0, text, t)
            if plist_b is not None:
                begin = (pos_b, word_b, head, start_offset, cost_b, plist_b)
                break  # first success fixes the begin for this overlap
        if begin is None:
            continue
        failure = _worse(failure, END_NOT_FOUND)

        for pos_e, word_e in reversed(dets[-n:]):
            if pos_e < pos_b:
                break
            end = None
            for uid, orient, _, body, span in starting(word_e):
                if pos_e + span + k1 < length:
                    continue  # the read would extend past the unitig end
                cost, plist = _junction(seq, pos_e + k1, body, t - cost_b)
                if plist is not None:
                    end = (pos_e, (uid, orient), cost, plist)
                    break
            if end is None:
                continue
            result = _greedy_cover(seq, k1, starting, det_positions, begin, end, t)
            if result.reason is None:
                return result
            failure = _worse(failure, result.reason)
    return _Attempt(failure)


def _greedy_cover(seq, k1, starting, det_positions, begin, end, t) -> _Attempt:
    """Cover the read from the begin anchor's overlap to the end anchor's,
    one junction at a time, without backtracking."""
    pos_b, word, head, start_offset, cost_b, plist_b = begin
    pos_e, end_unitig, cost_e, plist_e = end
    path = list(head)
    positions = list(plist_b)
    cost = cost_b + cost_e
    jpos = pos_b
    while jpos != pos_e:
        cands = starting(word)  # the unitigs after the path's last word
        at = jpos + k1
        reach = pos_e - jpos  # a candidate fits if its last word lands by pos_e
        chosen = None
        # junction shortcut: try the first fit landing on the next detected
        # overlap first, unless we sit on the first detected overlap or the
        # landing would be the last one
        i = bisect_right(det_positions, jpos)
        if jpos != det_positions[0] and i < len(det_positions) - 1:
            next_det = det_positions[i]
            landing, next_word = next_det - jpos, seq[next_det : next_det + k1]
            for uid, orient, s, body, span in cands:
                if span == landing and s.endswith(next_word):
                    cost_u, plist = _junction(seq, at, body, t - cost)
                    if plist is not None:
                        chosen = (cost_u, uid, orient, s, next_det, plist)
                    break
        if chosen is None:
            # the cheapest fit, the first in id order on ties
            fitted = False
            limit = t - cost
            for uid, orient, s, body, span in cands:
                if span > reach:
                    continue
                fitted = True
                cost_u, plist = _junction(seq, at, body, limit)
                if plist is not None:
                    chosen = (cost_u, uid, orient, s, jpos + span, plist)
                    if not cost_u:
                        break
                    limit = cost_u - 1  # only a strictly cheaper fit replaces it
            if not fitted:
                return _Attempt(COVER_FAILED)
            if chosen is None:
                return _Attempt(BUDGET_EXCEEDED)
        cost_u, uid, orient, s, jpos, plist = chosen
        path.append((uid, orient))
        positions.extend(plist)
        cost += cost_u
        word = s[-k1:]

    if word != seq[pos_e : pos_e + k1]:
        return _Attempt(COVER_FAILED)
    if pos_e + k1 < len(seq):
        path.append(end_unitig)
    positions.extend(plist_e)
    return _Attempt(None, path, start_offset, cost, tuple(positions))


def map_branching(
    read: Read,
    graph: CompactedGraph,
    anchor: AnchorIndex,
    params: MappingParams = MappingParams(),
) -> MappingResult:
    """Greedy mapping of a read across branching unitig paths."""
    return _map(read, graph, params, (_branch_pass, anchor, params.strands))


def _single_pass(
    view: ReadView,
    strand: str,
    graph: CompactedGraph,
    interior: InteriorIndex,
    params: MappingParams,
    exact: bool = False,
) -> _Attempt:
    """The first of the strand's first `max_anchor_attempts` interior seeds
    that places the read, at its cheapest occurrence.  Unless `exact`, a
    strand that `ReadView.unplaceable` rules out is `skipped` unscanned.
    The seeds are the strand's words that are interior keys, scanned from
    the read's start with one table lookup each, so a read placed by its
    first seed reads no further (a word holding N is never a key)."""
    t = params.max_mismatches
    left = params.max_anchor_attempts
    table = interior._table
    if not exact and view.unplaceable(strand, table, t):
        return _SKIPPED
    seq = view.sequence(strand)
    length = len(seq)
    size = view.size
    unitigs = graph.unitigs
    get = table.get

    failure = NO_ANCHOR
    # each seed's occurrences place the read on the forward unitig text;
    # reverse placements surface through the reverse-complement pass
    for pos in range(length - size + 1):
        occurrences = get(seq[pos : pos + size])  # packed `offset << 32 | uid`, see InteriorIndex
        if occurrences is None:
            continue
        best = None
        structural = False
        if type(occurrences) is int:
            occurrences = (occurrences,)
        for packed in occurrences:
            uid, start = packed & 0xFFFFFFFF, (packed >> 32) - pos
            if start < 0:
                continue
            useq = unitigs[uid]
            if start + length > len(useq):
                continue
            structural = True
            cost, plist = _hamming(seq, 0, useq[start : start + length], t)
            if plist is None:
                continue
            cand = (cost, uid, start, plist)
            if best is None or cand[:3] < best[:3]:
                best = cand
        if best is not None:
            cost, uid, start, plist = best
            return _Attempt(None, ((uid, "+"),), start, cost, plist)
        failure = _worse(failure, BUDGET_EXCEEDED if structural else COVER_FAILED)
        left -= 1
        if not left:
            break
    return _Attempt(failure)


def map_single_unitig(
    read: Read,
    graph: CompactedGraph,
    interior: InteriorIndex,
    params: MappingParams = MappingParams(),
) -> MappingResult:
    """Place a read entirely inside one unitig via the interior index."""
    return _map(read, graph, params, (_single_pass, interior, params.strands))


def map_read(
    read: Read,
    graph: CompactedGraph,
    anchor: AnchorIndex,
    interior: InteriorIndex,
    params: MappingParams = MappingParams(),
) -> MappingResult:
    """Both regimes over one read view: the single-unitig regime, then the
    branching one, each keeping its first successful strand.  A perfect
    single-unitig placement is returned at once (the branching pass does not
    run); otherwise the branching result wins only when strictly cheaper, so
    a tie goes to the single-unitig placement, and when neither maps, the
    reason is the worst over the passes that ran.  A read shorter than k is
    unmapped with reason `too_short`."""
    strands = params.strands
    return _map(read, graph, params,
                (_single_pass, interior, strands), (_branch_pass, anchor, strands))


def _exhaustive_pass(
    view: ReadView,
    strand: str,
    graph: CompactedGraph,
    anchor: AnchorIndex,
    params: MappingParams,
    expansion_budget: int,
) -> _Attempt:
    """The first cheapest walk from the begin anchors, or the reason there
    is none; once the expansion budget runs out, `budget_exceeded` and
    `truncated`, with no walk.

    The bound on a walk's cost deepens from the cheapest begin anchor's
    cost to t.  Under each bound the begin anchors are tried in order, and
    `_first_walk` searches on from each for the first walk within the
    bound, so the first bound with a walk is the minimum cost and its first
    walk is the first cheapest.  The rest of a walk depends only on the
    read position of its last junction, the candidate list there (one tuple
    per word) and the mismatches left, so `failed` holds each such state
    found to have no walk on, with whether any Hamming check below it went
    over.  Every bound and begin anchor shares it, and no state in it is
    searched again.  Unmapped, the reason is `budget_exceeded` when a begin
    anchor or a check of the search at bound t went over, as a search of
    every walk would find."""
    k1 = graph.k - 1
    t = params.max_mismatches
    dets = view.detected(strand, anchor)
    if not dets:
        return _Attempt(NO_ANCHOR)
    seq = view.sequence(strand)
    starting = anchor.starts_with_codes
    begins = []
    over = False  # a begin anchor went over the budget
    for pos_b, word_b in dets[: params.max_anchor_attempts]:
        for head, start_offset, text in _begins(pos_b, word_b, k1, anchor):
            cost, plist = _hamming(seq, 0, text, t)
            if plist is None:
                over = True
            else:
                begins.append((cost, pos_b, word_b, head, start_offset, plist))
    if not begins:
        return _Attempt(BEGIN_NOT_FOUND)

    failed = {}  # (read position, id(candidates), mismatches left) -> went over
    budget = expansion_budget
    for bound in range(min(begin[0] for begin in begins), t + 1):
        blocked = over
        for cost, pos_b, word_b, head, start_offset, plist in begins:
            if cost > bound:
                continue
            steps = ()
            if pos_b + k1 < len(seq):
                steps, went_over, budget = _first_walk(
                    seq, k1, starting, pos_b + k1, starting(word_b), bound - cost, failed, budget)
                if budget < 0:
                    return _Attempt(BUDGET_EXCEEDED, truncated=True)
                if steps is None:
                    blocked = blocked or went_over
                    continue
            path, positions = list(head), list(plist)
            for unitig, mismatched in steps:
                path.append(unitig)
                positions.extend(mismatched)
            return _Attempt(None, path, start_offset, len(positions), tuple(positions))
    return _Attempt(BUDGET_EXCEEDED if blocked else COVER_FAILED)


def _first_walk(seq, k1, starting, at, cands, left, failed, budget):
    """The first walk on from the junction whose candidates `cands` are laid
    on the read from position `at`, depth first in candidate order, that
    costs at most `left` mismatches, as (its steps, a (unitig, positions)
    pair per unitig, or None; whether a Hamming check went over; the
    expansion budget left, negative once spent).  The stack of frames is
    the walk.  A frame that runs out of candidates is a state with no walk
    on, and goes into `failed`."""
    length = len(seq)
    key = (at, id(cands), left)
    if key in failed:
        return None, failed[key], budget
    stack, rest, over = [], iter(cands), False
    while True:
        for uid, orient, text, body, span in rest:
            budget -= 1
            if budget < 0:
                return None, over, budget
            cost, plist = _junction(seq, at, body, left)
            if plist is None:
                over = True
                continue
            step = ((uid, orient), plist)
            if at + span >= length:  # the unitig reaches the read's end
                return [frame[-1] for frame in stack] + [step], over, budget
            cands = starting(text[-k1:])
            child = (at + span, id(cands), left - cost)
            if child in failed:
                over = over or failed[child]
                continue
            stack.append((key, rest, over, step))
            key, rest, over = child, iter(cands), False
            at, _, left = key
            break
        else:
            failed[key] = over
            if not stack:
                return None, over, budget
            key, rest, was_over, _ = stack.pop()
            over = was_over or over
            at, _, left = key


def map_exhaustive(
    read: Read,
    graph: CompactedGraph,
    anchor: AnchorIndex,
    params: MappingParams = MappingParams(),
    expansion_budget: int = 200_000,
) -> MappingResult:
    """Minimum-cost mapping over all anchored walks; cost never exceeds the
    greedy mapper's on the same input.  Each strand is a regime of its own:
    the first strand reaching the minimum wins, and a perfect first strand
    ends the search.  Unmapped, the reason is the worst over the strands.
    `expansion_budget` bounds each strand's candidate evaluations, over all
    the bounds its search deepens through; a strand that spends it fails
    with reason `budget_exceeded` and no walk, and the read is `truncated`,
    mapped or not, if any of its strands was."""
    search = partial(_exhaustive_pass, expansion_budget=expansion_budget)
    return _map(read, graph, params, *((search, anchor, (strand,)) for strand in params.strands))


# ---------------------------------------------------------------------------
# Streaming mapping: stateless per read over shared immutable structures.
# Reads are drawn in chunks, and at most 2 x workers chunks are in flight.
# Workers are forked so the graph and indexes are inherited, never pickled;
# only the reads' ids and sequences go out and the rendered results come
# back.  Output order always matches input order, whatever the worker count.

_WORKER_STATE: tuple | None = None  # set in each forked worker only


def _map_chunk(chunk, graph, anchor, interior, params, render) -> list:
    results = [map_read(r, graph, anchor, interior, params) for r in chunk]
    return results if render is None else [render(r) for r in results]


def _init_worker(*state) -> None:
    global _WORKER_STATE
    _WORKER_STATE = state


def _worker_chunk(pairs: list[tuple[str, str]]) -> list:
    return _map_chunk([Read(i, s) for i, s in pairs], *_WORKER_STATE)


def map_stream(
    reads: Iterable[Read],
    graph: CompactedGraph,
    anchor: AnchorIndex,
    interior: InteriorIndex,
    params: MappingParams = MappingParams(),
    threads: int = 1,
    chunk_size: int = 1024,
    render: Callable[[MappingResult], Any] | None = None,
) -> Iterator[list]:
    """Map a read stream chunk by chunk, yielding each chunk's results (or
    `render` of each result) as a list, in input order.

    Reads are drawn `chunk_size` at a time, so memory is bounded by the
    chunks in flight, never by the length of the input.  The workers are
    `threads` or the CPUs this process may run on, whichever is fewer.  With
    one worker, or when the input holds a single chunk, each chunk is mapped
    in this process.  Otherwise a forked pool maps them: at most 2 x workers
    chunks are drawn ahead of the one being yielded, and each worker
    applies `render` before its results cross the pipe.  The objects that
    exist when mapping starts, the caller's among them, stay frozen
    (`gc.freeze`) until the stream ends or is closed."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    state = (graph, anchor, interior, params, render)
    source = iter(reads)
    chunks = iter(lambda: list(islice(source, chunk_size)), [])
    # the CPUs this process may run on: its affinity set where there is one
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(threads, cpus or 1)
    head = list(islice(chunks, 2 if workers > 1 else 1))
    ctx = _fork_context() if len(head) > 1 else None
    # every junction looks up the path's last word in the anchor table, which
    # holds the candidates' texts from its build: nothing is filled per stream,
    # and a forked worker inherits the table as it stands.
    # frozen objects are left out of every collection, here and in any
    # workers: a full collection walks only what mapping makes, not the
    # graph, the indexes and all the caller holds, and no side writes to the
    # pages a pool shares
    gc.freeze()
    try:
        if ctx is None:
            for chunk in chain(head, chunks):
                yield _map_chunk(chunk, *state)
            return
        with ctx.Pool(workers, _init_worker, state) as pool:
            pending = deque()
            for chunk in chain(head, chunks):
                # (id, sequence) pairs pickle ~15x faster than Read objects
                pairs = [(r.id, r.sequence) for r in chunk]
                pending.append(pool.apply_async(_worker_chunk, (pairs,)))
                if len(pending) >= 2 * workers:
                    yield pending.popleft().get()
            while pending:
                yield pending.popleft().get()
    finally:
        gc.unfreeze()


def _fork_context():
    import multiprocessing  # only a forked pool needs it

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - no fork on this platform
        return None


def map_reads(
    reads: Iterable[Read],
    graph: CompactedGraph,
    anchor: AnchorIndex,
    interior: InteriorIndex,
    params: MappingParams = MappingParams(),
    threads: int = 1,
    chunk_size: int = 1024,
) -> list[MappingResult]:
    """Every read's `MappingResult`, in input order: `map_stream` collected
    into one list, so memory grows with the input.  Callers that stream,
    like `cdbgmap map`, iterate `map_stream` instead."""
    return list(chain.from_iterable(
        map_stream(reads, graph, anchor, interior, params, threads, chunk_size)
    ))
