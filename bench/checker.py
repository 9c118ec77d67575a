"""Output checks for `cdbgmap map` TSVs, made from outside the program.

Nothing here imports the package under test.  A read fails when its row is
missing, out of order or malformed, or when a mapped row does not replay
against the unitig FASTA: consecutive path unitigs must share an exact
(k-1)-mer, and comparing the read (reverse-complemented for strand `-`)
with the spelled path at `start_offset` must reproduce exactly the
reported mismatch count and positions.
"""

from __future__ import annotations

import re

HEADER = (
    "read_id\tstatus\tstrand\tpath\tstart_offset\tmismatches\t"
    "mismatch_positions\tregime\treason"
)
REASONS = {"no_anchor", "begin_not_found", "end_not_found", "cover_failed",
           "budget_exceeded"}
_TOKEN = re.compile(r"u(\d+)([+-])\Z")
_COMPLEMENT = str.maketrans("ACGTN", "TGCAN")


def revcomp(seq: str) -> str:
    return seq.translate(_COMPLEMENT)[::-1]


def read_fastx(path: str) -> list[tuple[str, str]]:
    """(id, sequence) records of a FASTA or FASTQ file, in file order."""
    records = []
    with open(path, encoding="ascii") as fh:
        first = fh.read(1)
        fh.seek(0)
        if first == "@":
            lines = fh.read().split("\n")
            for i in range(0, len(lines) - 3, 4):
                records.append((lines[i][1:].split()[0], lines[i + 1]))
        else:
            name, chunks = None, []
            for line in fh:
                line = line.rstrip("\n")
                if line.startswith(">"):
                    if name is not None:
                        records.append((name, "".join(chunks)))
                    name, chunks = line[1:].split()[0], []
                elif line:
                    chunks.append(line)
            if name is not None:
                records.append((name, "".join(chunks)))
    return records


def read_unitigs(path: str) -> list[str]:
    """Unitig sequences indexed by id, from the `u<id>` FASTA headers."""
    records = read_fastx(path)
    unitigs = [""] * len(records)
    for name, seq in records:
        unitigs[int(name[1:])] = seq
    return unitigs


class Replayer:
    """Replays mapped rows against the unitig sequences."""

    def __init__(self, unitigs: list[str], k: int, max_mismatches: int):
        self.unitigs = unitigs
        self.k1 = k - 1
        self.max_mismatches = max_mismatches
        self._rc: dict[int, str] = {}

    def _oriented(self, uid: int, orient: str) -> str:
        if orient == "+":
            return self.unitigs[uid]
        seq = self._rc.get(uid)
        if seq is None:
            seq = self._rc[uid] = revcomp(self.unitigs[uid])
        return seq

    def row_error(self, fields: list[str], read: str) -> str | None:
        """Why a row is wrong for this read, or None when it checks out."""
        if len(fields) != 9:
            return "wrong column count"
        _, status, strand, path, start, mism, positions, regime, reason = fields
        if status == "unmapped":
            if (strand, path, start, mism, positions) != (".",) * 5:
                return "unmapped row carries a placement"
            if regime != "unmapped" or reason not in REASONS:
                return "bad unmapped regime or reason"
            return None
        if status != "mapped" or strand not in "+-" or reason != ".":
            return "bad status, strand or reason"
        try:
            tokens = [_TOKEN.match(t) for t in path.split(",")]
            if not all(tokens):
                return "bad path token"
            steps = [(int(m.group(1)), m.group(2)) for m in tokens]
            offset = int(start)
            count = int(mism)
            listed = [] if positions == "." else [int(p) for p in positions.split(",")]
        except ValueError:
            return "non-integer field"
        if any(uid >= len(self.unitigs) for uid, _ in steps):
            return "unknown unitig"
        if regime != ("single_unitig" if len(steps) == 1 else "branching_path"):
            return "regime does not match path length"
        if count != len(listed) or count > self.max_mismatches:
            return "mismatch count wrong or over budget"
        seqs = [self._oriented(uid, o) for uid, o in steps]
        k1 = self.k1
        for a, b in zip(seqs, seqs[1:]):
            if a[-k1:] != b[:k1]:
                return "consecutive unitigs do not overlap by k-1"
        if not 0 <= offset < len(seqs[0]):
            return "start_offset outside the first unitig"
        text = read if strand == "+" else revcomp(read)
        need = offset + len(text)
        spelled = [seqs[0]]
        have = len(seqs[0])
        for s in seqs[1:]:
            if have >= need:
                break
            spelled.append(s[k1:])
            have += len(s) - k1
        target = "".join(spelled)[offset:need]
        if len(target) != len(text):
            return "read runs past the path end"
        actual = [i for i, (x, y) in enumerate(zip(text, target)) if x != y]
        if actual != listed:
            return "mismatches do not replay"
        return None


def check_tsv(text: str, reads: list[tuple[str, str]], replayer: Replayer):
    """Check one TSV against the reads it was made from.

    Returns (failed read ids, {read id: fields} for the rows found)."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != HEADER:
        return {rid for rid, _ in reads}, {}
    rows = [line.split("\t") for line in lines[1:]]
    failed = set()
    by_id = {}
    for i, (rid, _) in enumerate(reads):
        if i >= len(rows) or rows[i][0] != rid:
            failed.add(rid)  # missing, dropped or out of input order
    sequences = dict(reads)
    for fields in rows:
        rid = fields[0]
        if rid not in sequences or rid in by_id:
            failed.add(rid)
            continue
        by_id[rid] = fields
        if replayer.row_error(fields, sequences[rid]) is not None:
            failed.add(rid)
    return failed, by_id


def self_test(text: str, reads: list[tuple[str, str]], replayer: Replayer) -> dict:
    """Inject one defect at a time into a clean TSV and count the failures.

    The defects are a wrong mismatch position, a dropped row and two swapped
    rows.  Returns {case: failed read count}; the clean case must be 0 and
    every defect above 0."""
    lines = text.rstrip("\n").split("\n")
    header, rows = lines[0], lines[1:]
    mapped = [i for i, row in enumerate(rows) if row.split("\t")[1] == "mapped"]
    if len(rows) < 3 or not mapped:
        raise ValueError("self-test needs at least 3 rows and one mapped row")

    def wrong_position(rows):
        fields = rows[mapped[0]].split("\t")
        listed = [] if fields[6] == "." else [int(p) for p in fields[6].split(",")]
        moved = min(set(range(len(listed) + 1)) - set(listed))
        listed = sorted(listed[:-1] + [moved])
        fields[5], fields[6] = str(len(listed)), ",".join(map(str, listed))
        rows[mapped[0]] = "\t".join(fields)
        return rows

    def dropped(rows):
        del rows[len(rows) // 2]
        return rows

    def swapped(rows):
        rows[0], rows[1] = rows[1], rows[0]
        return rows

    out = {}
    for name, defect in (("clean", lambda r: r), ("wrong_position", wrong_position),
                         ("dropped_row", dropped), ("swapped_rows", swapped)):
        bad = "\n".join([header] + defect(list(rows))) + "\n"
        out[name] = len(check_tsv(bad, reads, replayer)[0])
    return out


def self_test_ok(counts: dict) -> bool:
    return counts["clean"] == 0 and all(
        n > 0 for name, n in counts.items() if name != "clean"
    )
