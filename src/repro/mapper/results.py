"""Mapping results and their text output formats.

BWaveR reports, per read, the SA intervals of the forward sequence and of
its reverse complement; the host then resolves intervals to positions in
the suffix array.  :class:`MappingResult` carries exactly that, and
:func:`write_hits_tsv` / :func:`to_sam_lines` provide the downloadable
outputs of the web workflow (a plain hits table, and a minimal SAM-like
rendering for interoperability demos).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from ..index.fm_index import SearchResult


@dataclass(frozen=True)
class StrandHit:
    """One strand's search outcome for a read."""

    interval: SearchResult
    positions: np.ndarray | None = None

    @property
    def count(self) -> int:
        return self.interval.count

    @property
    def found(self) -> bool:
        return self.interval.found


#: Reason code for reads rejected by the alphabet policy (``N``, IUPAC
#: ambiguity codes, or other non-ACGT/U characters).  Such reads are
#: reported unmapped with this reason instead of raising out of the
#: mapper (DESIGN.md §9's N-policy).
REASON_INVALID_BASE = "invalid_base"


@dataclass(frozen=True)
class MappingResult:
    """Outcome of mapping one read (and its reverse complement).

    ``reason`` is ``None`` for reads that went through the search, and a
    reason code (currently only :data:`REASON_INVALID_BASE`) for reads
    the mapper refused without searching.
    """

    read_id: int
    read_name: str
    length: int
    forward: StrandHit
    reverse: StrandHit
    reason: str | None = None

    @property
    def mapped(self) -> bool:
        """True when either strand matches (the paper's "mapped read")."""
        return self.forward.found or self.reverse.found

    @property
    def total_occurrences(self) -> int:
        return self.forward.count + self.reverse.count

    @property
    def steps(self) -> int:
        """Backward-search steps consumed across both strands.

        On the FPGA the two searches run in lockstep pipelines, so the
        *hardware* step count is ``max``; this property is the *software*
        (sequential) total.  The cost models pick whichever applies.
        """
        return self.forward.interval.steps + self.reverse.interval.steps

    @property
    def hardware_steps(self) -> int:
        return max(self.forward.interval.steps, self.reverse.interval.steps)


@dataclass(frozen=True)
class BatchHits:
    """Columnar outcome of mapping a batch of ``n`` reads, both strands.

    Column 0 of the ``(n, 2)`` arrays is the read, column 1 its reverse
    complement.  Positions are stored CSR-style over the ``2n`` strand
    intervals in row-major order: interval ``2 * i + s`` owns
    ``positions[pos_offsets[2 * i + s] : pos_offsets[2 * i + s + 1]]``,
    sorted ascending.  Both CSR arrays are ``None`` for counting-only
    mapping.  This is what pool workers ship back; :meth:`to_results`
    builds the per-read :class:`MappingResult` objects at the API edge.
    """

    lo: np.ndarray
    hi: np.ndarray
    steps: np.ndarray
    lengths: np.ndarray
    #: Reads refused by the alphabet policy (reason ``invalid_base``).
    invalid: np.ndarray
    pos_offsets: np.ndarray | None = None
    positions: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.lengths.size)

    @property
    def mapped(self) -> np.ndarray:
        """Per-read flag: either strand matches."""
        return np.any(self.hi > self.lo, axis=1)

    def __getitem__(self, key: slice) -> "BatchHits":
        return self.take(np.arange(len(self), dtype=np.int64)[key])

    def take(self, order: np.ndarray) -> "BatchHits":
        """The reads at indices ``order``, in that order."""
        order = np.asarray(order, dtype=np.int64)
        offsets = positions = None
        if self.pos_offsets is not None:
            src = (2 * order[:, None] + np.arange(2)).ravel()
            counts = self.pos_offsets[src + 1] - self.pos_offsets[src]
            offsets = np.zeros(src.size + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            gather = np.repeat(self.pos_offsets[src] - offsets[:-1], counts)
            positions = self.positions[gather + np.arange(offsets[-1])]
        return BatchHits(
            lo=self.lo[order],
            hi=self.hi[order],
            steps=self.steps[order],
            lengths=self.lengths[order],
            invalid=self.invalid[order],
            pos_offsets=offsets,
            positions=positions,
        )

    @classmethod
    def concat(cls, parts: Sequence["BatchHits"]) -> "BatchHits":
        """The reads of ``parts`` back to back."""
        offsets = positions = None
        if parts and parts[0].pos_offsets is not None:
            base = np.cumsum([0] + [p.positions.size for p in parts[:-1]])
            offsets = np.concatenate(
                [[0]] + [p.pos_offsets[1:] + b for p, b in zip(parts, base)]
            ).astype(np.int64)
            positions = np.concatenate([p.positions for p in parts])
        return cls(
            lo=np.concatenate([p.lo for p in parts]),
            hi=np.concatenate([p.hi for p in parts]),
            steps=np.concatenate([p.steps for p in parts]),
            lengths=np.concatenate([p.lengths for p in parts]),
            invalid=np.concatenate([p.invalid for p in parts]),
            pos_offsets=offsets,
            positions=positions,
        )

    def to_results(
        self, names: Sequence[str] | None = None, first_id: int = 0
    ) -> list[MappingResult]:
        """Per-read results; read ``i`` gets id ``first_id + i`` and
        ``names[i]`` (default ``read<id>``)."""
        lo, hi, steps = self.lo.tolist(), self.hi.tolist(), self.steps.tolist()
        lengths, invalid = self.lengths.tolist(), self.invalid.tolist()
        offs = self.pos_offsets.tolist() if self.pos_offsets is not None else None
        out = []
        for i in range(len(lengths)):
            strands = []
            for s in (0, 1):
                pos = None
                if offs is not None:
                    pos = self.positions[offs[2 * i + s] : offs[2 * i + s + 1]]
                iv = SearchResult(start=lo[i][s], end=hi[i][s], steps=steps[i][s])
                strands.append(StrandHit(iv, pos))
            rid = first_id + i
            out.append(
                MappingResult(
                    read_id=rid,
                    read_name=names[i] if names else f"read{rid}",
                    length=lengths[i],
                    forward=strands[0],
                    reverse=strands[1],
                    reason=REASON_INVALID_BASE if invalid[i] else None,
                )
            )
        return out


def mapping_ratio(results: Sequence[MappingResult]) -> float:
    """Fraction of reads with at least one hit (Fig. 7's x-axis)."""
    if not results:
        return 0.0
    return sum(1 for r in results if r.mapped) / len(results)


def renumber(results: Sequence, shift: int) -> list:
    """``results`` with every ``read_id`` moved by ``shift``.

    This is how a slice of one batch becomes what an independent call
    over the same reads returns (the coalescer's demux, ``shift`` < 0)
    and how per-batch results get stream-global ids (the streaming
    mappers, ``shift`` > 0).  A :class:`MappingResult` keeps its default
    ``read<id>`` name in step with the id; any other frozen result
    dataclass keyed by ``read_id`` (the shard router's
    :class:`~repro.index.multiref.MultiRefMapping`) only moves its id.
    """
    if shift == 0:
        return list(results)
    out: list = []
    for r in results:
        rid = r.read_id + shift
        if isinstance(r, MappingResult):
            out.append(
                MappingResult(
                    read_id=rid,
                    read_name=f"read{rid}",
                    length=r.length,
                    forward=r.forward,
                    reverse=r.reverse,
                    reason=r.reason,
                )
            )
        else:
            out.append(dataclasses.replace(r, read_id=rid))
    return out


#: Column header of the hits TSV.
TSV_HEADER = "read\tlength\tfwd_count\trc_count\tfwd_positions\trc_positions\n"


def write_hits_tsv(
    results: Iterable[MappingResult], fh: IO[str], header: bool = True
) -> int:
    """Write one row per read: name, strand counts, and positions.

    Returns the number of rows written.  This is the primary download of
    the web workflow.  Streaming writers emit :data:`TSV_HEADER` once and
    then call this with ``header=False`` per batch.
    """
    if header:
        fh.write(TSV_HEADER)
    rows = 0
    for r in results:
        fpos = (
            ",".join(map(str, r.forward.positions.tolist()))
            if r.forward.positions is not None and r.forward.positions.size
            else "."
        )
        rpos = (
            ",".join(map(str, r.reverse.positions.tolist()))
            if r.reverse.positions is not None and r.reverse.positions.size
            else "."
        )
        fh.write(
            f"{r.read_name}\t{r.length}\t{r.forward.count}\t{r.reverse.count}"
            f"\t{fpos}\t{rpos}\n"
        )
        rows += 1
    return rows


def to_sam_lines(
    results: Iterable[MappingResult],
    reads: Sequence[str],
    reference_name: str = "ref",
    reference_length: int = 0,
) -> list[str]:
    """Minimal SAM rendering of exact-match results.

    One line per located occurrence (or one unmapped line per read with
    no hits).  Flags used: 0 forward, 16 reverse, 4 unmapped; CIGAR is
    always full-length ``M`` because BWaveR reports exact matches only.
    """
    lines = [
        "@HD\tVN:1.6\tSO:unknown",
        f"@SQ\tSN:{reference_name}\tLN:{reference_length}",
        "@PG\tID:bwaver-repro\tPN:bwaver-repro",
    ]
    for r in results:
        seq = reads[r.read_id]
        emitted = False
        for strand, hit, flag in (("+", r.forward, 0), ("-", r.reverse, 16)):
            if hit.positions is None:
                continue
            for pos in hit.positions.tolist():
                lines.append(
                    f"{r.read_name}\t{flag}\t{reference_name}\t{pos + 1}\t255"
                    f"\t{r.length}M\t*\t0\t0\t{seq}\t*"
                )
                emitted = True
        if not emitted:
            lines.append(f"{r.read_name}\t4\t*\t0\t0\t*\t*\t0\t0\t{seq}\t*")
    return lines
