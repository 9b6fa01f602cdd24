"""Exact-match read mapping over an FM-index (paper workflow step 3).

For every read :math:`\\mathcal{X}`, BWaveR maps both :math:`\\mathcal{X}`
and its reverse complement :math:`\\overline{\\mathcal{X}}` onto the
reference and reports the SA intervals of both strands; positions are
resolved on the host from the suffix array.  :class:`Mapper` implements
that contract on the software side — the FPGA kernel in
:mod:`repro.fpga.kernel` implements the same contract and the tests assert
bit-identical intervals between the two.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..index.fm_index import FMIndex, SearchResult
from ..sequence.alphabet import AlphabetError, is_valid, reverse_complement
from ..telemetry import get_telemetry
from .results import BatchHits, MappingResult


class Mapper:
    """Both-strand exact mapper bound to an :class:`FMIndex`.

    Reads containing characters outside the alphabet (``N``, IUPAC
    codes, garbage) are *not* searched and *not* fatal: they come back
    unmapped with ``reason == REASON_INVALID_BASE`` and bump the
    ``reads_invalid`` counter, so one bad read cannot kill a batch, a
    pool task, or a web job (DESIGN.md §9).

    Parameters
    ----------
    index:
        The query index (any backend).
    locate:
        When true, SA intervals are resolved to sorted text positions
        (requires the index to carry a locate structure).  Counting-only
        mapping (the FPGA's on-device output) sets this false.
    """

    def __init__(self, index: FMIndex, locate: bool = True):
        self.index = index
        self.locate = bool(locate)
        if self.locate and index.locate_structure is None:
            raise ValueError(
                "locate=True requires an index with a locate structure; "
                "build with locate='full' or 'sampled', or pass locate=False"
            )

    def _count_invalid(self, n: int) -> None:
        """Charge ``n`` reads refused by the N-policy."""
        if not n:
            return
        self.index.counters.reads_invalid += n
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter(
                "reads_invalid_total",
                "Reads rejected by the alphabet policy (reported unmapped)",
                labelnames=("path",),
            ).inc(n, path="mapper")

    def _hits(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        steps: np.ndarray,
        lengths: np.ndarray,
        invalid: np.ndarray,
    ) -> BatchHits:
        """Assemble a :class:`BatchHits`, resolving every row of every
        interval in one :meth:`locate_rows` wavefront when locating."""
        offsets = positions = None
        if self.locate:
            counts = np.maximum(hi - lo, 0).ravel()
            offsets = np.zeros(counts.size + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            total = int(offsets[-1])
            rows = np.repeat(lo.ravel() - offsets[:-1], counts) + np.arange(total)
            positions = self.index.locate_structure.locate_rows(
                rows, self.index.backend.lf_many
            )
            if np.any(counts > 1):
                # Sort within each interval: key = interval * n + position
                # keeps intervals in order and positions (< n) inside them.
                n = np.int64(self.index.n_rows)
                seg = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
                key = seg * n + positions
                key.sort()
                positions = key - seg * n
        return BatchHits(
            lo=lo,
            hi=hi,
            steps=steps,
            lengths=lengths,
            invalid=invalid,
            pos_offsets=offsets,
            positions=positions,
        )

    def map_read(self, sequence: str, read_id: int = 0, read_name: str | None = None) -> MappingResult:
        """Map one read and its reverse complement (scalar search)."""
        invalid = False
        try:
            fwd = self.index.search(sequence)
            rc = self.index.search(reverse_complement(sequence))
        except AlphabetError:
            invalid = True
            self._count_invalid(1)
            fwd = rc = SearchResult(start=0, end=0, steps=0)
        hits = self._hits(
            np.array([[fwd.start, rc.start]], dtype=np.int64),
            np.array([[fwd.end, rc.end]], dtype=np.int64),
            np.array([[fwd.steps, rc.steps]], dtype=np.int64),
            np.array([len(sequence)], dtype=np.int64),
            np.array([invalid]),
        )
        names = [read_name] if read_name is not None else None
        return hits.to_results(names, first_id=read_id)[0]

    def map_batch(self, sequences: Sequence[str]) -> BatchHits:
        """Map many reads with the vectorized search; columnar result.

        Reads outside the alphabet are screened out before the search
        and come back with empty intervals and the ``invalid`` flag.
        """
        seqs = list(sequences)
        n = len(seqs)
        lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=n)
        invalid = ~np.fromiter(map(is_valid, seqs), dtype=bool, count=n)
        valid = np.flatnonzero(~invalid)
        fwd = [seqs[i] for i in valid]
        lo_f, hi_f, st_f = self.index.search_batch(
            fwd + [reverse_complement(s) for s in fwd]
        )
        lo = np.zeros((n, 2), dtype=np.int64)
        hi = np.zeros((n, 2), dtype=np.int64)
        steps = np.zeros((n, 2), dtype=np.int64)
        for arr, flat in ((lo, lo_f), (hi, hi_f), (steps, st_f)):
            arr[valid] = flat.reshape(2, valid.size).T
        self._count_invalid(int(n - valid.size))
        return self._hits(lo, hi, steps, lengths, invalid)

    def map_reads(
        self,
        sequences: Sequence[str],
        names: Sequence[str] | None = None,
        batch: bool = True,
    ) -> list[MappingResult]:
        """Map many reads; ``batch=True`` uses the vectorized search path.

        Results are identical either way (tests enforce it); the batched
        path groups the per-step rank queries of all live reads, which is
        how the numpy implementation approximates the FPGA's
        many-in-flight execution.
        """
        if names is not None and len(names) != len(sequences):
            raise ValueError("names must match sequences in length")
        if not batch:
            return [
                self.map_read(s, read_id=i, read_name=names[i] if names else None)
                for i, s in enumerate(sequences)
            ]
        tel = get_telemetry()
        with tel.span("mapper.map_reads", cat="mapper", n_reads=len(sequences)):
            hits = self.map_batch(sequences)
            results = hits.to_results(names)
        if tel.enabled:
            m = tel.metrics
            m.counter("mapper_reads_total", "Reads mapped (both strands)").inc(
                len(results)
            )
            m.counter("mapper_mapped_reads_total", "Reads with at least one hit").inc(
                int(np.count_nonzero(hits.mapped))
            )
        return results

    def count_occurrences(self, sequence: str) -> int:
        """Total exact occurrences on both strands (0 for invalid reads)."""
        try:
            return self.index.count(sequence) + self.index.count(
                reverse_complement(sequence)
            )
        except AlphabetError:
            self.index.counters.reads_invalid += 1
            return 0
