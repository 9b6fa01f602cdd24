"""Sampled suffix arrays for locate queries.

BWaveR keeps the *full* suffix array in host memory and resolves match
positions there after the FPGA returns ``[start, end]`` row intervals
(paper §III-C: "the positions ... are retrieved by the host CPU, in the
corresponding sets of the suffix array").  :class:`FullSA` models exactly
that.

Production FM-index mappers (BWA, Bowtie2) instead keep every ``k``-th SA
entry and recover the rest by LF-walking to the nearest sampled row —
trading locate time for memory.  :class:`SampledSA` implements that
scheme; it backs the Bowtie2-like baseline and the memory/time ablation.
"""

from __future__ import annotations

import numpy as np


class FullSA:
    """Host-resident full suffix array: O(1) locate per occurrence."""

    def __init__(self, sa: np.ndarray):
        self.sa = np.asarray(sa, dtype=np.int64)

    def locate(self, row: int, lf=None) -> int:
        """Text position of the suffix at matrix row ``row``."""
        if not 0 <= row < self.sa.size:
            raise IndexError(f"row {row} out of range [0, {self.sa.size})")
        return int(self.sa[row])

    def locate_range(self, start: int, end: int, lf=None, lf_many=None) -> np.ndarray:
        """Text positions for rows ``[start, end)`` (one per occurrence)."""
        if not 0 <= start <= end <= self.sa.size:
            raise IndexError("row range out of bounds")
        return self.sa[start:end].copy()

    def locate_rows(self, rows: np.ndarray, lf_many=None) -> np.ndarray:
        """Text positions for an arbitrary row array: one gather."""
        rows = np.asarray(rows, dtype=np.int64)
        _check_rows(rows, self.sa.size)
        return self.sa[rows]

    def size_in_bytes(self) -> int:
        return self.sa.nbytes

    def export_arrays(self) -> tuple[dict, dict[str, np.ndarray]]:
        return {}, {"sa": self.sa}

    @classmethod
    def from_arrays(cls, meta: dict, arrays: dict[str, np.ndarray]) -> "FullSA":
        """Wrap an externally owned suffix array (no copy for int64 input)."""
        self = cls.__new__(cls)
        self.sa = arrays["sa"]
        return self


class SampledSA:
    """Every-``k``-th-row SA sample with LF-walk recovery.

    Parameters
    ----------
    sa:
        The full suffix array (consumed at build time; only rows where
        ``row % k == 0`` are retained).
    k:
        Sampling rate: every ``k``-th *row* keeps its SA entry, so a
        locate walks about ``k`` LF steps on average (:meth:`locate_rows`).
    """

    def __init__(self, sa: np.ndarray, k: int = 32):
        if k < 1:
            raise ValueError(f"sampling rate must be >= 1, got {k}")
        sa = np.asarray(sa, dtype=np.int64)
        self.k = int(k)
        self.n_rows = int(sa.size)
        self.samples = sa[::k].copy()

    def locate(self, row: int, lf) -> int:
        """Text position of the suffix at ``row``.

        ``lf`` is a callable mapping a row to its last-first image (e.g.
        :meth:`repro.core.bwt_structure.BWTStructure.lf`).  Each LF step
        moves to the row of the one-character-longer suffix, i.e. the
        suffix position decreases... — concretely: if ``row`` holds the
        suffix starting at text position ``p``, then ``lf(row)`` holds the
        suffix starting at ``p - 1`` (indices wrap through the sentinel),
        so after ``s`` steps landing on a sampled row holding position
        ``q``, the answer is ``q + s`` (mod the text+sentinel length).

        This row-at-a-time walk is the differential oracle for
        :meth:`locate_rows`; query paths use the wavefront.
        """
        if not 0 <= row < self.n_rows:
            raise IndexError(f"row {row} out of range [0, {self.n_rows})")
        steps = 0
        while row % self.k != 0:
            row = lf(row)
            steps += 1
        pos = int(self.samples[row // self.k]) + steps
        return pos % self.n_rows

    def locate_range(self, start: int, end: int, lf=None, lf_many=None) -> np.ndarray:
        """Text positions for rows ``[start, end)``: :meth:`locate_rows`
        over ``arange(start, end)``.

        Pass the backend's vectorized ``lf_many``; a scalar ``lf`` alone
        is lifted to a row-array callable, so both drive the same walk.
        """
        if not 0 <= start <= end <= self.n_rows:
            raise IndexError("row range out of bounds")
        if lf_many is None:
            if lf is None:
                raise TypeError("locate_range needs lf_many (or a scalar lf)")
            lf_many = _lift_scalar_lf(lf)
        return self.locate_rows(np.arange(start, end, dtype=np.int64), lf_many)

    def locate_rows(self, rows: np.ndarray, lf_many) -> np.ndarray:
        """Text positions for an arbitrary row array — one LF wavefront.

        Every unsampled row walks toward a sampled ancestor *together*:
        each iteration is one ``lf_many`` call over the rows still
        walking, and rows drop out as they land on a sample.  The call
        count is the longest single walk among ``rows``, however many
        rows or intervals they come from.  The sample is taken by row
        (``row % k == 0``), so that walk is ``k`` steps on average but
        not bounded by ``k - 1``; it always ends, at the latest at row 0
        (the sentinel suffix).  Positions come back in input-row order.
        """
        rows = np.array(rows, dtype=np.int64)
        _check_rows(rows, self.n_rows)
        k = self.k
        steps = np.zeros(rows.size, dtype=np.int64)
        live = np.flatnonzero(rows % k)
        cur = rows[live]
        walked = 0
        while live.size:
            cur = lf_many(cur)
            walked += 1
            landed = cur % k == 0
            if landed.any():
                rows[live[landed]] = cur[landed]
                steps[live[landed]] = walked
                keep = ~landed
                live, cur = live[keep], cur[keep]
        pos = self.samples[rows // k].astype(np.int64) + steps
        return pos % self.n_rows

    def size_in_bytes(self) -> int:
        return self.samples.nbytes

    def export_arrays(self) -> tuple[dict, dict[str, np.ndarray]]:
        return {"k": self.k, "n_rows": self.n_rows}, {"samples": self.samples}

    @classmethod
    def from_arrays(cls, meta: dict, arrays: dict[str, np.ndarray]) -> "SampledSA":
        """Wrap externally owned samples (no copy)."""
        self = cls.__new__(cls)
        self.k = int(meta["k"])
        self.n_rows = int(meta["n_rows"])
        self.samples = arrays["samples"]
        return self


def _check_rows(rows: np.ndarray, n_rows: int) -> None:
    if rows.size and (int(rows.min()) < 0 or int(rows.max()) >= n_rows):
        raise IndexError(f"row out of range [0, {n_rows})")


def _lift_scalar_lf(lf):
    """A row-array LF callable from a scalar one (for backends or tests
    that only have the scalar map)."""

    def lf_many(rows: np.ndarray) -> np.ndarray:
        return np.array([lf(int(r)) for r in rows], dtype=np.int64)

    return lf_many
