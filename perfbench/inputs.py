"""Seeded inputs and the exact-match oracle.

Everything here is independent of the program under test: references
and reads come from numpy's seeded generator, and the oracle finds
exact occurrences with a sorted k-mer table plus a full string compare
of every candidate, so it shares no code with the FM-index.
"""

from __future__ import annotations

import numpy as np

BASES = np.frombuffer(b"ACGT", dtype=np.uint8)
_COMP = str.maketrans("ACGT", "TGCA")
KMER = 16


def revcomp(seq: str) -> str:
    return seq.translate(_COMP)[::-1]


def make_reference(
    n: int,
    rng: np.random.Generator,
    gc: float = 0.508,
    repeat_fraction: float = 0.05,
    repeat_unit_mean: int = 800,
    divergence: float = 0.02,
) -> str:
    """GC-biased random DNA where ``repeat_fraction`` of the length is
    copied from earlier loci with ``divergence`` point mutations, so some
    reads map to several places."""
    at, cg = (1 - gc) / 2, gc / 2
    codes = rng.choice(4, size=n, p=[at, cg, cg, at]).astype(np.uint8)
    budget = int(n * repeat_fraction)
    while budget > 0:
        unit = min(budget, max(50, int(rng.exponential(repeat_unit_mean))))
        src = int(rng.integers(0, n - unit))
        dst = int(rng.integers(0, n - unit))
        copy = codes[src : src + unit].copy()
        mut = rng.random(unit) < divergence
        copy[mut] = rng.integers(0, 4, size=int(mut.sum()))
        codes[dst : dst + unit] = copy
        budget -= unit
    return BASES[codes].tobytes().decode()


def make_reads(
    ref: str, n: int, length: int, mapped_share: float, rng: np.random.Generator
) -> list[str]:
    """``round(n * mapped_share)`` reads cut from ``ref`` (half of them
    reverse-complemented), the rest random; shuffled together."""
    n_mapped = int(round(n * mapped_share))
    starts = rng.integers(0, len(ref) - length + 1, size=n_mapped)
    flips = rng.random(n_mapped) < 0.5
    reads = [
        revcomp(ref[s : s + length]) if f else ref[s : s + length]
        for s, f in zip(starts.tolist(), flips.tolist())
    ]
    rand = BASES[rng.integers(0, 4, size=(n - n_mapped, length))]
    reads += [row.tobytes().decode() for row in rand]
    order = rng.permutation(n)
    return [reads[i] for i in order]


def write_fasta(path, name: str, seq: str) -> None:
    with open(path, "w") as fh:
        fh.write(f">{name}\n")
        for i in range(0, len(seq), 80):
            fh.write(seq[i : i + 80] + "\n")


def write_fastq(path, reads: list[str]) -> None:
    with open(path, "w") as fh:
        for i, r in enumerate(reads):
            fh.write(f"@r{i}\n{r}\n+\n{'I' * len(r)}\n")


def _kmer_keys(codes: np.ndarray) -> np.ndarray:
    """Integer key of the k-mer starting at each position of ``codes``
    (rows of a 2-D array, or every window of a 1-D array)."""
    if codes.ndim == 2:
        keys = np.zeros(codes.shape[0], dtype=np.uint32)
        for j in range(KMER):
            keys = (keys << np.uint32(2)) | codes[:, j].astype(np.uint32)
        return keys
    m = codes.size - KMER + 1
    keys = np.zeros(m, dtype=np.uint32)
    for j in range(KMER):
        keys = (keys << np.uint32(2)) | codes[j : j + m].astype(np.uint32)
    return keys


def _codes(seqs) -> np.ndarray:
    lut = np.zeros(256, dtype=np.uint8)
    lut[BASES] = np.arange(4, dtype=np.uint8)
    return lut[np.frombuffer("".join(seqs).encode(), dtype=np.uint8)]


class Oracle:
    """Exact occurrences of patterns of length >= ``KMER`` in one reference."""

    def __init__(self, ref: str):
        self.ref = ref
        keys = _kmer_keys(_codes([ref]))
        self._order = np.argsort(keys, kind="stable")
        self._keys = keys[self._order]

    def find(self, patterns: list[str]) -> list[list[int]]:
        """Sorted positions of every pattern (all the same length)."""
        if not patterns:
            return []
        length = len(patterns[0])
        heads = _codes([p[:KMER] for p in patterns]).reshape(len(patterns), KMER)
        keys = _kmer_keys(heads)
        lo = np.searchsorted(self._keys, keys, side="left")
        hi = np.searchsorted(self._keys, keys, side="right")
        ref = self.ref
        out = []
        for p, a, b in zip(patterns, lo.tolist(), hi.tolist()):
            cands = self._order[a:b].tolist()
            out.append(sorted(c for c in cands if ref[c : c + length] == p))
        return out

    def both_strands(self, reads: list[str]) -> list[tuple[list[int], list[int]]]:
        fwd = self.find(reads)
        rc = self.find([revcomp(r) for r in reads])
        return list(zip(fwd, rc))
