"""Batch-wide locate: one LF wavefront over every row of a read batch.

``Mapper.map_batch`` returns columnar :class:`BatchHits`; these tests pin
its positions to the per-row scalar oracle (``SampledSA.locate`` /
the full suffix array) across backends, locate structures and the k-mer
table, and pin the dispatch shape of the wavefront itself.
"""

import numpy as np
import pytest

from repro.core.bitvector import BitVector
from repro.core.bwt_structure import BWTStructure
from repro.core.counters import OpCounters
from repro.index.builder import build_index
from repro.mapper.mapper import Mapper
from repro.mapper.results import REASON_INVALID_BASE, BatchHits
from repro.sequence.alphabet import encode, reverse_complement
from repro.sequence.bwt import bwt_from_codes

TEXT = (
    "ACGTTGCAAGGCTTAACCGATCGATTACAGGCTAGCTAGGATCCATGCAAAGTTCGACCTGAA"
    "TTGGCACGTACGATCGGATCCTTAGAACGTGCATGCAGTCAGTAGCTAGCTAACGGTTAAGC"
)


def _reads():
    return [
        TEXT[:24],  # a text prefix: its interval holds the sentinel's BWT row
        TEXT[40:72],
        reverse_complement(TEXT[90:120]),
        "A",  # 1-base read: one row per A in the text
        "",  # empty read: every text position
        "ACGTNACGT",  # invalid: unmapped, reason invalid_base
        "GGGGGGGGGGGGGGGG",  # empty interval on both strands
        "ACGT" * 12,
        TEXT[-12:],
    ]


def _oracle(index, lo, hi):
    """Sorted positions of rows [lo, hi) through the scalar oracle."""
    loc = index.locate_structure
    if hasattr(loc, "samples"):
        pos = [loc.locate(r, index.backend.lf) for r in range(lo, hi)]
    else:
        pos = [int(loc.sa[r]) for r in range(lo, hi)]
    return sorted(pos)


@pytest.mark.parametrize("backend", ["rrr", "occ"])
@pytest.mark.parametrize("locate,rate", [("full", 32), ("sampled", 3), ("sampled", 32)])
@pytest.mark.parametrize("ftab_k", [None, 4])
def test_batch_hits_match_scalar_oracle(backend, locate, rate, ftab_k):
    index, _ = build_index(
        TEXT, sf=8, backend=backend, locate=locate, sa_sample_rate=rate, ftab_k=ftab_k
    )
    reads = _reads()
    hits = Mapper(index, locate=True).map_batch(reads)
    assert len(hits) == len(reads)
    assert hits.pos_offsets.size == 2 * len(reads) + 1
    sentinel_seen = False
    for i, read in enumerate(reads):
        assert bool(hits.invalid[i]) == (read == "ACGTNACGT")
        for s in (0, 1):
            lo, hi = int(hits.lo[i, s]), int(hits.hi[i, s])
            got = hits.positions[hits.pos_offsets[2 * i + s] : hits.pos_offsets[2 * i + s + 1]]
            assert got.tolist() == _oracle(index, lo, max(lo, hi)), (read, s)
            sentinel_seen |= lo <= index.backend.dollar_pos < hi
    assert sentinel_seen
    # The 1-base read hits every A (and, on the reverse strand, every T).
    a = reads.index("A")
    assert int(hits.hi[a, 0] - hits.lo[a, 0]) == TEXT.count("A")
    # The invalid read and the absent one have empty intervals.
    for r in ("ACGTNACGT", "GGGGGGGGGGGGGGGG"):
        j = reads.index(r)
        assert np.all(hits.hi[j] == hits.lo[j])


@pytest.mark.parametrize("backend", ["rrr", "occ"])
def test_map_reads_equals_scalar_map_read(backend):
    index, _ = build_index(TEXT, sf=8, backend=backend, locate="sampled", sa_sample_rate=5)
    mapper = Mapper(index, locate=True)
    reads = _reads()
    batch = mapper.map_reads(reads)
    for i, (b, read) in enumerate(zip(batch, reads)):
        a = mapper.map_read(read, read_id=i)
        assert (a.read_id, a.read_name, a.length, a.reason) == (
            b.read_id, b.read_name, b.length, b.reason
        )
        for ha, hb in ((a.forward, b.forward), (a.reverse, b.reverse)):
            assert ha.interval == hb.interval
            assert ha.positions.tolist() == hb.positions.tolist()
    assert batch[reads.index("ACGTNACGT")].reason == REASON_INVALID_BASE


def test_counting_only_batch_has_no_positions():
    index, _ = build_index(TEXT, sf=8, locate="sampled", sa_sample_rate=4)
    hits = Mapper(index, locate=False).map_batch(_reads())
    assert hits.pos_offsets is None and hits.positions is None
    assert all(r.forward.positions is None for r in hits.to_results())


def test_wavefront_dispatch_shape(monkeypatch):
    """map_reads on a sampled index makes no scalar LF call, and its
    lf_many call count is the longest single LF walk among the located
    rows, whatever the number of intervals in the batch."""
    k = 8
    index, _ = build_index(TEXT, sf=8, locate="sampled", sa_sample_rate=k)
    backend = index.backend
    mapper = Mapper(index, locate=True)
    reads = [r for r in _reads() if r != "ACGTNACGT"]

    # Longest walk, through the scalar oracle (before LF is patched).
    walks = []
    for read in reads:
        for seq in (read, reverse_complement(read)):
            res = index.search(seq)
            for row in range(res.start, res.end):
                n = 0
                while row % k:
                    row, n = backend.lf(row), n + 1
                walks.append(n)
    longest = max(walks)
    assert longest > 0

    def no_scalar(*_):
        raise AssertionError("scalar lf on the batch path")

    calls = []
    real = backend.lf_many

    def counting(rows):
        calls.append(rows.size)
        return real(rows)

    monkeypatch.setattr(backend, "lf", no_scalar)
    monkeypatch.setattr(backend, "lf_many", counting)
    mapper.map_reads(reads)
    assert len(calls) == longest
    # Four times the intervals, the same number of wavefront steps.
    calls.clear()
    mapper.map_reads(reads * 4)
    assert len(calls) == longest
    # The wavefront only shrinks: each step advances the rows still walking.
    assert calls == sorted(calls, reverse=True)


def test_batch_hits_take_and_concat_roundtrip():
    index, _ = build_index(TEXT, sf=8, locate="full")
    mapper = Mapper(index, locate=True)
    reads = _reads()
    hits = mapper.map_batch(reads)
    # Round-robin split into 2 shards and back, as the pool does.
    parts = [hits.take(np.arange(i, len(reads), 2)) for i in range(2)]
    sizes = np.array([len(p) for p in parts])
    first = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    orig = np.arange(len(reads))
    back = BatchHits.concat(parts).take(first[orig % 2] + orig // 2)
    for name in ("lo", "hi", "steps", "lengths", "invalid", "pos_offsets", "positions"):
        assert np.array_equal(getattr(back, name), getattr(hits, name)), name
    assert len(hits[:3]) == 3 and len(hits[:0]) == 0
    assert hits[2:4].positions.tolist() == hits.positions[
        hits.pos_offsets[4] : hits.pos_offsets[8]
    ].tolist()


def test_empty_batch():
    index, _ = build_index(TEXT, sf=8, locate="sampled", sa_sample_rate=4)
    hits = Mapper(index, locate=True).map_batch([])
    assert len(hits) == 0 and hits.lo.shape == (0, 2)
    assert hits.pos_offsets.tolist() == [0]
    assert hits.to_results() == []


@pytest.mark.parametrize("variant", ["plain", "sentinel_in_tree", "bitvector"])
def test_level_wise_lf_many_matches_scalar_lf(variant):
    """The level-wise LF kernel equals the scalar map on every tree
    variant, and charges exactly what per-symbol ``occ_many`` calls
    over the same rows would."""
    bwt = bwt_from_codes(encode(TEXT))
    kwargs = {
        "plain": {},
        "sentinel_in_tree": {"store_sentinel_in_tree": True},
        "bitvector": {"bitvector_factory": BitVector},
    }[variant]
    struct = BWTStructure(bwt, b=15, sf=4, counters=OpCounters(), **kwargs)
    rows = np.arange(bwt.length, dtype=np.int64)
    struct.counters.reset()
    got = struct.lf_many(rows)
    charged = struct.counters.snapshot()
    assert got.tolist() == [struct.lf(int(r)) for r in rows]
    if variant == "plain":
        struct.counters.reset()
        syms = bwt.codes[rows].astype(np.int64)
        syms[rows == struct.dollar_pos] = -1
        for a in range(4):
            struct.occ_many(a, rows[syms == a])
        assert charged == struct.counters.snapshot()
