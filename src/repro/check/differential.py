"""The differential runner: every fast backend against its slow oracle.

Each :class:`Check` pairs one clever implementation with the matching
oracle from :mod:`repro.check.oracles` and knows how to

* ``generate(rng, profile)`` a JSON-able adversarial input, and
* ``verify(inputs)`` it — returning ``None`` on agreement or a *shrunk*
  :class:`~repro.check.report.Counterexample` on mismatch.

The generate/verify split is what makes corpus replay work: a stored
counterexample is just an ``inputs`` document fed straight back into
``verify``.  Exceptions inside ``verify`` count as failures (that is how
a reintroduced crash-on-``N`` bug surfaces as a shrunk counterexample
instead of killing the run).

The check pairs, in fixed registry order (the order feeds the per-check
RNG stream, so it must never be reshuffled silently):

====== ======================================================
rrr     ``RRRVector`` and ``BitVector`` vs popcount loops
wavelet ``WaveletTree`` vs direct numpy counting
fm      ``FMIndex.search/count/locate`` vs literal string scan
batch   ``FMIndex.search_batch`` vs the scalar search
mapper  ``Mapper.map_read``/``map_reads`` vs both-strand scan
kernel  FPGA functional model vs the CPU mapper (bit-identical)
flat    flat-container round-trip vs the in-memory index
pool    ``MapperPool`` workers vs the in-process mapper
ftab    jump-start-table-primed search vs the stepwise search + scan
coalesce merged-batch (coalesced) dispatch vs per-request ``map_reads``
router  sharded scatter-gather routing vs the multi-reference index
====== ======================================================
"""

from __future__ import annotations

import tempfile
import traceback
from itertools import product
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..core.bitvector import BitVector
from ..core.rrr import RRRVector
from ..core.wavelet_tree import WaveletTree
from ..index.builder import build_index
from ..index.flat import load_index_flat, save_index_flat
from ..index.multiref import MultiReferenceIndex
from ..mapper.mapper import Mapper
from ..mapper.results import REASON_INVALID_BASE, MappingResult
from ..sequence.alphabet import AlphabetError, encode, is_valid
from ..telemetry import get_telemetry
from .generators import (
    PROFILES,
    CheckProfile,
    gen_bitvector_case,
    gen_pattern_corpus,
    gen_read_corpus,
    gen_text,
    rng_for,
)
from .oracles import (
    naive_occ,
    naive_rank0,
    naive_rank1,
    naive_select1,
    oracle_mapping,
    oracle_occurrences,
)
from .report import (
    CheckOutcome,
    Counterexample,
    SelfCheckReport,
    load_corpus,
    write_corpus_file,
)
from .shrink import shrink_bits, shrink_list, shrink_string

#: A mismatch description: (expected, actual) rendered as strings.
Mismatch = tuple[str, str]


def _crash(exc: Exception) -> Mismatch:
    tb = traceback.format_exception_only(type(exc), exc)[-1].strip()
    return ("no exception", f"crash: {tb}")


def _guard(fn: Callable[[], Mismatch | None]) -> Mismatch | None:
    """Run a mismatch probe; an exception is itself a mismatch."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - crashes are findings here
        return _crash(exc)


class Check:
    """One differential pair.  Subclasses fill in the four hooks."""

    name: str = ""
    #: Heavy checks (index rebuild + device model / file round-trip) run
    #: every ``profile.heavy_every`` rounds.
    heavy: bool = False
    #: Once-per-run checks (process-spawning ones) run in round 0 only.
    once: bool = False

    def generate(self, rng: np.random.Generator, profile: CheckProfile) -> dict:
        raise NotImplementedError

    def mismatch(self, inputs: dict) -> Mismatch | None:
        """Compare backend vs oracle on ``inputs``; ``None`` == agree."""
        raise NotImplementedError

    def shrink(self, inputs: dict) -> dict:
        """Reduce a failing ``inputs`` while it keeps failing."""
        return inputs

    def snippet(self, inputs: dict) -> str:
        """Ready-to-paste pytest body replaying ``inputs``."""
        return (
            f"def test_{self.name}_regression():\n"
            f"    from repro.check.differential import get_check\n"
            f"    assert get_check({self.name!r}).mismatch({inputs!r}) is None\n"
        )

    def verify(self, inputs: dict) -> Counterexample | None:
        found = _guard(lambda: self.mismatch(inputs))
        if found is None:
            return None
        small = self.shrink(inputs)
        result = _guard(lambda: self.mismatch(small))
        if result is None:  # shrinking over-shrank (flaky predicate): keep raw
            small, result = inputs, found
        expected, actual = result
        return Counterexample(
            check=self.name,
            seed=-1,
            round_index=-1,
            inputs=small,
            expected=expected,
            actual=actual,
            snippet=self.snippet(small),
        )

    def _still_fails(self, inputs: dict) -> bool:
        return _guard(lambda: self.mismatch(inputs)) is not None


# -- rrr ----------------------------------------------------------------------


class RRRCheck(Check):
    name = "rrr"

    def generate(self, rng, profile):
        bits, b, sf = gen_bitvector_case(rng)
        return {"bits": bits.tolist(), "b": b, "sf": sf}

    def mismatch(self, inputs):
        bits = np.array(inputs["bits"], dtype=np.uint8)
        b, sf = int(inputs["b"]), int(inputs["sf"])
        n = bits.size
        rrr = RRRVector(bits, b=b, sf=sf)
        plain = BitVector(bits)
        ones = int(np.count_nonzero(bits))
        for label, vec in (("RRRVector", rrr), ("BitVector", plain)):
            if vec.count() != ones:
                return (f"{label}.count() == {ones}", f"{vec.count()}")
            for p in range(n + 1):
                want = naive_rank1(bits, p)
                got = vec.rank1(p)
                if got != want:
                    return (f"{label}.rank1({p}) == {want}", f"{got}")
                got0 = vec.rank0(p)
                want0 = naive_rank0(bits, p)
                if got0 != want0:
                    return (f"{label}.rank0({p}) == {want0}", f"{got0}")
            many = vec.rank1_many(np.arange(n + 1, dtype=np.int64))
            want_many = np.cumsum(np.concatenate(([0], bits.astype(np.int64))))
            if not np.array_equal(np.asarray(many, dtype=np.int64), want_many):
                bad = int(np.flatnonzero(many != want_many)[0])
                return (
                    f"{label}.rank1_many at p={bad} == {int(want_many[bad])}",
                    f"{int(many[bad])}",
                )
            for k in range(1, ones + 1):
                want_s = naive_select1(bits, k)
                got_s = vec.select1(k)
                if got_s != want_s:
                    return (f"{label}.select1({k}) == {want_s}", f"{got_s}")
        for i in range(n):
            if rrr.access(i) != int(bits[i]):
                return (f"RRRVector.access({i}) == {int(bits[i])}", f"{rrr.access(i)}")
        return None

    def shrink(self, inputs):
        b, sf = int(inputs["b"]), int(inputs["sf"])

        def fails(arr: np.ndarray) -> bool:
            return self._still_fails({"bits": arr.tolist(), "b": b, "sf": sf})

        small = shrink_bits(np.array(inputs["bits"], dtype=np.uint8), fails)
        return {"bits": small.tolist(), "b": b, "sf": sf}


# -- wavelet ------------------------------------------------------------------


class WaveletCheck(Check):
    name = "wavelet"

    def generate(self, rng, profile):
        bits_case = gen_bitvector_case(rng)  # reuse the boundary b/sf draw
        _, b, sf = bits_case
        return {"text": gen_text(rng, profile), "b": b, "sf": sf}

    @staticmethod
    def _positions(n: int) -> list[int]:
        """Deterministic probe positions: exhaustive when small, a strided
        sample plus both ends otherwise (replay needs no RNG here)."""
        if n <= 300:
            return list(range(n + 1))
        step = max(1, n // 256)
        ps = set(range(0, n + 1, step))
        ps.update((0, 1, n - 1, n))
        return sorted(ps)

    def mismatch(self, inputs):
        codes = encode(inputs["text"])
        b, sf = int(inputs["b"]), int(inputs["sf"])
        tree = WaveletTree(codes, sigma=4, b=b, sf=sf)
        n = codes.size
        for sym in range(4):
            total = naive_occ(codes, sym, n)
            for p in self._positions(n):
                want = naive_occ(codes, sym, p)
                got = tree.rank(sym, p)
                if got != want:
                    return (f"rank({sym}, {p}) == {want}", f"{got}")
            counts = tree.symbol_counts()
            if int(counts[sym]) != total:
                return (f"symbol_counts()[{sym}] == {total}", f"{int(counts[sym])}")
            for k in (1, max(1, total // 2), total):
                if total == 0:
                    break
                want_s = int(np.flatnonzero(codes == sym)[k - 1])
                got_s = tree.select(sym, k)
                if got_s != want_s:
                    return (f"select({sym}, {k}) == {want_s}", f"{got_s}")
        for i in self._positions(n)[:-1]:
            if i < n and tree.access(i) != int(codes[i]):
                return (f"access({i}) == {int(codes[i])}", f"{tree.access(i)}")
        return None

    def shrink(self, inputs):
        b, sf = int(inputs["b"]), int(inputs["sf"])

        def fails(t: str) -> bool:
            return bool(t) and self._still_fails({"text": t, "b": b, "sf": sf})

        return {"text": shrink_string(inputs["text"], fails), "b": b, "sf": sf}


# -- fm (scalar search/count/locate) ------------------------------------------


def _build(inputs: dict):
    index, _ = build_index(
        inputs["text"],
        b=int(inputs.get("b", 15)),
        sf=int(inputs.get("sf", 8)),
        backend=inputs.get("backend", "rrr"),
        locate=inputs.get("locate", "full"),
        sa_sample_rate=int(inputs.get("sa_sample_rate", 32)),
    )
    return index


def _draw_locate(rng: np.random.Generator, inputs: dict) -> dict:
    """Add a locate-structure draw: the full SA, or a sampled SA whose
    rate 1 (every row sampled), 3 (short walks, many through the
    sentinel row) or 32 (the default) exercises the LF wavefront."""
    inputs["locate"] = str(rng.choice(["full", "sampled"]))
    inputs["sa_sample_rate"] = int(rng.choice([1, 3, 32]))
    return inputs


class TextPatternsCheck(Check):
    """Shared shape: a reference text plus a pattern/read corpus."""

    corpus_key = "patterns"

    def _corpus(self, rng, profile, text: str) -> list[str]:
        raise NotImplementedError

    def generate(self, rng, profile):
        text = gen_text(rng, profile)
        b = int(rng.choice([5, 15]))
        sf = int(rng.choice([4, 8]))
        backend = str(rng.choice(["rrr", "occ"]))
        return {
            "text": text,
            self.corpus_key: self._corpus(rng, profile, text),
            "b": b,
            "sf": sf,
            "backend": backend,
        }

    def shrink(self, inputs):
        out = dict(inputs)

        def corpus_fails(items: list) -> bool:
            return bool(items) and self._still_fails({**out, self.corpus_key: items})

        out[self.corpus_key] = shrink_list(list(inputs[self.corpus_key]), corpus_fails)

        def text_fails(t: str) -> bool:
            return bool(t) and self._still_fails({**out, "text": t})

        out["text"] = shrink_string(out["text"], text_fails)

        def single_fails(s: str) -> bool:
            return corpus_fails([s])

        if len(out[self.corpus_key]) == 1:  # shrink the lone survivor itself
            out[self.corpus_key] = [
                shrink_string(out[self.corpus_key][0], single_fails, budget=80)
            ]
            # A smaller survivor may free the text for further cuts (an
            # empty read, say, no longer pins any substring of the text).
            out["text"] = shrink_string(out["text"], text_fails, budget=120)
        return out


class FMCheck(TextPatternsCheck):
    name = "fm"

    def _corpus(self, rng, profile, text):
        return gen_pattern_corpus(rng, text, profile.n_patterns)

    def mismatch(self, inputs):
        index = _build(inputs)
        text = inputs["text"]
        for pat in inputs["patterns"]:
            want = oracle_occurrences(text, pat)
            if want is None:
                # Raw index queries must reject invalid patterns loudly
                # (the forgiving path lives in the mapper, not here).
                try:
                    got = index.count(pat)
                except AlphabetError:
                    continue
                return (f"count({pat!r}) raises AlphabetError", f"returned {got}")
            got = index.count(pat)
            if got != len(want):
                return (f"count({pat!r}) == {len(want)}", f"{got}")
            res = index.search(pat)
            if res.end - res.start != len(want):
                return (
                    f"search({pat!r}) interval width {len(want)}",
                    f"[{res.start}, {res.end})",
                )
            if res.start < 0 or res.end > index.n_rows:
                return (
                    f"search({pat!r}) interval within [0, {index.n_rows}]",
                    f"[{res.start}, {res.end})",
                )
            positions = sorted(int(p) for p in index.locate(pat))
            if positions != want:
                return (f"locate({pat!r}) == {want}", f"{positions}")
        return None


# -- batch vs scalar ----------------------------------------------------------


class BatchCheck(TextPatternsCheck):
    name = "batch"

    def _corpus(self, rng, profile, text):
        # search_batch shares the raw-index contract: invalid patterns
        # raise, so the differential corpus holds only encodable ones.
        return gen_pattern_corpus(
            rng, text, profile.n_patterns, include_invalid=False
        )

    def mismatch(self, inputs):
        index = _build(inputs)
        patterns = list(inputs["patterns"])
        lo, hi, steps = index.search_batch(patterns)
        for i, pat in enumerate(patterns):
            res = index.search(pat)
            got = (int(lo[i]), int(hi[i]), int(steps[i]))
            want = (res.start, res.end, res.steps)
            if got != want:
                return (
                    f"search_batch[{i}] ({pat!r}) == scalar {want}",
                    f"{got}",
                )
        return None


# -- mapper vs both-strand scan -----------------------------------------------


def _result_fingerprint(r: MappingResult) -> tuple:
    """Intervals, reason and positions (which must come sorted) of both
    strands."""

    def positions(h):
        return None if h.positions is None else tuple(h.positions.tolist())

    f, v = r.forward.interval, r.reverse.interval
    return (f.start, f.end, v.start, v.end, r.reason, positions(r.forward),
            positions(r.reverse))


class MapperCheck(TextPatternsCheck):
    name = "mapper"
    corpus_key = "reads"

    def _corpus(self, rng, profile, text):
        return gen_read_corpus(rng, text, profile.n_reads)

    def generate(self, rng, profile):
        return _draw_locate(rng, super().generate(rng, profile))

    def mismatch(self, inputs):
        index = _build(inputs)
        mapper = Mapper(index, locate=True)
        text, reads = inputs["text"], list(inputs["reads"])
        scalar = [mapper.map_read(s, read_id=i) for i, s in enumerate(reads)]
        for i, (read, res) in enumerate(zip(reads, scalar)):
            want = oracle_mapping(text, read)
            if want is None:
                if res.reason != REASON_INVALID_BASE:
                    return (
                        f"map_read({read!r}).reason == {REASON_INVALID_BASE!r}",
                        f"{res.reason!r} (mapped={res.mapped})",
                    )
                if res.mapped:
                    return (f"invalid read {read!r} unmapped", "mapped")
                continue
            fwd_want, rc_want = want
            # Positions must come back sorted: compare in returned order.
            got_fwd = [int(p) for p in (res.forward.positions if res.forward.positions is not None else [])]
            got_rc = [int(p) for p in (res.reverse.positions if res.reverse.positions is not None else [])]
            if got_fwd != fwd_want:
                return (f"map_read({read!r}) forward at {fwd_want}", f"{got_fwd}")
            if got_rc != rc_want:
                return (f"map_read({read!r}) reverse at {rc_want}", f"{got_rc}")
        # One invalid read must never poison the batch path, and batching
        # must not change any answer.
        batched = mapper.map_reads(reads, batch=True)
        if len(batched) != len(scalar):
            return (f"map_reads returns {len(scalar)} results", f"{len(batched)}")
        for i, (a, b) in enumerate(zip(scalar, batched)):
            if _result_fingerprint(a) != _result_fingerprint(b):
                return (
                    f"batched result {i} ({reads[i]!r}) == scalar "
                    f"{_result_fingerprint(a)}",
                    f"{_result_fingerprint(b)}",
                )
        return None


# -- FPGA kernel vs CPU mapper ------------------------------------------------


class KernelCheck(TextPatternsCheck):
    name = "kernel"
    corpus_key = "reads"
    heavy = True

    def _corpus(self, rng, profile, text):
        return gen_read_corpus(rng, text, profile.n_reads)

    def generate(self, rng, profile):
        inputs = super().generate(rng, profile)
        inputs["backend"] = "rrr"  # the kernel holds the succinct structure
        return inputs

    def mismatch(self, inputs):
        from ..fpga.accelerator import FPGAAccelerator

        index = _build(inputs)
        mapper = Mapper(index, locate=False)
        reads = list(inputs["reads"])
        acc = FPGAAccelerator.for_index(index)
        run = acc.map_batch(reads)
        outcomes = sorted(run.kernel_run.outcomes, key=lambda o: o.query_id)
        if len(outcomes) != len(reads):
            return (f"{len(reads)} kernel outcomes", f"{len(outcomes)}")
        for i, (read, out) in enumerate(zip(reads, outcomes)):
            if out.query_id != i:
                return (f"outcome {i} has query_id {i}", f"{out.query_id}")
            if not is_valid(read):
                if out.mapped or out.fwd_end or out.rc_end:
                    return (
                        f"invalid read {read!r} -> all-zero outcome",
                        f"fwd=[{out.fwd_start},{out.fwd_end}) "
                        f"rc=[{out.rc_start},{out.rc_end})",
                    )
                continue
            res = mapper.map_read(read, read_id=i)
            want = (
                res.forward.interval.start, res.forward.interval.end,
                res.reverse.interval.start, res.reverse.interval.end,
            )
            got = (out.fwd_start, out.fwd_end, out.rc_start, out.rc_end)
            if got != want:
                return (f"kernel intervals for {read!r} == CPU {want}", f"{got}")
        return None


# -- flat container round-trip ------------------------------------------------


class FlatCheck(TextPatternsCheck):
    name = "flat"
    heavy = True

    def _corpus(self, rng, profile, text):
        return gen_pattern_corpus(rng, text, profile.n_patterns, include_invalid=False)

    def mismatch(self, inputs):
        mem = _build(inputs)
        with tempfile.TemporaryDirectory(prefix="selfcheck-flat-") as tmp:
            path = Path(tmp) / "index.bwvr"
            save_index_flat(mem, path)
            mapped = load_index_flat(path, verify=True)
            for pat in inputs["patterns"]:
                a, b = mem.search(pat), mapped.search(pat)
                if (a.start, a.end) != (b.start, b.end):
                    return (
                        f"mmap search({pat!r}) == in-memory [{a.start}, {a.end})",
                        f"[{b.start}, {b.end})",
                    )
                pa = sorted(int(p) for p in mem.locate(pat))
                pb = sorted(int(p) for p in mapped.locate(pat))
                if pa != pb:
                    return (f"mmap locate({pat!r}) == {pa}", f"{pb}")
            del mapped  # release the memmap before the directory goes away
        return None


# -- pool vs in-process mapper ------------------------------------------------


class PoolCheck(TextPatternsCheck):
    name = "pool"
    corpus_key = "reads"
    once = True

    def _corpus(self, rng, profile, text):
        return gen_read_corpus(rng, text, profile.n_reads)

    def generate(self, rng, profile):
        inputs = super().generate(rng, profile)
        inputs["backend"] = "rrr"
        return _draw_locate(rng, inputs)

    def mismatch(self, inputs):
        from ..serving.pool import MapperPool

        index = _build(inputs)
        mapper = Mapper(index, locate=True)
        reads = list(inputs["reads"])
        local = [mapper.map_read(s, read_id=i) for i, s in enumerate(reads)]
        with MapperPool(index=index, workers=2) as pool:
            remote = pool.map_reads(reads, locate=True)
        if len(remote) != len(local):
            return (f"{len(local)} pool results", f"{len(remote)}")
        remote = sorted(remote, key=lambda r: r.read_id)
        for i, (a, b) in enumerate(zip(local, remote)):
            if _result_fingerprint(a) != _result_fingerprint(b):
                return (
                    f"pool result {i} ({reads[i]!r}) == local "
                    f"{_result_fingerprint(a)}",
                    f"{_result_fingerprint(b)}",
                )
        return None

    def shrink(self, inputs):
        # Every probe spawns worker processes; keep the budget tiny and
        # skip the text phase (the read list is what usually matters).
        def fails(items: list) -> bool:
            return bool(items) and self._still_fails({**inputs, "reads": items})

        reads = shrink_list(list(inputs["reads"]), fails, budget=20)
        return {**inputs, "reads": reads}


# -- ftab-primed search vs stepwise search ------------------------------------


class FtabCheck(TextPatternsCheck):
    """Jump-start table vs the stepwise chain it replaces.

    Builds the same index twice — with and without an ftab — and demands
    the full ``(start, end, steps)`` triple agree on every pattern, both
    scalar and batched, plus an exhaustive sweep of all 4^k k-mers whose
    counts are also checked against the pure-Python text scan.
    """

    name = "ftab"
    heavy = True  # two index builds + a 4^k table per round

    def _corpus(self, rng, profile, text):
        return gen_pattern_corpus(rng, text, profile.n_patterns, include_invalid=False)

    def generate(self, rng, profile):
        inputs = super().generate(rng, profile)
        inputs["ftab_k"] = int(rng.integers(1, 5))  # <= 256 entries per round
        return inputs

    def mismatch(self, inputs):
        k = int(inputs.get("ftab_k", 3))
        plain = _build(inputs)
        primed, _ = build_index(
            inputs["text"],
            b=int(inputs.get("b", 15)),
            sf=int(inputs.get("sf", 8)),
            backend=inputs.get("backend", "rrr"),
            ftab_k=k,
        )
        text = inputs["text"]
        patterns = list(inputs["patterns"])
        for pat in patterns:
            a, b = plain.search(pat), primed.search(pat)
            got = (b.start, b.end, b.steps)
            want = (a.start, a.end, a.steps)
            if got != want:
                return (f"primed search({pat!r}) == stepwise {want}", f"{got}")
        if patterns:
            lo_a, hi_a, st_a = plain.search_batch(patterns)
            lo_b, hi_b, st_b = primed.search_batch(patterns)
            for i in range(len(patterns)):
                got = (int(lo_b[i]), int(hi_b[i]), int(st_b[i]))
                want = (int(lo_a[i]), int(hi_a[i]), int(st_a[i]))
                if got != want:
                    return (
                        f"primed search_batch[{i}] ({patterns[i]!r}) == {want}",
                        f"{got}",
                    )
        # Exhaustive k-mer sweep: every table entry against both the
        # stepwise search and the literal scan.
        for kmer in map("".join, product("ACGT", repeat=k)):
            a, b = plain.search(kmer), primed.search(kmer)
            got = (b.start, b.end, b.steps)
            want = (a.start, a.end, a.steps)
            if got != want:
                return (f"table entry {kmer!r} == stepwise {want}", f"{got}")
            occurrences = oracle_occurrences(text, kmer)
            n_occ = len(occurrences) if occurrences is not None else 0
            if b.end - b.start != n_occ:
                return (
                    f"table entry {kmer!r} counts {n_occ} occurrences",
                    f"interval [{b.start}, {b.end})",
                )
        return None


# -- coalesced dispatch vs independent requests -------------------------------


class CoalesceCheck(TextPatternsCheck):
    """Merged-batch execution vs one ``map_reads`` call per request.

    The coalescer's core promise is that merging is invisible: slicing a
    shared kernel batch back apart and renumbering must reproduce each
    request's independent results bit-for-bit — including request-local
    ``read_id``/``read_name``, invalid (``N``-base) reads, and empty
    patterns.  A randomized ``max_batch_reads`` exercises the chunk
    boundaries (requests split across batches, giant lone requests).
    """

    name = "coalesce"
    corpus_key = "requests"

    def _corpus(self, rng, profile, text):
        reads = gen_read_corpus(rng, text, profile.n_reads)
        requests: list[list[str]] = []
        i = 0
        while i < len(reads):
            take = int(rng.integers(1, 5))
            requests.append(reads[i : i + take])
            i += take
        return requests

    def generate(self, rng, profile):
        inputs = super().generate(rng, profile)
        inputs["max_batch_reads"] = int(rng.integers(1, 33))
        return inputs

    @staticmethod
    def _full_fingerprint(r: MappingResult) -> tuple:
        return (r.read_id, r.read_name, r.length, _result_fingerprint(r))

    def mismatch(self, inputs):
        from ..serving.coalescer import CoalescerConfig, RequestCoalescer

        index = _build(inputs)
        mapper = Mapper(index, locate=True)
        requests = [list(reads) for reads in inputs["requests"]]
        independent = [mapper.map_reads(reads) for reads in requests]
        coalescer = RequestCoalescer(
            mapper.map_reads,
            config=CoalescerConfig(
                max_batch_reads=int(inputs.get("max_batch_reads", 8))
            ),
        )
        merged = coalescer.map_many(requests)
        if len(merged) != len(independent):
            return (f"{len(independent)} request results", f"{len(merged)}")
        for i, (alone, shared) in enumerate(zip(independent, merged)):
            if len(shared) != len(alone):
                return (
                    f"request {i} has {len(alone)} results",
                    f"{len(shared)}",
                )
            for a, b in zip(alone, shared):
                fa, fb = self._full_fingerprint(a), self._full_fingerprint(b)
                if fa != fb:
                    return (
                        f"request {i} read {a.read_id} "
                        f"({requests[i][a.read_id]!r}) coalesced == {fa}",
                        f"{fb}",
                    )
        return None

    def shrink(self, inputs):
        out = dict(inputs)

        def requests_fail(items: list) -> bool:
            return bool(items) and self._still_fails({**out, "requests": items})

        out["requests"] = shrink_list(list(inputs["requests"]), requests_fail)
        if len(out["requests"]) == 1:  # drop reads inside the lone request

            def reads_fail(items: list) -> bool:
                return bool(items) and self._still_fails(
                    {**out, "requests": [items]}
                )

            out["requests"] = [
                shrink_list(list(out["requests"][0]), reads_fail, budget=40)
            ]

        def text_fails(t: str) -> bool:
            return bool(t) and self._still_fails({**out, "text": t})

        out["text"] = shrink_string(out["text"], text_fails)
        return out


# -- sharded routing vs the monolithic multi-reference index ------------------


class RouterCheck(Check):
    """Scatter-gather sharding vs one concatenated multi-reference index.

    The router's core promise: mapping a batch against N per-sequence
    shards and merging the per-shard strand hits by ``(catalog ordinal,
    position, strand)`` reproduces what a monolithic
    :class:`~repro.index.multiref.MultiReferenceIndex` over the same
    sequences answers, hit for hit.  The concatenated oracle filters
    boundary-spanning artifacts, so the two constructions are exactly
    equivalent — any divergence is a merge-ordering, coordinate, or
    lifecycle bug.  Three passes per round: plain fan-out, a budgeted
    fan-out squeezed to one-shard waves (forcing LRU eviction between
    waves), and a coalesced ``map_many`` whose demux must match
    per-request routing.
    """

    name = "router"
    heavy = True  # builds one flat container per sequence plus the oracle

    def generate(self, rng, profile):
        n_seqs = int(rng.integers(2, 5))
        sequences = [gen_text(rng, profile) for _ in range(n_seqs)]
        reads: list[str] = []
        for seq in sequences:  # every shard gets reads aimed at it
            reads.extend(gen_read_corpus(rng, seq, max(3, profile.n_reads // n_seqs)))
        return {
            "sequences": sequences,
            "reads": reads,
            "b": int(rng.choice([5, 15])),
            "sf": int(rng.choice([4, 8])),
            "backend": str(rng.choice(["rrr", "occ"])),
            "max_batch_reads": int(rng.integers(1, 17)),
        }

    @staticmethod
    def _fingerprint(mapping) -> tuple:
        return (
            mapping.read_id,
            tuple((h.name, h.position, h.strand) for h in mapping.hits),
        )

    @staticmethod
    def _compare(label: str, reads: list, want: list, got: list) -> Mismatch | None:
        if len(got) != len(want):
            return (f"{label}: {len(want)} mappings", f"{len(got)}")
        for i, (a, g) in enumerate(zip(want, got)):
            if a != g:
                return (f"{label}: read {i} ({reads[i]!r}) == {a}", f"{g}")
        return None

    def mismatch(self, inputs):
        from ..serving.coalescer import CoalescerConfig, RequestCoalescer
        from ..serving.router import ShardCatalog, ShardRouter

        b = int(inputs.get("b", 15))
        sf = int(inputs.get("sf", 8))
        backend = inputs.get("backend", "rrr")
        records = [(f"seq{i}", str(s)) for i, s in enumerate(inputs["sequences"])]
        reads = list(inputs["reads"])
        oracle = MultiReferenceIndex(records, b=b, sf=sf, backend=backend)
        want = [self._fingerprint(m) for m in oracle.map_reads(reads)]
        with ShardCatalog() as catalog:
            for name, seq in records:
                catalog.register_sequence(name, seq, b=b, sf=sf, backend=backend)
            router = ShardRouter(catalog)
            got = [self._fingerprint(m) for m in router.map_reads(reads)]
            found = self._compare("routed", reads, want, got)
            if found is not None:
                return found
            # Budgeted pass: the tightest budget that still fits each
            # shard alone forces one-shard waves with evictions between
            # them — answers must not change.
            catalog.deactivate_all()
            catalog.memory_budget_bytes = max(
                catalog.shard(n).bytes for n in catalog.names
            )
            got = [self._fingerprint(m) for m in router.map_reads(reads)]
            found = self._compare("budgeted", reads, want, got)
            if found is not None:
                return found
            if len(records) > 1 and catalog.evictions == 0:
                return ("budgeted fan-out evicts between waves", "0 evictions")
            # Coalesced pass: shared fan-out batches demux back to the
            # per-request answers bit-for-bit.
            catalog.memory_budget_bytes = None
            requests = [reads[i : i + 3] for i in range(0, len(reads), 3)]
            coalescer = RequestCoalescer(
                router.map_reads,
                config=CoalescerConfig(
                    max_batch_reads=int(inputs.get("max_batch_reads", 8))
                ),
            )
            merged = coalescer.map_many(requests)
            independent = [router.map_reads(req) for req in requests]
            if len(merged) != len(independent):
                return (f"{len(independent)} request results", f"{len(merged)}")
            for i, (alone, shared) in enumerate(zip(independent, merged)):
                fa = [self._fingerprint(m) for m in alone]
                fb = [self._fingerprint(m) for m in shared]
                if fa != fb:
                    return (f"coalesced request {i} == independent {fa}", f"{fb}")
        return None

    def shrink(self, inputs):
        # Every probe rebuilds one container per sequence plus the
        # oracle; keep the budget tiny and shrink only the read list.
        def fails(items: list) -> bool:
            return bool(items) and self._still_fails({**inputs, "reads": items})

        reads = shrink_list(list(inputs["reads"]), fails, budget=20)
        return {**inputs, "reads": reads}


#: Registry order is load-bearing: it feeds ``rng_for``'s check index.
#: New checks append at the end (``router``), never in the middle.
ALL_CHECKS: tuple[Check, ...] = (
    RRRCheck(),
    WaveletCheck(),
    FMCheck(),
    BatchCheck(),
    MapperCheck(),
    KernelCheck(),
    FlatCheck(),
    PoolCheck(),
    FtabCheck(),
    CoalesceCheck(),
    RouterCheck(),
)

CHECKS_BY_NAME: dict[str, Check] = {c.name: c for c in ALL_CHECKS}


def get_check(name: str) -> Check:
    """Registry lookup (used by replay and by emitted pytest snippets)."""
    try:
        return CHECKS_BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown check {name!r}; have {sorted(CHECKS_BY_NAME)}"
        ) from None


class SelfCheck:
    """The differential self-check runner behind ``repro selfcheck``."""

    def __init__(
        self,
        seed: int = 0,
        profile: str | CheckProfile = "default",
        checks: Sequence[str] | None = None,
        corpus_dir: str | Path | None = None,
        max_failures_per_check: int = 1,
    ):
        self.seed = int(seed)
        self.profile = (
            profile if isinstance(profile, CheckProfile) else PROFILES[profile]
        )
        names = list(checks) if checks else [c.name for c in ALL_CHECKS]
        self.checks = [get_check(n) for n in names]
        self.corpus_dir = Path(corpus_dir) if corpus_dir else None
        self.max_failures_per_check = max_failures_per_check

    def _due(self, check: Check, round_index: int) -> bool:
        if check.once:
            return round_index == 0 and self.profile.include_pool
        if check.heavy:
            return round_index % self.profile.heavy_every == 0
        return True

    def run(
        self, rounds: int, progress: Callable[[str], None] | None = None
    ) -> SelfCheckReport:
        tel = get_telemetry()
        report = SelfCheckReport(
            seed=self.seed, rounds=rounds, profile=self.profile.name
        )
        outcomes = {c.name: CheckOutcome(name=c.name) for c in self.checks}
        report.outcomes = list(outcomes.values())
        check_index = {c.name: i for i, c in enumerate(ALL_CHECKS)}
        for r in range(rounds):
            for check in self.checks:
                out = outcomes[check.name]
                if not self._due(check, r):
                    continue
                if len(out.failures) >= self.max_failures_per_check:
                    continue
                rng = rng_for(self.seed, r, check_index[check.name])
                cx = _guarded_round(check, rng, self.profile)
                out.rounds += 1
                if tel.enabled:
                    tel.metrics.counter(
                        "selfcheck_rounds_total",
                        "Differential self-check rounds executed",
                        labelnames=("check",),
                    ).inc(check=check.name)
                if cx is None:
                    continue
                cx.seed, cx.round_index = self.seed, r
                out.failures.append(cx)
                if tel.enabled:
                    tel.metrics.counter(
                        "selfcheck_failures_total",
                        "Differential self-check mismatches found",
                        labelnames=("check",),
                    ).inc(check=check.name)
                if self.corpus_dir is not None:
                    report.corpus_written.append(
                        write_corpus_file(cx, self.corpus_dir)
                    )
                if progress is not None:
                    progress(cx.describe())
        return report

    def replay(self, corpus_dir: str | Path) -> SelfCheckReport:
        """Re-verify every stored counterexample (the regression guard)."""
        tel = get_telemetry()
        report = SelfCheckReport(seed=self.seed, rounds=0, profile="replay")
        outcomes: dict[str, CheckOutcome] = {}
        for doc in load_corpus(corpus_dir):
            name = doc["check"]
            if name not in CHECKS_BY_NAME:
                continue
            out = outcomes.setdefault(name, CheckOutcome(name=name))
            check = CHECKS_BY_NAME[name]
            found = _guard(lambda: check.mismatch(doc["inputs"]))
            out.rounds += 1
            if tel.enabled:
                tel.metrics.counter(
                    "selfcheck_rounds_total",
                    "Differential self-check rounds executed",
                    labelnames=("check",),
                ).inc(check=name)
            if found is not None:
                expected, actual = found
                out.failures.append(
                    Counterexample(
                        check=name,
                        seed=int(doc.get("seed", -1)),
                        round_index=int(doc.get("round", -1)),
                        inputs=doc["inputs"],
                        expected=expected,
                        actual=actual,
                        notes=f"replayed from {doc.get('_path', 'corpus')}",
                    )
                )
                if tel.enabled:
                    tel.metrics.counter(
                        "selfcheck_failures_total",
                        "Differential self-check mismatches found",
                        labelnames=("check",),
                    ).inc(check=name)
        report.outcomes = list(outcomes.values())
        return report


def _guarded_round(
    check: Check, rng: np.random.Generator, profile: CheckProfile
) -> Counterexample | None:
    """One generate+verify round; generation crashes become findings too."""
    try:
        inputs = check.generate(rng, profile)
    except Exception as exc:  # noqa: BLE001
        expected, actual = _crash(exc)
        return Counterexample(
            check=check.name,
            seed=-1,
            round_index=-1,
            inputs={},
            expected=expected,
            actual=actual,
            notes="generator crashed before verification",
        )
    return check.verify(inputs)
