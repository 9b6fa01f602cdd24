"""Sharded multi-genome serving: catalog, LRU budget, scatter-gather.

The load-bearing property: ``ShardRouter.map_reads`` is bit-identical to
a monolithic :class:`MultiReferenceIndex` over the same sequences (which
itself equals mapping against each catalog member independently — the
boundary filter removes every concatenation artifact).  Everything else
— budgets, pools, coalescing, shard subsets — must preserve that.
"""

import json

import numpy as np
import pytest

from repro.index.builder import build_index
from repro.index.flat import save_index_flat
from repro.index.multiref import MultiReferenceIndex
from repro.sequence.alphabet import reverse_complement
from repro.serving.router import (
    RouterError,
    RouterMappingService,
    Shard,
    ShardCatalog,
    ShardRouter,
    UnknownShardError,
)


def make_seq(n, seed):
    rng = np.random.default_rng(seed)
    return "".join("ACGT"[c] for c in rng.integers(0, 4, n))


# Names deliberately out of lexical order: merge ordering must follow
# registration (catalog ordinal), not the alphabet.
RECORDS = [
    ("chrZ", make_seq(700, 1)),
    ("chrA", make_seq(400, 2)),
    ("plasmid", make_seq(200, 3)),
]


def corpus():
    reads = [
        RECORDS[0][1][50:80],
        RECORDS[1][1][10:40],
        reverse_complement(RECORDS[1][1][100:140]),
        RECORDS[2][1][60:90],
        "ACGT" * 6,  # likely multi-shard
        "ACGTNNACGT",  # invalid -> unmapped
        "",  # empty pattern -> matches everywhere
        RECORDS[0][1][690:700] + RECORDS[1][1][:10],  # spans a "boundary"
    ]
    return reads


@pytest.fixture(scope="module")
def oracle():
    return MultiReferenceIndex(RECORDS, b=15, sf=4)


@pytest.fixture(scope="module")
def flat_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("shards")
    for name, seq in RECORDS:
        index, _ = build_index(seq, b=15, sf=4, locate="full")
        save_index_flat(index, d / f"{name}.bwvr")
    return d


def build_catalog(flat_dir, **kwargs):
    catalog = ShardCatalog(**kwargs)
    for name, _ in RECORDS:
        catalog.register(name, flat_dir / f"{name}.bwvr")
    return catalog


class TestMergeParity:
    def test_matches_multiref_oracle(self, flat_dir, oracle):
        with build_catalog(flat_dir) as catalog:
            router = ShardRouter(catalog)
            assert router.map_reads(corpus()) == oracle.map_reads(corpus())

    def test_ordering_is_catalog_ordinal(self, flat_dir):
        with build_catalog(flat_dir) as catalog:
            router = ShardRouter(catalog)
            ordinals = catalog.ordinals
            assert list(ordinals) == [n for n, _ in RECORDS]
            mapping = router.map_reads([""])[0]  # hits in every shard
            keys = [(ordinals[h.name], h.position, h.strand) for h in mapping.hits]
            assert keys == sorted(keys)
            assert mapping.hits[0].name == "chrZ"  # first registered, not "chrA"

    def test_empty_batch(self, flat_dir):
        with build_catalog(flat_dir) as catalog:
            assert ShardRouter(catalog).map_reads([]) == []

    def test_shard_subset(self, flat_dir, oracle):
        with build_catalog(flat_dir) as catalog:
            router = ShardRouter(catalog)
            only = router.map_reads(corpus(), shards=["chrA"])
            for full, sub in zip(oracle.map_reads(corpus()), only):
                expected = tuple(h for h in full.hits if h.name == "chrA")
                assert sub.hits == expected

    def test_unknown_shard_raises(self, flat_dir):
        with build_catalog(flat_dir) as catalog:
            router = ShardRouter(catalog)
            with pytest.raises(UnknownShardError):
                router.map_reads(["ACGT"], shards=["chrQ"])


class TestCatalogRegistration:
    def test_duplicate_name_rejected(self, flat_dir):
        with build_catalog(flat_dir) as catalog:
            with pytest.raises(ValueError, match="duplicate"):
                catalog.register("chrA", flat_dir / "chrA.bwvr")

    def test_register_sequence_spools_container(self, oracle):
        import dataclasses

        with ShardCatalog() as catalog:
            shard = catalog.register_sequence("s0", RECORDS[0][1], b=15, sf=4)
            assert shard.bytes > 0
            got = ShardRouter(catalog).map_reads(corpus())
            want = oracle.map_reads(corpus())
            for g, w in zip(got, want):
                expected = tuple(
                    dataclasses.replace(h, name="s0")
                    for h in w.hits
                    if h.name == "chrZ"
                )
                assert g.hits == expected

    def test_manifest_paths_and_fasta(self, flat_dir, tmp_path, oracle):
        fasta = tmp_path / "plasmid.fa"
        fasta.write_text(f">plasmid\n{RECORDS[2][1]}\n")
        manifest = tmp_path / "catalog.json"
        manifest.write_text(
            json.dumps(
                {
                    "shards": [
                        {"name": "chrZ", "path": str(flat_dir / "chrZ.bwvr")},
                        {"name": "chrA", "path": str(flat_dir / "chrA.bwvr")},
                        {"name": "plasmid", "fasta": "plasmid.fa"},
                    ]
                }
            )
        )
        with ShardCatalog.from_manifest(manifest) as catalog:
            assert catalog.names == ("chrZ", "chrA", "plasmid")
            router = ShardRouter(catalog)
            assert router.map_reads(corpus()) == oracle.map_reads(corpus())

    def test_manifest_validation(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"shards": []}))
        with pytest.raises(ValueError, match="shards"):
            ShardCatalog.from_manifest(bad)
        bad.write_text(json.dumps({"shards": [{"name": "x"}]}))
        with pytest.raises(ValueError, match="path"):
            ShardCatalog.from_manifest(bad)


class TestMemoryBudget:
    def test_catalog_larger_than_budget_serves_correctly(self, flat_dir, oracle):
        sizes = [
            (flat_dir / f"{name}.bwvr").stat().st_size for name, _ in RECORDS
        ]
        # Budget fits only the largest single shard: every fan-out needs
        # LRU rotation, and results must not change.
        with build_catalog(flat_dir, memory_budget_bytes=max(sizes)) as catalog:
            router = ShardRouter(catalog)
            assert router.map_reads(corpus()) == oracle.map_reads(corpus())
            stats = router.stats()
            assert stats["evictions"] > 0
            assert stats["active_bytes"] <= max(sizes)
            assert stats["over_budget"] is False
            # A second batch rotates again and stays correct.
            assert router.map_reads(corpus()) == oracle.map_reads(corpus())

    def test_oversized_shard_still_activates(self, flat_dir):
        with build_catalog(flat_dir, memory_budget_bytes=1) as catalog:
            router = ShardRouter(catalog)
            mappings = router.map_reads([RECORDS[1][1][10:40]], shards=["chrA"])
            assert mappings[0].mapped
            assert catalog.stats()["over_budget"] is True

    def test_waves_partition_catalog_order(self, flat_dir):
        sizes = {
            name: (flat_dir / f"{name}.bwvr").stat().st_size
            for name, _ in RECORDS
        }
        with build_catalog(
            flat_dir, memory_budget_bytes=max(sizes.values())
        ) as catalog:
            waves = catalog.plan_waves(list(catalog.names))
            assert [n for w in waves for n in w] == list(catalog.names)
            for wave in waves:
                assert (
                    len(wave) == 1
                    or sum(sizes[n] for n in wave) <= max(sizes.values())
                )

    def test_no_budget_single_wave(self, flat_dir):
        with build_catalog(flat_dir) as catalog:
            assert catalog.plan_waves(list(catalog.names)) == [
                list(catalog.names)
            ]

    def test_lru_evicts_least_recently_used(self, flat_dir):
        sizes = [
            (flat_dir / f"{name}.bwvr").stat().st_size for name, _ in RECORDS
        ]
        with build_catalog(
            flat_dir, memory_budget_bytes=max(sizes) * 2
        ) as catalog:
            router = ShardRouter(catalog)
            router.map_reads(["ACGT"], shards=["chrZ"])
            router.map_reads(["ACGT"], shards=["chrA"])
            # Activating plasmid must evict chrZ (older) before chrA.
            router.map_reads(["ACGT"], shards=["plasmid"])
            active = catalog.active_names()
            if catalog.evictions:
                assert "chrZ" not in active


class TestHealth:
    def test_healthz_document(self, flat_dir):
        with build_catalog(flat_dir) as catalog:
            router = ShardRouter(catalog)
            router.map_reads(corpus())
            stats = router.stats()
            assert stats["n_shards"] == 3
            assert stats["batches_total"] == 1
            assert stats["reads_total"] == len(corpus())
            assert stats["degraded"] is False
            for shard_doc, (name, _) in zip(stats["shards"], RECORDS):
                assert shard_doc["name"] == name
                assert shard_doc["state"] == "active"
                assert shard_doc["bytes"] > 0
                assert shard_doc["batches"] == 1

    def test_inactive_shard_reports_state(self, flat_dir):
        with build_catalog(flat_dir) as catalog:
            docs = catalog.stats()["shards"]
            assert all(d["state"] == "inactive" for d in docs)

    def test_inactive_dispatch_raises(self, flat_dir):
        with build_catalog(flat_dir) as catalog:
            with pytest.raises(RouterError, match="not active"):
                catalog.shard("chrA").map_reads(["ACGT"])


class TestPooledShards:
    """Per-shard MapperPool dispatch: parity, degraded fallback, health."""

    def test_pooled_matches_in_process(self, flat_dir, oracle):
        with build_catalog(flat_dir, pool_workers=2) as catalog:
            router = ShardRouter(catalog)
            assert router.map_reads(corpus()) == oracle.map_reads(corpus())
            doc = router.stats()["shards"][0]
            assert doc["workers_alive"] == 2
            assert doc["pool_workers"] == 2

    def test_dead_pool_degrades_not_fails(self, flat_dir, oracle):
        import os
        import signal
        import time

        with build_catalog(flat_dir, pool_workers=1) as catalog:
            router = ShardRouter(catalog)
            catalog.acquire(["chrZ"])  # activate
            catalog.release([catalog.shard("chrZ")])
            victim = catalog.shard("chrZ").pool._procs[0]
            os.kill(victim.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while victim.is_alive() and time.monotonic() < deadline:
                time.sleep(0.02)
            # Fan-out still returns bit-correct results via the
            # in-process rung, and health reports the degradation.
            assert router.map_reads(corpus()) == oracle.map_reads(corpus())
            doc = next(
                d for d in router.stats()["shards"] if d["name"] == "chrZ"
            )
            assert doc["degraded"] is True
            assert doc["last_error"]
            # Recovery: restart the shard pool, flag clears.
            catalog.shard("chrZ").restart_pool()
            doc = next(
                d for d in router.stats()["shards"] if d["name"] == "chrZ"
            )
            assert doc["degraded"] is False
            assert doc["workers_alive"] == 1


class TestSpawnPooledShards:
    def test_pooled_matches_in_process_spawn(self, flat_dir, oracle):
        with build_catalog(
            flat_dir, pool_workers=1, start_method="spawn"
        ) as catalog:
            router = ShardRouter(catalog)
            assert router.map_reads(corpus()) == oracle.map_reads(corpus())


class TestRouterMappingService:
    def test_coalesced_parity_with_direct_router(self, flat_dir):
        from repro.serving.coalescer import CoalescerConfig

        with build_catalog(flat_dir) as catalog:
            router = ShardRouter(catalog)
            direct = [router.map_reads(r) for r in (corpus(), corpus()[:3])]
            service = RouterMappingService(
                ShardRouter(catalog),
                config=CoalescerConfig(window_seconds=0.001, max_batch_reads=64),
            )
            try:
                got = [
                    service.map_request(r).result(timeout=0.0)
                    for r in (corpus(), corpus()[:3])
                ]
                assert got == direct
            finally:
                service.coalescer.close()  # catalog closed by fixture exit

    def test_map_many_merge_demux_identical(self, flat_dir):
        from repro.serving.coalescer import CoalescerConfig, RequestCoalescer

        with build_catalog(flat_dir) as catalog:
            router = ShardRouter(catalog)
            requests = [corpus(), corpus()[2:6], [""], corpus()[:1]]
            direct = [router.map_reads(r) for r in requests]
            co = RequestCoalescer(
                router.map_reads,
                config=CoalescerConfig(window_seconds=0.0, max_batch_reads=16),
            )
            try:
                assert co.map_many(requests) == direct
                assert co.stats()["coalesced_requests"] >= 2  # merging happened
            finally:
                co.close()

    def test_shard_subset_bypasses_coalescer(self, flat_dir):
        with build_catalog(flat_dir) as catalog:
            service = RouterMappingService(ShardRouter(catalog))
            try:
                req = service.map_request(corpus()[:2], shards=["chrA"])
                mappings = req.result(timeout=0.0)
                assert all(
                    h.name == "chrA" for m in mappings for h in m.hits
                )
            finally:
                service.coalescer.close()

    def test_bypass_keeps_the_fallback_rung(self, flat_dir):
        from repro.serving.coalescer import MappingService

        with build_catalog(flat_dir) as catalog:
            router = ShardRouter(catalog)
            want = router.map_reads(corpus())
            real, calls = router.map_reads, []

            def fails_once(reads, shards=None):
                calls.append(len(reads))
                if len(calls) == 1:
                    raise RouterError("shard pool died")
                return real(reads, shards=shards)

            router.map_reads = fails_once
            service = MappingService(router, coalesce=False)
            try:
                req = service.map_request(corpus())
                assert req.degraded
                assert req.result(timeout=0.0) == want
                assert calls == [len(corpus())] * 2
            finally:
                service.coalescer.close()

    def test_stats_compose_router_and_coalescer(self, flat_dir):
        with build_catalog(flat_dir) as catalog:
            service = RouterMappingService(ShardRouter(catalog))
            try:
                service.map_request(corpus()[:2])
                doc = service.stats()
                assert doc["n_shards"] == 3
                assert doc["coalescer"]["requests_total"] == 1
            finally:
                service.coalescer.close()
