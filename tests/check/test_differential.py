"""The differential harness itself: clean runs, corpus replay, and the
acceptance property — reintroducing either seed bug must surface as a
shrunk, human-readable counterexample instead of a crash or a pass."""

import json

import pytest

from repro.check import PROFILES, SelfCheck, get_check
from repro.check.differential import ALL_CHECKS, CHECKS_BY_NAME
from repro.index import fm_index
from repro.mapper import mapper as mapper_mod
from repro.telemetry import Telemetry, get_telemetry, set_telemetry


class TestRegistry:
    def test_names_are_stable(self):
        # Registry order feeds the RNG streams; a silent reshuffle would
        # change every reproduction recipe in the corpus.
        assert [c.name for c in ALL_CHECKS] == [
            "rrr", "wavelet", "fm", "batch", "mapper", "kernel", "flat", "pool",
            "ftab", "coalesce", "router",
        ]

    def test_get_check_unknown(self):
        with pytest.raises(ValueError, match="unknown check"):
            get_check("nope")


class TestCleanRun:
    def test_two_rounds_pass(self):
        report = SelfCheck(
            seed=0, profile="quick", checks=["rrr", "wavelet", "fm", "batch", "mapper"]
        ).run(2)
        assert report.ok
        assert all(o.rounds == 2 for o in report.outcomes)
        assert "selfcheck: PASS" in report.summary_lines()[-1]

    def test_heavy_checks_gated_by_profile(self):
        report = SelfCheck(seed=0, profile="quick", checks=["kernel", "flat"]).run(5)
        assert report.ok
        # quick profile: heavy_every=5 -> round 0 only.
        assert all(o.rounds == 1 for o in report.outcomes)

    def test_determinism(self):
        a = SelfCheck(seed=7, profile="quick", checks=["rrr"]).run(3)
        b = SelfCheck(seed=7, profile="quick", checks=["rrr"]).run(3)
        assert a.ok and b.ok
        assert [o.rounds for o in a.outcomes] == [o.rounds for o in b.outcomes]


def _reintroduce_empty_pattern_bug(monkeypatch):
    """The seed off-by-one: empty pattern -> [0, n_rows), sentinel row in."""
    orig = fm_index.FMIndex.search

    def buggy(self, pattern):
        codes = self._codes(pattern)
        if codes.size == 0:
            return fm_index.SearchResult(start=0, end=self.n_rows, steps=0)
        return orig(self, pattern)

    monkeypatch.setattr(fm_index.FMIndex, "search", buggy)


def _reintroduce_n_crash_bug(monkeypatch):
    """The seed crash: no alphabet screen, AlphabetError escapes the mapper."""
    monkeypatch.setattr(mapper_mod, "is_valid", lambda s: True)
    orig = mapper_mod.Mapper.map_read

    def no_catch(self, sequence, read_id=0, read_name=None):
        # Search outside the mapper's guard first: an N-read raises here.
        self.index.search(sequence)
        return orig(self, sequence, read_id, read_name)

    monkeypatch.setattr(mapper_mod.Mapper, "map_read", no_catch)


class TestCatchesSeedBugs:
    def test_empty_pattern_bug_is_found_and_shrunk(self, monkeypatch):
        _reintroduce_empty_pattern_bug(monkeypatch)
        report = SelfCheck(seed=0, profile="quick", checks=["fm"]).run(3)
        assert not report.ok
        cx = report.failures[0]
        # Shrunk to the minimal shape: a 1-base text and the empty pattern.
        assert cx.inputs["patterns"] == [""]
        assert len(cx.inputs["text"]) == 1
        assert "count('')" in cx.expected
        assert "def test_fm_regression" in cx.snippet

    def test_n_crash_bug_is_found_and_shrunk(self, monkeypatch):
        _reintroduce_n_crash_bug(monkeypatch)
        report = SelfCheck(seed=0, profile="quick", checks=["mapper"]).run(3)
        assert not report.ok
        cx = report.failures[0]
        assert len(cx.inputs["text"]) == 1
        assert len(cx.inputs["reads"]) == 1
        assert "FAIL [mapper]" in cx.describe()

    def test_failures_capped_per_check(self, monkeypatch):
        _reintroduce_empty_pattern_bug(monkeypatch)
        report = SelfCheck(seed=0, profile="quick", checks=["fm"]).run(4)
        assert len(report.failures) == 1  # stop after the first shrunk case


class TestCorpus:
    def test_failure_writes_corpus_entry(self, monkeypatch, tmp_path):
        _reintroduce_empty_pattern_bug(monkeypatch)
        sc = SelfCheck(seed=0, profile="quick", checks=["fm"], corpus_dir=tmp_path)
        report = sc.run(2)
        assert len(report.corpus_written) == 1
        doc = json.loads(report.corpus_written[0].read_text())
        assert doc["check"] == "fm"
        assert doc["inputs"]["patterns"] == [""]

    def test_replay_flags_still_broken(self, monkeypatch, tmp_path):
        _reintroduce_empty_pattern_bug(monkeypatch)
        sc = SelfCheck(seed=0, profile="quick", checks=["fm"], corpus_dir=tmp_path)
        sc.run(2)
        replayed = SelfCheck(seed=0, profile="quick").replay(tmp_path)
        assert not replayed.ok  # bug still present -> replay fails

    def test_replay_clean_after_fix(self, tmp_path):
        # Same corpus, unpatched code: the entry replays green.
        (tmp_path / "fm-case.json").write_text(
            json.dumps(
                {
                    "version": 1,
                    "check": "fm",
                    "seed": 0,
                    "round": 0,
                    "inputs": {
                        "text": "C",
                        "patterns": [""],
                        "b": 5,
                        "sf": 8,
                        "backend": "rrr",
                    },
                    "expected": "count('') == 1",
                    "actual": "2",
                }
            )
        )
        replayed = SelfCheck(seed=0, profile="quick").replay(tmp_path)
        assert replayed.ok


def test_checked_in_corpus_replays_clean(repo_corpus_dir=None):
    """Every committed counterexample must stay fixed (the whole point)."""
    from pathlib import Path

    corpus = Path(__file__).resolve().parents[1] / "corpus"
    report = SelfCheck(seed=0, profile="quick").replay(corpus)
    assert report.outcomes, "committed corpus should not be empty"
    assert report.ok, "\n".join(
        cx.describe() for cx in report.failures
    )


class TestTelemetry:
    def test_counters_recorded(self):
        tel = Telemetry(enabled=True)
        set_telemetry(tel)
        try:
            SelfCheck(seed=0, profile="quick", checks=["rrr"]).run(2)
            c = tel.metrics.counter(
                "selfcheck_rounds_total",
                "Differential self-check rounds executed",
                labelnames=("check",),
            )
            assert c.value(check="rrr") == 2
        finally:
            set_telemetry(Telemetry(enabled=False))
        assert not get_telemetry().enabled


class TestCrashHandling:
    def test_generator_crash_becomes_counterexample(self):
        broken = CHECKS_BY_NAME["rrr"]

        class Exploding(type(broken)):
            name = "rrr"

            def generate(self, rng, profile):
                raise RuntimeError("boom in generate")

        sc = SelfCheck(seed=0, profile="quick", checks=["rrr"])
        sc.checks = [Exploding()]
        report = sc.run(1)
        assert not report.ok
        assert "boom in generate" in report.failures[0].actual
