"""The persistent certification store (PR 8).

Four layers of guarantees:

* **Keying** — the on-disk digest covers exactly the semantics-relevant
  inputs: the structural certification key, every non-cache ``PsConfig``
  field, and the semantics version (via segment headers).
* **Durability** — verdicts survive the process, merge across handles
  (the ``--jobs`` drain/absorb handoff), and compact without loss.
* **Corruption tolerance** — a truncated, garbled, or stale-semantics
  segment degrades to cache misses, never to a crash or wrong verdict.
* **Transparency** — verdict output is byte-identical with the store
  cold, warm, or disabled, and across ``--jobs`` values; a poisoned
  store entry is caught by the monitor's divergence oracle.
"""

import json
import os
from hashlib import blake2b

import pytest

from repro.cli import main
from repro.lang import parse
from repro.psna import (
    Memory,
    PsConfig,
    ThreadLts,
    certification_key,
    explore,
)
from repro.psna import certstore, machine
from repro.psna.certstore import (
    CertStore,
    SEGMENT_HEADER,
    cert_digest,
    config_fingerprint,
)
from repro.psna.intern import Interner, decode_cert, intern_cert
from repro.psna.semantics import SEMANTICS_VERSION

# A promise-heavy pair: load-buffering needs promises, so exploration
# runs real certifications (and therefore consults the store).
LB = ["a := x_rlx; y_rlx := a; return a;",
      "b := y_rlx; x_rlx := 1; return b;"]

# Two threads racing a CAS for a lock: successful RMWs attach their
# writes, so certification runs against attached messages.
CAS_LOCK = [
    "a := cas_acq_rel(l_rlx, 0, 1); if a == 0 { x_na := 1; } return a;",
    "b := cas_acq_rel(l_rlx, 0, 1); if b == 0 { x_na := 2; } return b;"]

DIGEST = "0123456789abcdef0123456789abcdef"
OTHER = "fedcba9876543210fedcba9876543210"


def lb_programs():
    return [parse(text) for text in LB]


def populate(tmp_path, monkeypatch, *extra_args):
    """Run one CLI exploration against a store under ``tmp_path``."""
    cache_dir = str(tmp_path / "cache")
    monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
    assert main(["explore", *LB, *extra_args]) == 0
    return cache_dir


def segment_paths(directory):
    return sorted(os.path.join(directory, name)
                  for name in os.listdir(directory)
                  if name.startswith("segment-") and name.endswith(".seg"))


class TestFingerprint:
    def test_cache_toggles_do_not_invalidate(self):
        base = PsConfig()
        for field in ("enable_cert_cache", "enable_key_cache"):
            toggled = PsConfig(**{field: False})
            assert config_fingerprint(toggled) == config_fingerprint(base)

    def test_bounds_do_not_invalidate(self):
        assert config_fingerprint(PsConfig(max_states=7, max_depth=3)) \
            == config_fingerprint(PsConfig())

    def test_semantic_fields_invalidate(self):
        base = config_fingerprint(PsConfig())
        assert config_fingerprint(PsConfig(cert_depth=8)) != base
        assert config_fingerprint(PsConfig(values=(0, 1, 2))) != base
        assert config_fingerprint(
            PsConfig(capped_certification=False)) != base


class TestDigest:
    def _key(self):
        from repro.lang.interp import WhileThread

        thread = ThreadLts(WhileThread.start(parse("x_rlx := 1; return 0;")))
        return certification_key(thread, Memory.initial(["x"]))

    def test_digest_is_stable_hex(self):
        fingerprint = config_fingerprint(PsConfig())
        first = cert_digest(self._key(), fingerprint)
        second = cert_digest(self._key(), fingerprint)
        assert first == second
        assert len(first) == 32
        assert all(c in "0123456789abcdef" for c in first)

    def test_config_changes_the_digest(self):
        key = self._key()
        assert cert_digest(key, config_fingerprint(PsConfig())) \
            != cert_digest(key, config_fingerprint(PsConfig(cert_depth=8)))

    def test_unstable_programs_bypass_the_store(self):
        """Programs without a process-independent repr must not be
        digested — their addresses would fabricate cross-run hits."""
        thread_key, locs, memory_key = self._key()
        unstable = ((object(),) + thread_key[1:], locs, memory_key)
        assert cert_digest(unstable, "fp") is None

    def test_interned_keys_decode_to_structural_keys(self, monkeypatch):
        """Store digests hash ``decode_cert`` output; the digests above
        hash ``certification_key``.  Both must agree on every pair that
        exploration certifies — LB at budget 2, and a CAS lock at
        budget 1 so that RMW attach ranks are covered."""
        pairs = {}
        certify = machine.certifiable

        def recording(thread, memory, config, cache=None):
            if thread.promises:
                pairs.setdefault((thread, memory))
            return certify(thread, memory, config, cache)

        monkeypatch.setattr(machine, "certifiable", recording)
        explore(lb_programs(), PsConfig(promise_budget=2))
        explore([parse(text) for text in CAS_LOCK], PsConfig(promise_budget=1))
        assert any(getattr(message, "attach", None) is not None
                   for _, memory in pairs for message in memory.messages)
        interner = Interner()
        for thread, memory in pairs:
            key = intern_cert(thread, memory, interner)
            assert decode_cert(key, interner) \
                == certification_key(thread, memory)


class TestStoreRoundTrip:
    def test_put_survives_reopen(self, tmp_path):
        store = CertStore(str(tmp_path))
        assert store.put(DIGEST, True)
        assert store.put(OTHER, False)
        store.close()
        reopened = CertStore(str(tmp_path))
        assert reopened.get(DIGEST) is True
        assert reopened.get(OTHER) is False
        assert (reopened.hits, reopened.misses) == (2, 0)

    def test_get_ignores_this_runs_pending_writes(self, tmp_path):
        """The jobs-parity invariant: lookups see only the on-disk
        snapshot loaded at open, never in-flight writes."""
        store = CertStore(str(tmp_path))
        store.put(DIGEST, True)
        assert store.get(DIGEST) is None
        assert store.misses == 1

    def test_end_run_promotes_this_runs_writes(self, tmp_path):
        """The next run's snapshot holds the verdicts earlier runs
        queued; they stay pending for the close-time segment write."""
        store = CertStore(str(tmp_path))
        store.put(DIGEST, True)
        store.end_run()
        assert store.get(DIGEST) is True
        assert not store.put(DIGEST, True)
        store.put(OTHER, False)
        assert store.get(OTHER) is None  # the current run's own write
        store.close()
        assert store.read_history()[-1]["entries"] == 2
        reopened = CertStore(str(tmp_path))
        assert (reopened.get(DIGEST), reopened.get(OTHER)) == (True, False)

    def test_duplicate_put_is_dropped(self, tmp_path):
        store = CertStore(str(tmp_path))
        assert store.put(DIGEST, True)
        assert not store.put(DIGEST, True)
        assert store.writes == 1

    def test_drain_absorb_merges_worker_entries(self, tmp_path):
        parent = CertStore(str(tmp_path))
        worker = CertStore(str(tmp_path))
        worker.put(DIGEST, True)
        worker.get(DIGEST)  # a miss: pending entries are invisible
        shipped = worker.drain()
        assert worker.pending == {}
        assert (worker.hits, worker.misses, worker.writes) == (0, 0, 0)
        parent.absorb(shipped)
        parent.absorb(None)  # storeless workers ship nothing
        parent.close()
        assert CertStore(str(tmp_path)).get(DIGEST) is True

    def test_close_compacts_many_segments(self, tmp_path):
        digests = [f"{i:032x}" for i in range(certstore.COMPACT_SEGMENTS + 1)]
        for digest in digests:
            handle = CertStore(str(tmp_path))
            handle.put(digest, True)
            handle.close()
        assert len(segment_paths(str(tmp_path))) == 1
        merged = CertStore(str(tmp_path))
        assert all(merged.get(digest) is True for digest in digests)

    def test_clear_drops_everything(self, tmp_path):
        store = CertStore(str(tmp_path))
        store.put(DIGEST, True)
        store.close()
        store = CertStore(str(tmp_path))
        assert store.clear() == 1
        assert CertStore(str(tmp_path)).get(DIGEST) is None
        events = [r.get("event") for r in store.read_history()]
        assert "clear" in events

    def test_gc_enforces_size_cap(self, tmp_path):
        store = CertStore(str(tmp_path))
        for i in range(64):
            store.put(f"{i:032x}", True)
        store.close()
        store = CertStore(str(tmp_path))
        result = store.gc(max_mb=0.0)
        assert result["dropped_entries"] == 64
        assert segment_paths(str(tmp_path)) == []

    def test_history_records_run_counters(self, tmp_path):
        store = CertStore(str(tmp_path))
        store.put(DIGEST, True)
        store.close()
        warm = CertStore(str(tmp_path))
        warm.get(DIGEST)
        warm.get(OTHER)
        warm.close()
        runs = [r for r in warm.read_history() if "hits" in r]
        assert runs[-1]["hits"] == 1 and runs[-1]["misses"] == 1


class TestDigestPins:
    """The on-disk keys of LB's certification pairs, pinned literally.
    A change to the key encoding would otherwise orphan every existing
    store silently: lookups would just keep missing."""

    #: The pairs that certify (verdict 1).
    CERTIFIED = (
        "0263580521d1a95b9016f203f84051ce",
        "0983af8538167522d1f324dcb79c97d5",
        "337c9652c1444685488728eab9acb593",
        "41c212df10eaaf9ed4696167361e48cb",
        "422c6637e3e4347360d4493407839e16",
        "60bdffd1b7ec925d39de1961f93d6d6e",
        "6d0fe89985973c8217d781dbc6ccacc3",
        "7f25b9b13ada3cf587f117192526cb18",
        "8e0f5ab4426fe4542113ad439c47b172",
        "acfdb1f648205dcaa3135a12f9803ceb",
        "b81bee3dd804431ffa4f81c05c0d96a4",
        "cf7c294c03048cf80650a37eb65d5b63",
        "fec9772f476b27db2d4138d623b5e59b",
    )
    #: BLAKE2b-128 of the segment body the exploration writes: all 139
    #: ``<digest> <verdict>`` lines after the header.
    SEGMENT_BODY = "b61d51538dd2cd63a4fee5ecfb2524eb"

    def test_lb_certification_digests_are_stable(self, tmp_path):
        store = certstore.bind(CertStore(str(tmp_path)))
        try:
            explore(lb_programs(), PsConfig(promise_budget=1))
        finally:
            certstore.unbind()
        store.close()
        [segment] = segment_paths(str(tmp_path))
        with open(segment, encoding="utf-8") as fh:
            lines = fh.readlines()
        assert lines[0] == f"{SEGMENT_HEADER} {SEMANTICS_VERSION}\n"
        assert len(lines) == 1 + 139
        assert tuple(line.split()[0] for line in lines[1:]
                     if line.endswith(" 1\n")) == self.CERTIFIED
        body = "".join(lines[1:]).encode("utf-8")
        assert blake2b(body, digest_size=16).hexdigest() == self.SEGMENT_BODY


class TestCorruption:
    """A damaged store degrades to misses — never a crash, never a
    wrong verdict."""

    def _seed_segment(self, tmp_path):
        store = CertStore(str(tmp_path))
        store.put(DIGEST, True)
        store.put(OTHER, False)
        store.close()
        return segment_paths(str(tmp_path))[0]

    def test_truncated_final_line_is_skipped(self, tmp_path):
        path = self._seed_segment(tmp_path)
        with open(path, "r", encoding="utf-8") as fh:
            content = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content[:-10])  # cut mid-entry, no trailing newline
        store = CertStore(str(tmp_path))
        # The intact first entry loads; the truncated one is a miss.
        assert store.get(DIGEST) is True
        assert store.get(OTHER) is None

    def test_garbage_segment_is_ignored(self, tmp_path):
        self._seed_segment(tmp_path)
        garbage = tmp_path / "segment-99999-junk.seg"
        garbage.write_bytes(b"\x00\xff\xfe not a store segment \x00" * 8)
        store = CertStore(str(tmp_path))
        assert store.get(DIGEST) is True  # intact segment still loads

    def test_malformed_entry_lines_are_skipped(self, tmp_path):
        path = self._seed_segment(tmp_path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("tooshort 1\n")            # bad digest length
            fh.write(f"{OTHER} maybe\n")        # bad verdict field
            fh.write(f"{OTHER} 1 extra\n")      # bad field count
            fh.write("ZZ" * 16 + " 0\n")        # non-hex digest
        store = CertStore(str(tmp_path))
        assert store.get(DIGEST) is True
        assert store.get(OTHER) is False  # original line still wins

    def test_stale_semantics_segment_is_invisible(self, tmp_path):
        path = self._seed_segment(tmp_path)
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        lines[0] = f"{SEGMENT_HEADER} psna-0\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        store = CertStore(str(tmp_path))
        assert store.get(DIGEST) is None  # old-semantics verdicts ignored
        assert store.gc(max_mb=64.0)["stale_segments"] == 1
        assert segment_paths(str(tmp_path)) == []

    def test_segment_header_carries_current_semantics(self, tmp_path):
        path = self._seed_segment(tmp_path)
        with open(path, "r", encoding="utf-8") as fh:
            assert fh.readline().strip() \
                == f"{SEGMENT_HEADER} {SEMANTICS_VERSION}"


class TestResolveDir:
    @pytest.mark.parametrize("value", ["off", "OFF", "none", "0", "", " "])
    def test_disabling_values(self, value):
        assert certstore.resolve_dir(value) is None

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv(certstore.ENV_DIR, raising=False)
        assert certstore.resolve_dir() == certstore.DEFAULT_DIR

    def test_explicit_directory(self):
        assert certstore.resolve_dir("/tmp/somewhere") == "/tmp/somewhere"


class TestTransparency:
    """Output parity: the store and the integer encoding are invisible
    in every verdict-bearing byte the tool prints."""

    def _explore_stdout(self, capsys):
        assert main(["explore", *LB, "--graph-stats"]) == 0
        return capsys.readouterr().out

    def test_explore_output_identical_cold_warm_off(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        cold = self._explore_stdout(capsys)
        warm = self._explore_stdout(capsys)
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        off = self._explore_stdout(capsys)
        assert cold == warm == off

    def test_warm_run_actually_hits_the_store(
            self, tmp_path, monkeypatch, capsys):
        populate(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["explore", *LB, "--stats"]) == 0
        err = capsys.readouterr().err
        assert "psna.cert.store_hits" in err
        assert "psna.cert.store_misses" not in err

    def _litmus_json(self, capsys, jobs):
        assert main(["litmus", "--extended", "--format", "json",
                     "--jobs", str(jobs)]) == 0
        return capsys.readouterr().out

    def test_full_catalog_identical_across_store_and_jobs(
            self, tmp_path, monkeypatch, capsys):
        """The acceptance matrix: 64 verdicts, byte-identical with the
        store cold and warm, serially and across 4 spawn workers."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        cold_serial = self._litmus_json(capsys, jobs=1)
        warm_serial = self._litmus_json(capsys, jobs=1)
        warm_pooled = self._litmus_json(capsys, jobs=4)
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        storeless = self._litmus_json(capsys, jobs=1)
        assert cold_serial == warm_serial == warm_pooled == storeless
        assert json.loads(cold_serial)["mismatches"] == 0

    def test_pooled_workers_populate_the_store(
            self, tmp_path, monkeypatch, capsys):
        """Worker pending entries ship back to the parent (drain →
        absorb) and land in the parent's close-time segment.  The fuzz
        campaign is the one pooled workload whose workers certify
        promises (the SEQ litmus game never does)."""
        cache_dir = str(tmp_path / "cache")
        monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
        assert main(["fuzz", "--seed", "0", "--budget", "4",
                     "--jobs", "2", "--no-corpus"]) == 0
        capsys.readouterr()
        store = CertStore(cache_dir)
        assert len(store.entries) > 0
        assert len(segment_paths(cache_dir)) == 1


class TestPoisonedStore:
    """The CI hard gate: a corrupted verdict *value* (valid file format,
    wrong bit) is caught by the monitor's store-divergence oracle."""

    def _flip_verdicts(self, cache_dir):
        flipped = 0
        for path in segment_paths(cache_dir):
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
            for i, line in enumerate(lines[1:], start=1):
                digest, verdict = line.split()
                lines[i] = f"{digest} {0 if verdict == '1' else 1}\n"
                flipped += 1
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(lines)
        return flipped

    def test_divergence_oracle_detects_poisoned_entry(
            self, tmp_path, monkeypatch, capsys):
        cache_dir = populate(tmp_path, monkeypatch)
        assert self._flip_verdicts(cache_dir) > 0
        # The monitor shrinks violations into ``corpus/monitor/`` under
        # the working directory; keep the droppings in the sandbox.
        monkeypatch.chdir(tmp_path)
        status = main(["explore", *LB, "--monitor", "sample:1"])
        out = capsys.readouterr()
        assert status == 1
        assert "cache.store-divergence" in out.out + out.err

    def test_clean_store_passes_the_same_monitor(
            self, tmp_path, monkeypatch, capsys):
        populate(tmp_path, monkeypatch)
        assert main(["explore", *LB, "--monitor", "sample:1"]) == 0


class TestCacheCLI:
    def test_stats_when_disabled(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        assert main(["cache", "stats"]) == 0
        assert "disabled" in capsys.readouterr().out
        assert main(["cache", "clear"]) == 2

    def test_stats_after_a_run(self, tmp_path, monkeypatch, capsys):
        populate(tmp_path, monkeypatch)
        assert main(["explore", *LB]) == 0  # a warm run for the hit rate
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "-- cert store --" in out
        assert f"semantics : {SEMANTICS_VERSION}" in out
        assert "100.0% hit rate" in out

    def test_stats_json_artifact(self, tmp_path, monkeypatch, capsys):
        populate(tmp_path, monkeypatch)
        artifact = tmp_path / "cert-store.json"
        assert main(["cache", "stats", "--json", str(artifact)]) == 0
        payload = json.loads(artifact.read_text())
        assert payload["schema"] == "repro-certstore/1"
        assert payload["semantics"] == SEMANTICS_VERSION
        assert payload["entries"] > 0
        assert payload["history"]

    def test_clear_then_stats(self, tmp_path, monkeypatch, capsys):
        cache_dir = populate(tmp_path, monkeypatch)
        assert main(["cache", "clear"]) == 0
        assert "entries removed" in capsys.readouterr().out
        assert CertStore(cache_dir).entries == {}

    def test_gc_reaps_stale_segments(self, tmp_path, monkeypatch, capsys):
        cache_dir = populate(tmp_path, monkeypatch)
        stale = os.path.join(cache_dir, "segment-1-stale.seg")
        with open(stale, "w", encoding="utf-8") as fh:
            fh.write(f"{SEGMENT_HEADER} psna-0\n{DIGEST} 1\n")
        assert main(["cache", "gc"]) == 0
        assert "1 stale segment(s) reaped" in capsys.readouterr().out
        assert not os.path.exists(stale)

    def test_explicit_dir_override(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        store = CertStore(str(tmp_path))
        store.put(DIGEST, True)
        store.close()
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        assert "entries   : 1" in capsys.readouterr().out

    def test_version_reports_semantics(self, capsys):
        with pytest.raises(SystemExit):
            main(["--version"])
        assert f"semantics  : {SEMANTICS_VERSION}" \
            in capsys.readouterr().out
