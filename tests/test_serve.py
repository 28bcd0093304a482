"""The serve session layer: bit-identity, eviction, crash recovery.

The central contract under test: a session driven stepwise through
:class:`~repro.serve.sessions.SessionManager` — with eviction forced
between every request, or the whole manager discarded and rebuilt from
its state directory mid-run — finishes **bit-identical** to an
uninterrupted offline ``algorithm.tune(problem)`` run: same measured
configurations in the same order, same costs, same event log (timing
excluded), same recommendation.  This extends the
``tests/test_checkpoint_resume.py`` determinism guarantee across the
service's eviction/rehydration and restart paths.
"""

from __future__ import annotations

import pytest

from repro.serve.artifacts import ArtifactCache
from repro.serve.protocol import ServeError
from repro.serve.sessions import SessionManager
from repro.serve.specs import SessionSpec, build_algorithm, build_problem

SMALL = dict(budget=8, pool_size=60, history_size=40, seed=3)

#: Cache regimes the bit-identity contract must hold under: the shared
#: rehydration caches at their defaults, fully disabled (the
#: ``REPRO_NO_SERVE_CACHE`` rebuild-everything path), and thrashing
#: (capacity 1 everywhere, so nearly every lookup misses and entries
#: are evicted constantly).
CACHE_MODES = ("on", "off", "thrash")


def make_cache(mode: str) -> ArtifactCache | None:
    """An :class:`ArtifactCache` for one of :data:`CACHE_MODES`."""
    if mode == "off":
        return ArtifactCache(enabled=False)
    if mode == "thrash":
        return ArtifactCache(problems=1, models=1, snapshots=1)
    return None  # manager builds its own default-capacity cache


def offline_result(spec: SessionSpec):
    """The uninterrupted reference run for ``spec``."""
    return build_algorithm(spec).tune(build_problem(spec))


def comparable(result):
    """Everything deterministic about a result (timing excluded)."""
    return {
        "algorithm": result.algorithm,
        "measured": list(result.measured.items()),
        "runs_used": result.runs_used,
        "cost_execution_seconds": result.cost_execution_seconds,
        "cost_core_hours": result.cost_core_hours,
        "events": [e.as_dict(include_timing=False) for e in result.trace],
    }


def drive(manager: SessionManager, name: str, evict_every_step=False) -> dict:
    """Ask/tell ``name`` to completion; returns the done payload."""
    for _ in range(100):
        if evict_every_step:
            manager.evict_all()
        proposal = manager.ask(name)
        if proposal.get("done"):
            return proposal
        if evict_every_step:
            manager.evict_all()
        manager.tell(name, proposal["ask_id"])
    raise AssertionError("session did not finish in 100 cycles")


class TestBitIdentity:
    @pytest.mark.parametrize(
        "algorithm,cache_mode",
        [
            ("ceal", "on"),
            ("ceal", "off"),
            ("ceal", "thrash"),
            ("rs", "on"),
            ("rs", "thrash"),
            ("bo", "on"),
            ("bo", "off"),
            ("bandit", "thrash"),
        ],
        ids=lambda v: str(v),
    )
    def test_eviction_every_step_matches_offline(
        self, tmp_path, algorithm, cache_mode
    ):
        """Eviction forced between every single request: byte-equal."""
        spec = SessionSpec(algorithm=algorithm, use_history=True, **SMALL)
        straight = offline_result(spec)
        manager = SessionManager(
            tmp_path / "state", max_active=4, cache=make_cache(cache_mode)
        )
        manager.create(spec, name="s")
        done = drive(manager, "s", evict_every_step=True)
        assert comparable(manager.result("s")) == comparable(straight)
        pool = build_problem(spec).pool
        assert done["best"]["recommended_config"] == list(
            straight.best_config(pool)
        )
        assert done["best"]["recommended_value"] == straight.best_actual_value(
            pool
        )

    @pytest.mark.parametrize("cache_mode", CACHE_MODES, ids=str)
    def test_crash_recovery_restart_matches_offline(self, tmp_path, cache_mode):
        """Drop the whole manager mid-run; a new one recovers and
        finishes identically — the daemon-restart scenario.  The
        replacement manager starts with cold caches in every mode, so
        recovery must never depend on warm in-process state."""
        spec = SessionSpec(algorithm="ceal", use_history=True, **SMALL)
        straight = offline_result(spec)
        first = SessionManager(tmp_path / "state", cache=make_cache(cache_mode))
        first.create(spec, name="s")
        for _ in range(2):  # a couple of cycles, then "crash"
            proposal = first.ask("s")
            assert not proposal.get("done")
            first.tell("s", proposal["ask_id"])
        del first  # no shutdown, no checkpoint call: simulated crash

        second = SessionManager(tmp_path / "state", cache=make_cache(cache_mode))
        assert second.recovered == ["s"]
        drive(second, "s")
        assert comparable(second.result("s")) == comparable(straight)

    def test_tell_after_eviction_of_pending_ask(self, tmp_path):
        """An un-told ask survives eviction: the rehydrated session
        regenerates the identical batch under the identical id."""
        spec = SessionSpec(algorithm="rs", **SMALL)
        manager = SessionManager(tmp_path / "state")
        manager.create(spec, name="s")
        proposal = manager.ask("s")
        assert manager.evict("s")
        again = manager.ask("s")
        assert again["ask_id"] == proposal["ask_id"]
        assert again["configs"] == proposal["configs"]
        assert manager.evict("s")
        told = manager.tell("s", proposal["ask_id"])  # never re-asked
        assert told["measured"] == len(proposal["configs"])

    def test_completed_session_rehydrates_same_recommendation(self, tmp_path):
        spec = SessionSpec(algorithm="rs", **SMALL)
        manager = SessionManager(tmp_path / "state")
        manager.create(spec, name="s")
        best = drive(manager, "s")["best"]
        manager.evict_all()
        rehydrated = manager.best("s")
        assert rehydrated["completed"] is True
        assert rehydrated["recommended_config"] == best["recommended_config"]
        assert rehydrated["recommended_value"] == best["recommended_value"]


class TestLifecycleAndErrors:
    def test_lru_eviction_respects_max_active(self, tmp_path):
        manager = SessionManager(tmp_path / "state", max_active=2)
        spec = dict(algorithm="rs", **SMALL)
        for name in ("a", "b", "c"):
            manager.create(dict(spec), name=name)
        stats = manager.stats()
        assert stats["active"] == 2
        assert stats["known"] == 3
        # "a" was touched least recently: it is the evicted one.
        states = {r["session"]: r["state"] for r in manager.list_sessions()}
        assert states == {"a": "evicted", "b": "active", "c": "active"}
        # Touching "a" rehydrates it and evicts the next-coldest.
        assert manager.status("a")["state"] == "active"
        states = {r["session"]: r["state"] for r in manager.list_sessions()}
        assert states["a"] == "active"
        assert sum(s == "evicted" for s in states.values()) == 1

    def test_unknown_session(self, tmp_path):
        manager = SessionManager(tmp_path / "state")
        with pytest.raises(ServeError) as err:
            manager.ask("ghost")
        assert err.value.code == "unknown_session"

    def test_duplicate_name_conflicts(self, tmp_path):
        manager = SessionManager(tmp_path / "state")
        manager.create(dict(algorithm="rs", **SMALL), name="s")
        with pytest.raises(ServeError) as err:
            manager.create(dict(algorithm="rs", **SMALL), name="s")
        assert err.value.code == "conflict"

    def test_stale_ask_id(self, tmp_path):
        manager = SessionManager(tmp_path / "state")
        manager.create(dict(algorithm="rs", **SMALL), name="s")
        proposal = manager.ask("s")
        with pytest.raises(ServeError) as err:
            manager.tell("s", "a999")
        assert err.value.code == "stale_ask"
        manager.tell("s", proposal["ask_id"])  # the real one still lands
        with pytest.raises(ServeError) as err:
            manager.tell("s", proposal["ask_id"])  # already told
        assert err.value.code == "stale_ask"

    def test_tell_after_completion(self, tmp_path):
        manager = SessionManager(tmp_path / "state")
        manager.create(dict(algorithm="rs", **SMALL), name="s")
        drive(manager, "s")
        with pytest.raises(ServeError) as err:
            manager.tell("s", "a1")
        assert err.value.code == "session_completed"
        # ask after completion is benign: it reports done + best.
        assert manager.ask("s")["done"] is True

    def test_close_keeps_then_delete_forgets(self, tmp_path):
        manager = SessionManager(tmp_path / "state")
        manager.create(dict(algorithm="rs", **SMALL), name="s")
        manager.close("s")
        assert manager.status("s")["state"] == "active"  # rehydrated
        manager.close("s", delete=True)
        with pytest.raises(ServeError) as err:
            manager.status("s")
        assert err.value.code == "unknown_session"
        assert not list((tmp_path / "state").glob("s.*"))

    @pytest.mark.parametrize(
        "bad",
        [
            {"algorithm": "nope"},
            {"workflow": "XX"},
            {"objective": "speed"},
            {"budget": 1},
            {"warm_start": "maybe"},
            {"frobnicate": True},
        ],
        ids=lambda b: next(iter(b)),
    )
    def test_bad_spec_fields(self, tmp_path, bad):
        manager = SessionManager(tmp_path / "state")
        spec = dict(algorithm="rs", **SMALL)
        spec.update(bad)
        with pytest.raises(ServeError) as err:
            manager.create(spec, name="s")
        assert err.value.code == "bad_request"

    @pytest.mark.parametrize("name", ["", ".hidden", "a/b", "x" * 65, "a b"])
    def test_bad_session_names(self, tmp_path, name):
        manager = SessionManager(tmp_path / "state")
        with pytest.raises(ServeError) as err:
            manager.create(dict(algorithm="rs", **SMALL), name=name)
        assert err.value.code == "bad_request"

    def test_warm_start_requires_store(self, tmp_path):
        manager = SessionManager(tmp_path / "state")  # no store bound
        with pytest.raises(ServeError) as err:
            manager.create(
                dict(algorithm="rs", warm_start="full", **SMALL), name="s"
            )
        assert err.value.code == "bad_request"


class TestSharedStore:
    def test_sessions_record_into_shared_store(self, tmp_path):
        from repro.store import MeasurementStore

        manager = SessionManager(
            tmp_path / "state", store=tmp_path / "shared.db"
        )
        manager.create(dict(algorithm="rs", **SMALL), name="a")
        manager.create(
            dict(algorithm="rs", **{**SMALL, "seed": 4}), name="b"
        )
        drive(manager, "a", evict_every_step=True)
        drive(manager, "b")
        manager.store.close()
        store = MeasurementStore(tmp_path / "shared.db")
        rows = store.export()["measurements"]
        # Both sessions' paid runs landed, each recorded exactly once
        # despite the eviction churn (row-key dedupe + session ids
        # round-tripping through checkpoints).
        assert len(rows) == 2 * SMALL["budget"]
        assert len({r["session"] for r in rows}) == 2
        store.close()

    def test_warm_start_full_adopts_from_store(self, tmp_path):
        manager = SessionManager(
            tmp_path / "state", store=tmp_path / "shared.db"
        )
        cold = dict(algorithm="rs", **SMALL)
        manager.create(cold, name="cold")
        drive(manager, "cold")
        warm = dict(algorithm="rs", warm_start="full", **SMALL)
        manager.create(warm, name="warm")
        status = manager.status("warm")
        # Adopted measurements are free samples: the warm session
        # starts with the cold run's coverage before spending budget.
        assert status["samples"] > 0
        assert status["runs_used"] == 0
        drive(manager, "warm", evict_every_step=True)
        assert manager.best("warm")["completed"] is True
        manager.store.close()


class TestTelemetry:
    def test_session_counters_flow_through_hub(self, tmp_path):
        from repro import telemetry
        from repro.telemetry import Telemetry

        hub = Telemetry()
        with telemetry.use(hub):
            manager = SessionManager(tmp_path / "state", max_active=1)
            manager.create(dict(algorithm="rs", **SMALL), name="a")
            manager.create(dict(algorithm="rs", **SMALL), name="b")
            manager.status("a")  # rehydrates a, evicts b
        metrics = {m["name"]: m["value"] for m in hub.metrics_snapshot()}
        assert metrics["serve.sessions.created"] == 2
        assert metrics["serve.sessions.evicted"] >= 1
        assert metrics["serve.sessions.rehydrated"] >= 1
        # The peak is sampled before overflow eviction trims back to
        # max_active, so it may briefly exceed it — but never the
        # number of sessions ever resident.
        assert 1 <= metrics["serve.sessions.active_peak"] <= 2
