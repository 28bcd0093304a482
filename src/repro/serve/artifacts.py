"""Hot-path rehydration caches for the serve layer (three tiers).

PR 9's load benchmark showed the daemon spending most of its latency
budget rebuilding state it had already computed: every eviction/touch
cycle re-derived the session's pool, component histories, and fitted
component models from the spec's seeds, even though all of them are
*pure functions* of `(spec fields, store contents)`.  This module
amortizes that work across sessions — the same bootstrap-reuse insight
the paper applies to component models, applied to the service itself:

* **Problem-artifact cache** — the deterministic, immutable part of a
  :class:`~repro.core.problem.TuningProblem` (built workflow, measured
  pool, component histories, feature encoder), keyed by exactly the
  spec fields that determine it: ``(workflow, pool_size, seed,
  noise_sigma, history_size)``.  Sessions whose keys hash equal share
  the artifacts *by reference*; the mutable problem state (collector,
  RNG, tracker) is still built fresh per session, which is why sharing
  preserves bit-identity.
* **Fitted-model cache** — an in-process front for
  :class:`~repro.store.registry.ModelRegistry` keyed by the same
  training-set content hash.  Every fit in this codebase is a
  deterministic function of its inputs, so a rehydrated session can be
  handed the previously fitted (and already packed) ensemble instead
  of refitting: same model, no wall-clock.  Works with or without a
  backing store; when a store registry is present it is consulted (and
  fed) on in-process misses.
* **Warm-snapshot cache** — a second-chance buffer holding the parsed
  checkpoint payloads of the most recently evicted sessions.  A
  re-touch within the window restores straight from the in-memory
  payload, skipping disk load and validation entirely.  Snapshots are
  consumed on hit and invalidated on create/close, so a stale payload
  can never resurrect a deleted or replaced session.

Every tier is LRU-bounded, thread-safe, and instrumented: hit/miss/
eviction counters and byte gauges flow through the telemetry hub under
``serve.cache.<tier>.*``, and :meth:`ArtifactCache.stats` feeds the
daemon's ``/v1/healthz`` stats payload.

``REPRO_NO_SERVE_CACHE=1`` is the kill switch: a disabled cache never
stores and never returns entries, reproducing PR 9's rebuild-everything
behaviour byte for byte (proven by the kill-switch tests).
"""

from __future__ import annotations

import os

from repro.cache import LruCache
from repro.workflows.pools import ProblemArtifacts, problem_artifacts

__all__ = [
    "ArtifactCache",
    "CachingModelRegistry",
    "cache_enabled",
    "spec_key",
]


def cache_enabled() -> bool:
    """Whether the serve caches are on (``REPRO_NO_SERVE_CACHE`` kills them)."""
    return os.environ.get("REPRO_NO_SERVE_CACHE", "") not in ("1", "true", "yes")


def spec_key(spec) -> tuple:
    """The deterministic-artifact key of a session spec.

    Exactly the arguments of
    :func:`repro.workflows.pools.problem_artifacts`, in order: two specs that agree here rebuild bit-identical pools,
    histories, workflows and encoders, so their sessions may share one
    artifact bundle by reference.  (``budget``, ``algorithm``,
    ``objective`` etc. shape the *mutable* problem state, which is
    always built fresh.)
    """
    return (
        spec.workflow,
        int(spec.pool_size),
        int(spec.seed),
        float(spec.noise_sigma),
        int(spec.history_size),
    )


class CachingModelRegistry:
    """In-process fitted-model front with the ModelRegistry contract.

    ``fit_or_load`` resolution order: shared in-process LRU → backing
    store registry (when the session has one) → run the deterministic
    ``fit``.  Whatever a lower layer produces is promoted upward, so a
    model is fitted (or unpickled) at most once per process and every
    later rehydration gets the already-packed ensemble by reference.
    Fitted ensembles are treated as immutable everywhere (refits clone
    before fitting), which is what makes reference sharing safe.
    """

    def __init__(self, cache: LruCache, inner=None):
        self._cache = cache
        self._inner = inner
        self.hits = 0
        self.misses = 0

    def fit_or_load(self, key: str, fit, kind: str = "model"):
        model = self._cache.get(key)
        if model is not None:
            self.hits += 1
            return model
        self.misses += 1
        if self._inner is not None:
            model = self._inner.fit_or_load(key, fit, kind=kind)
        else:
            model = fit()
        self._cache.put(key, model)
        return model


class ArtifactCache:
    """The serve layer's shared rehydration caches, one per manager.

    Parameters bound each tier's entry count; ``enabled=None`` follows
    the ``REPRO_NO_SERVE_CACHE`` kill switch.  Tests force thrash by
    passing capacity 1 everywhere.
    """

    def __init__(
        self,
        problems: int = 128,
        models: int = 1024,
        snapshots: int = 32,
        enabled: bool | None = None,
    ):
        if enabled is None:
            enabled = cache_enabled()
        self.enabled = bool(enabled)
        self.problems = LruCache("problem", problems, enabled=self.enabled)
        self.models = LruCache("model", models, enabled=self.enabled)
        self.snapshots = LruCache("snapshot", snapshots, enabled=self.enabled)

    # -- tier 1: problem artifacts -------------------------------------------

    def problem_artifacts(self, spec) -> ProblemArtifacts:
        """The shared artifact bundle for ``spec`` (built on miss).

        Misses build the bundle with
        :func:`~repro.workflows.pools.problem_artifacts` (the same
        builder ``AutoTuner`` and the suite runner use); every later
        session or rehydration with an equal :func:`spec_key` is a
        dictionary hit returning the same immutable bundle.
        """
        key = spec_key(spec)
        artifacts = self.problems.get(key)
        if artifacts is None:
            artifacts = problem_artifacts(*key)
            self.problems.put(key, artifacts)
        return artifacts

    # -- tier 2: fitted models ------------------------------------------------

    def registry(self, inner=None) -> CachingModelRegistry:
        """A fitted-model front over the shared model tier.

        ``inner`` is the problem's store-backed registry when the
        daemon is bound to a store (consulted and fed on in-process
        misses), or ``None`` for storeless sessions — the in-process
        tier alone still turns deterministic rehydration refits into
        reference handouts.
        """
        return CachingModelRegistry(self.models, inner=inner)

    # -- tier 3: warm snapshots ----------------------------------------------

    def stash_snapshot(self, name: str, payload: dict) -> None:
        """Keep an evicted session's parsed checkpoint payload warm."""
        self.snapshots.put(name, payload)

    def take_snapshot(self, name: str):
        """Consume the warm payload for ``name`` (``None`` on miss).

        Consumed on hit — the rehydrated runner will stash a fresh
        payload when it is next evicted — so one payload is never
        restored twice.
        """
        return self.snapshots.take(name)

    def invalidate_session(self, name: str) -> None:
        """Drop any warm snapshot for ``name`` (create/close/delete)."""
        self.snapshots.pop(name)

    def stats(self) -> dict:
        return {
            "enabled": self.enabled,
            "problem": self.problems.stats(),
            "model": self.models.stats(),
            "snapshot": self.snapshots.stats(),
        }

    def clear(self) -> None:
        self.problems.clear()
        self.models.clear()
        self.snapshots.clear()
