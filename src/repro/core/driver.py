"""The tuning driver: one instrumented, resumable measurement loop.

The paper's Fig. 3 loop (collector → modeler → searcher) used to be
reimplemented privately by every algorithm.  This module factors it into
two halves with an ask/tell contract:

* a :class:`SearchStrategy` owns the *proposal policy* — which
  configurations to measure next (``ask``), how to digest fresh
  measurements (``tell``), and which model to hand the searcher
  (``finalize``);
* a :class:`TuningRun` owns the *measurement cycle* — budget
  enforcement against the collector, fault-tolerant continuation after
  injected failures (failed runs consume budget and are reported to the
  strategy through ``tell`` so it can re-propose from the remaining
  pool), wall-clock timing of model fits, emission of typed per-cycle
  :class:`TuningEvent` records, and session checkpoint/resume.  It is
  stepwise: :class:`TuningDriver` loops over it offline, and the serve
  layer steps it one ask/tell request at a time.

Checkpointing serialises only *logical* state (measured set, RNG state,
counters, event log, raw component measurements) — never fitted models
or workflow objects.  Because every model fit in this codebase is a
deterministic function of (training data, random_state), strategies
rebuild their models on resume by refitting on the restored data, and a
resumed session finishes bit-identically to an uninterrupted one.
"""

from __future__ import annotations

import abc
import math
import os
import pickle
import tempfile
import time
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.config.space import Configuration
from repro.core.problem import AutotuneResult, TuningProblem
from repro.telemetry import progress

__all__ = [
    "CHECKPOINT_VERSION",
    "CandidateTracker",
    "CheckpointError",
    "clip_to_budget",
    "ModelSwitchState",
    "SearchStrategy",
    "TuningDriver",
    "TuningEvent",
    "TuningRun",
    "TuningSession",
    "checkpoint_payload",
    "load_checkpoint",
    "save_checkpoint",
    "save_checkpoint_payload",
    "split_batches",
]


def split_batches(total: int, iterations: int) -> list[int]:
    """Split ``total`` runs into ``iterations`` near-equal positive batches.

    Earlier batches get the remainder so every iteration has work even
    when ``total < iterations`` collapses the tail.
    """
    if total < 1:
        raise ValueError("total must be >= 1")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    iterations = min(iterations, total)
    base, extra = divmod(total, iterations)
    return [base + (1 if i < extra else 0) for i in range(iterations)]


class CandidateTracker:
    """Tracks which pool configurations are still available to measure.

    Collectors refuse to re-measure; with fault injection a run can also
    fail (consuming budget without producing a sample), so strategies
    must track *attempted* configurations, not just successful ones.

    ``remaining`` is maintained incrementally: marking configurations
    flags the cached list stale and the next access filters it once, so
    repeated reads between marks are O(1) instead of rebuilding an
    O(pool) list on every call.  The returned list is a snapshot —
    later marks rebind the cache rather than mutating it — but callers
    must still treat it as read-only.
    """

    def __init__(self, configs):
        self._remaining: list[Configuration] = [tuple(c) for c in configs]
        self._attempted: set = set()
        self._stale = False

    @property
    def remaining(self) -> list[Configuration]:
        """Pool configurations not yet attempted (treat as read-only)."""
        if self._stale:
            self._remaining = [
                c for c in self._remaining if c not in self._attempted
            ]
            self._stale = False
        return self._remaining

    def mark(self, configs) -> None:
        """Record configurations as attempted."""
        for config in configs:
            config = tuple(config)
            if config not in self._attempted:
                self._attempted.add(config)
                self._stale = True

    def take_top(self, scores: np.ndarray, candidates, n: int):
        """The ``n`` best-scoring candidates (lower = better)."""
        scores = np.asarray(scores, dtype=np.float64)
        if scores.size != len(candidates):
            raise ValueError("scores must align with candidates")
        n = min(n, len(candidates))
        order = np.argsort(scores, kind="stable")[:n]
        return [candidates[i] for i in order]

    def state_dict(self) -> dict:
        """Picklable snapshot (preserves the remaining-list order)."""
        return {
            "remaining": list(self.remaining),
            "attempted": set(self._attempted),
        }

    def restore_state(self, state: dict) -> None:
        self._remaining = list(state["remaining"])
        self._attempted = set(state["attempted"])
        self._stale = False


@dataclass(frozen=True)
class ModelSwitchState:
    """CEAL's per-iteration model-switch diagnostics (Alg. 1 lines 16–24).

    Attributes
    ----------
    model:
        Which model ranks the pool after this iteration (``"low"`` or
        ``"high"``).
    s_high, s_low:
        Summed top-1/2/3 batch recall of each model (``None`` before the
        detector could score them).
    switched:
        Whether this iteration's detection handed ranking to ``M_H``.
    injected:
        Reserved random samples injected by the bias guard (line 20).
    """

    model: str
    s_high: float | None
    s_low: float | None
    switched: bool
    injected: int


@dataclass(frozen=True)
class TuningEvent:
    """One typed per-cycle telemetry record of a tuning session.

    Replaces the untyped per-algorithm ``trace`` dicts.  ``fit_seconds``
    is the only field that is not deterministic across runs (it is
    wall-clock time); comparisons of event logs should exclude it
    (:meth:`as_dict` with ``include_timing=False``).

    Attributes
    ----------
    kind:
        ``"setup"`` (component/bootstrap phase), ``"seed"``,
        ``"iteration"``, ``"warmup"``, ``"residual"``, or ``"final"``.
    iteration:
        Measurement-cycle index (0 for setup; the final event repeats
        the last cycle's index).
    batch:
        Configurations proposed and charged this cycle.
    results:
        ``((config, value), ...)`` of the successful measurements, in
        measurement order.
    failures:
        Fault-injected runs this cycle (charged, no sample).
    fit_seconds:
        Wall-clock seconds spent in model fits since the previous event.
    runs_used, samples:
        Collector accounting after this cycle.
    detail:
        Strategy-specific extras (e.g. bandit region/UCB, GEIST
        exploration share, BO max EI).
    model_switch:
        CEAL's switch-detector state for this cycle, if any.
    """

    kind: str
    iteration: int
    batch: tuple[Configuration, ...]
    results: tuple[tuple[Configuration, float], ...]
    failures: int
    fit_seconds: float
    runs_used: int
    samples: int
    detail: dict = field(default_factory=dict)
    model_switch: ModelSwitchState | None = None

    def as_dict(self, include_timing: bool = True) -> dict:
        """Plain-dict form for serialisation and comparisons."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["detail"] = dict(self.detail)
        if self.model_switch is not None:
            out["model_switch"] = {
                f.name: getattr(self.model_switch, f.name)
                for f in fields(self.model_switch)
            }
        if not include_timing:
            del out["fit_seconds"]
        return out


def _event_attributes(event: TuningEvent) -> dict:
    """Span attributes summarising one :class:`TuningEvent`."""
    attrs = {
        "kind": event.kind,
        "iteration": event.iteration,
        "batch": len(event.batch),
        "results": len(event.results),
        "failures": event.failures,
        "fit_seconds": event.fit_seconds,
        "runs_used": event.runs_used,
        "samples": event.samples,
    }
    if event.detail:
        attrs["detail"] = dict(event.detail)
    if event.model_switch is not None:
        attrs["model"] = event.model_switch.model
        attrs["switched"] = event.model_switch.switched
    return attrs


@dataclass
class TuningSession:
    """Mutable state of one driving loop, shared with the strategy.

    Strategies read the problem, draw from ``rng`` (via
    ``problem.sample_unmeasured``), track attempted configurations in
    the shared ``tracker``, and report through ``annotate`` /
    ``timed_fit``; the driver owns event emission and checkpointing.
    """

    problem: TuningProblem
    tracker: CandidateTracker
    iteration: int = 0
    events: list[TuningEvent] = field(default_factory=list)
    fit_seconds_total: float = 0.0
    _pending_fit: float = field(default=0.0, repr=False)
    _pending_detail: dict = field(default_factory=dict, repr=False)
    _pending_switch: ModelSwitchState | None = field(default=None, repr=False)
    _pending_kind: str | None = field(default=None, repr=False)

    @classmethod
    def start(cls, problem: TuningProblem) -> "TuningSession":
        return cls(problem=problem, tracker=CandidateTracker(problem.pool_configs))

    @property
    def collector(self):
        return self.problem.collector

    @property
    def rng(self) -> np.random.Generator:
        return self.problem.rng

    @property
    def budget(self) -> int:
        return self.problem.budget

    def plan_batches(self, total: int, iterations: int) -> list[int]:
        """The driver's batching policy (`split_batches`), recorded."""
        plan = split_batches(total, iterations)
        self.annotate(batch_plan=tuple(plan))
        return plan

    def rank_candidates(self, model, candidates, n: int):
        """The ``n`` predicted-best candidates under ``model``.

        The standard exploit move (score the remaining pool, keep the
        top of the ranking), instrumented as a ``driver.rank`` span.
        Scoring goes through the model's ``predict``, so the per-config
        pool caches (component models, surrogates) and the packed
        ensemble kernels do the heavy lifting.
        """
        with telemetry.get().span(
            "driver.rank", category="predict", rows=len(candidates), take=n
        ):
            scores = np.asarray(model.predict(candidates), dtype=np.float64)
            return self.tracker.take_top(scores, candidates, n)

    def timed_fit(self, model, configs, values):
        """Fit ``model`` and charge the wall-clock time to this cycle."""
        started = time.perf_counter()
        tel = telemetry.get()
        if tel.enabled:
            with tel.span(
                "model.fit",
                category="fit",
                model=type(model).__name__,
                samples=len(values),
            ):
                out = model.fit(configs, values)
        else:
            out = model.fit(configs, values)
        self._pending_fit += time.perf_counter() - started
        return out

    def annotate(
        self,
        *,
        kind: str | None = None,
        model_switch: ModelSwitchState | None = None,
        **detail,
    ) -> None:
        """Attach strategy-specific payload to the next emitted event."""
        if kind is not None:
            self._pending_kind = kind
        if model_switch is not None:
            self._pending_switch = model_switch
        self._pending_detail.update(detail)

    @property
    def has_pending(self) -> bool:
        return bool(
            self._pending_detail
            or self._pending_fit
            or self._pending_switch is not None
        )

    def emit(self, *, kind: str, batch, results: dict) -> TuningEvent:
        """Flush pending annotations into a new :class:`TuningEvent`."""
        fit_seconds = self._pending_fit
        self.fit_seconds_total += fit_seconds
        event = TuningEvent(
            kind=self._pending_kind or kind,
            iteration=self.iteration,
            batch=tuple(tuple(c) for c in batch),
            results=tuple(results.items()),
            failures=len(batch) - len(results),
            fit_seconds=fit_seconds,
            runs_used=self.collector.runs_used,
            samples=self.collector.n_measured,
            detail=dict(self._pending_detail),
            model_switch=self._pending_switch,
        )
        self.events.append(event)
        self._pending_fit = 0.0
        self._pending_detail = {}
        self._pending_switch = None
        self._pending_kind = None
        return event


class SearchStrategy(abc.ABC):
    """The proposal policy half of a tuning algorithm.

    One strategy instance drives one session; algorithms build a fresh
    strategy per :meth:`~repro.core.algorithms.TuningAlgorithm.tune`
    call.  All hooks receive the shared :class:`TuningSession`.
    """

    #: Display name used in results, reports and checkpoints.
    name: str = "strategy"

    def prepare(self, session: TuningSession) -> None:
        """One-time setup before the loop (may spend component budget)."""

    @abc.abstractmethod
    def ask(self, session: TuningSession) -> list[Configuration]:
        """Propose the next batch to measure; ``[]`` ends the session."""

    def tell(self, session: TuningSession, batch, results: dict) -> None:
        """Digest one measured batch.

        ``batch`` is every configuration charged this cycle; ``results``
        maps the *successful* subset to measured values — fault-injected
        failures are the difference, and the strategy re-proposes from
        the remaining pool on later ``ask`` calls.
        """

    @abc.abstractmethod
    def finalize(self, session: TuningSession):
        """The final searcher model (``predict(configs) -> np.ndarray``)."""

    def summary(self, session: TuningSession) -> dict:
        """Session-level diagnostics for the trailing ``"final"`` event."""
        return {}

    def state_dict(self) -> dict:
        """Picklable logical state for checkpointing.

        Must not contain fitted models, workflow objects, or anything
        else holding closures; :meth:`load_state` re-derives models
        deterministically from restored data.
        """
        return {}

    def load_state(self, state: dict, session: TuningSession) -> None:
        """Restore :meth:`state_dict` output into a fresh strategy."""


# -- checkpoint files ---------------------------------------------------------

CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint file is unreadable or belongs to another session."""


def checkpoint_payload(
    session: TuningSession,
    strategy: SearchStrategy,
    completed: bool = False,
) -> dict:
    """The session's resumable state as a checkpoint payload dict.

    Exactly what :func:`save_checkpoint` pickles; exposed so the serve
    layer's warm-snapshot cache can keep the parsed payload of an
    evicted session in memory and restore from it without a disk
    round-trip.  Mutable session containers are copied (``events``,
    and every ``state_dict`` builds fresh dicts), so a stashed payload
    is safe against later mutation of the live session.
    """
    return {
        "version": CHECKPOINT_VERSION,
        "algorithm": strategy.name,
        "workflow": session.problem.workflow.name,
        "objective": session.problem.objective.name,
        "seed": session.problem.seed,
        "budget": session.collector.budget_runs,
        "completed": completed,
        "iteration": session.iteration,
        "fit_seconds_total": session.fit_seconds_total,
        "events": list(session.events),
        "rng_state": session.rng.bit_generator.state,
        "collector": session.collector.state_dict(),
        "tracker": session.tracker.state_dict(),
        "strategy": strategy.state_dict(),
    }


def save_checkpoint(
    path: str | Path,
    session: TuningSession,
    strategy: SearchStrategy,
    completed: bool = False,
) -> None:
    """Atomically write the session's resumable state to ``path``.

    The payload is pickled to a uniquely named temporary file in the
    target directory, fsynced, and renamed over ``path``: a crash (or a
    concurrent checkpointer in a threaded server) mid-write can never
    leave a torn checkpoint behind — readers see the previous complete
    snapshot or the new one, nothing in between.
    """
    save_checkpoint_payload(path, checkpoint_payload(session, strategy, completed))


def save_checkpoint_payload(path: str | Path, payload: dict) -> None:
    """Atomically persist an already-built checkpoint payload."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent or Path("."), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_checkpoint(path: str | Path) -> dict:
    """Read a checkpoint payload written by :func:`save_checkpoint`."""
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict) or "version" not in payload:
        raise CheckpointError(f"{path} is not a tuning checkpoint")
    if payload["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {payload['version']} is not supported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    return payload


# -- the tuning cycle ---------------------------------------------------------


class TuningRun:
    """One tuning session, stepped one measurement cycle at a time.

    The only copy of the tuning cycle (paper Fig. 3 / Alg. 1): prepare,
    then ask → budget clip → measure → tell → emit → checkpoint until
    the strategy stops proposing, then finalize.  :meth:`TuningDriver.run`
    loops over it offline; the serve layer's
    :class:`~repro.serve.sessions.SessionRunner` steps it one request at
    a time, which is why a served session finishes bit-identical to an
    offline one.

    Lifecycle: :meth:`start` (fresh) or :meth:`restore` (from a
    checkpoint payload), then :meth:`ask`/:meth:`tell` until ``ask``
    returns ``[]``, then :meth:`finish`.  With a ``checkpoint_path`` the
    resumable state is saved after the setup phase, after every
    :meth:`tell` and on completion — only at cycle boundaries, never
    between an ``ask`` and its ``tell``.
    """

    def __init__(
        self,
        strategy: SearchStrategy,
        problem: TuningProblem,
        checkpoint_path: str | Path | None = None,
    ):
        self.strategy = strategy
        self.problem = problem
        self.checkpoint_path = checkpoint_path
        self.session = TuningSession.start(problem)
        self.completed = False
        #: The payload of the last checkpoint saved or restored (``None``
        #: without a checkpoint path).
        self.last_checkpoint: dict | None = None
        self._result: AutotuneResult | None = None

    def start(self) -> None:
        """Fresh start: warm-adopt, ``prepare``, setup event, checkpoint."""
        session = self.session
        tel = telemetry.get()
        with tel.span("driver.prepare", category="driver") as prep_span:
            if self.problem.warm_start == "full":
                from repro.store.warmstart import adopt_stored_measurements

                adopted = adopt_stored_measurements(session)
                if adopted:
                    session.annotate(warm_adopted=adopted)
            self.strategy.prepare(session)
            if session.collector.runs_used > 0 or session.has_pending:
                event = session.emit(kind="setup", batch=(), results={})
                if tel.enabled:
                    prep_span.set(**_event_attributes(event))
        self._save()

    def restore(self, payload: dict) -> None:
        """Continue from a checkpoint payload written by the same session.

        The caller must have built the *same* problem (workflow,
        objective, pool, seed, budget) and strategy; a mismatch raises
        :class:`CheckpointError`.  Models are refit deterministically on
        demand, so the run continues bit-identically.
        """
        session = self.session
        expected = {
            "algorithm": self.strategy.name,
            "workflow": self.problem.workflow.name,
            "objective": self.problem.objective.name,
            "seed": self.problem.seed,
            "budget": session.collector.budget_runs,
        }
        for key, want in expected.items():
            got = payload.get(key)
            if got != want:
                raise CheckpointError(
                    f"checkpoint {key} mismatch: checkpoint has {got!r}, "
                    f"the session was built with {want!r}"
                )
        session.iteration = payload["iteration"]
        session.events = list(payload["events"])
        session.fit_seconds_total = payload["fit_seconds_total"]
        session.collector.restore_state(payload["collector"])
        session.rng.bit_generator.state = payload["rng_state"]
        session.tracker.restore_state(payload["tracker"])
        self.strategy.load_state(payload["strategy"], session)
        self.completed = bool(payload.get("completed", False))
        self.last_checkpoint = payload

    def ask(self) -> list[Configuration]:
        """The strategy's next batch, clipped to the remaining budget.

        ``[]`` means the session is over: call :meth:`finish`.
        """
        with telemetry.get().span("driver.ask", category="driver"):
            batch = [tuple(c) for c in self.strategy.ask(self.session)]
        return clip_to_budget(batch, self.session.collector)

    def tell(self, batch: Sequence[Configuration]) -> TuningEvent:
        """Measure ``batch`` (from :meth:`ask`), digest it, checkpoint."""
        session = self.session
        batch = list(batch)
        results = session.collector.measure_batch(batch)
        session.iteration += 1
        with telemetry.get().span("driver.tell", category="driver"):
            self.strategy.tell(session, batch, results)
        event = session.emit(kind="iteration", batch=batch, results=results)
        self._save()
        return event

    def finish(self) -> AutotuneResult:
        """The session's result, finalizing it on the first call.

        A run restored from a completed checkpoint refits its final
        model (deterministic: same data, same seeds) without emitting a
        second ``final`` event or rewriting the checkpoint.
        """
        if self._result is not None:
            return self._result
        session = self.session
        with telemetry.get().span("driver.finalize", category="driver"):
            model = self.strategy.finalize(session)
            summary = None if self.completed else self.strategy.summary(session)
        if not self.completed:
            if summary or session.has_pending:
                session.annotate(**summary)
                session.emit(kind="final", batch=(), results={})
            self.completed = True
            self._save()
        self._result = AutotuneResult.from_collector(
            self.strategy.name, self.problem, model, trace=session.events
        )
        return self._result

    def _save(self) -> None:
        if self.checkpoint_path is not None:
            payload = checkpoint_payload(
                self.session, self.strategy, self.completed
            )
            save_checkpoint_payload(self.checkpoint_path, payload)
            self.last_checkpoint = payload


@dataclass
class TuningDriver:
    """Runs a :class:`TuningRun` to completion in one call.

    Parameters
    ----------
    checkpoint_path:
        When set, the session's resumable state is written here after
        the setup phase and after every measurement cycle.
    """

    checkpoint_path: str | Path | None = None

    def run(
        self,
        strategy: SearchStrategy,
        problem: TuningProblem,
        *,
        resume: bool = False,
        max_cycles: int | None = None,
    ) -> AutotuneResult | None:
        """Drive ``strategy`` over ``problem`` until it stops proposing.

        ``resume=True`` restores the session from ``checkpoint_path``
        (the caller must reconstruct the *same* problem — workflow,
        objective, pool, seed, budget — the checkpoint was written
        from; mismatches raise :class:`CheckpointError`).
        ``max_cycles`` bounds the number of measurement cycles executed
        by *this* call; when the bound is hit mid-session the method
        returns ``None``, leaving the checkpoint in place for a later
        resume.  A resumed session is bit-identical to an uninterrupted
        one in every deterministic field.

        When a telemetry hub is installed (:mod:`repro.telemetry`), the
        loop emits nested spans — ``driver.run`` > ``driver.cycle`` >
        ``driver.ask``/``collector.measure``/``driver.tell`` — carrying
        each cycle's :class:`TuningEvent` fields as span attributes,
        plus ``driver.cycles`` / ``fit_seconds`` metrics.  Telemetry is
        purely observational: results are bit-identical either way.
        """
        tel = telemetry.get()
        with tel.span(
            "driver.run",
            category="driver",
            algorithm=strategy.name,
            workflow=problem.workflow.name,
            objective=problem.objective.name,
            resume=resume,
        ):
            run = TuningRun(strategy, problem, self.checkpoint_path)
            if resume:
                if self.checkpoint_path is None:
                    raise ValueError("resume requires a checkpoint_path")
                run.restore(load_checkpoint(self.checkpoint_path))
            else:
                run.start()
            cycles = 0
            while not run.completed:
                if max_cycles is not None and cycles >= max_cycles:
                    return None
                with tel.span(
                    "driver.cycle",
                    category="driver",
                    iteration=run.session.iteration + 1,
                ) as cycle_span:
                    batch = run.ask()
                    if not batch:
                        break
                    event = run.tell(batch)
                    if tel.enabled:
                        cycle_span.set(**_event_attributes(event))
                        tel.counter("driver.cycles").inc()
                        tel.histogram("fit_seconds").observe(event.fit_seconds)
                self._heartbeat(strategy, run.session)
                cycles += 1
            return run.finish()

    @staticmethod
    def _heartbeat(strategy: SearchStrategy, session: TuningSession) -> None:
        """Report one finished cycle to the live progress sink.

        Observe-only: reads collector accounting and the measured set,
        never touches random state — results are bit-identical with
        progress enabled or disabled.
        """
        sink = progress.get()
        if not sink.enabled:
            return
        collector = session.collector
        measured = collector.measured
        budget = collector.budget_runs
        sink.driver_cycle(
            algorithm=strategy.name,
            workflow=session.problem.workflow.name,
            iteration=session.iteration,
            runs_used=collector.runs_used,
            budget=None if budget is None else int(budget),
            best_value=min(measured.values()) if measured else None,
            fit_seconds=session.fit_seconds_total,
        )


def clip_to_budget(batch: Sequence[Configuration], collector) -> list:
    """Truncate a proposed batch to the collector's remaining budget."""
    remaining = collector.runs_remaining
    if math.isinf(remaining):
        return list(batch)
    return list(batch)[: max(int(remaining), 0)]
