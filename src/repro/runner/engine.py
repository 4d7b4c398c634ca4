"""The experiment engine: one entry point for every run in the repository.

The engine turns a validated :class:`~repro.runner.scenario.ScenarioSpec`
into a run of the *registered* system it names: it resolves the spec's
``system`` through the registry (:mod:`repro.systems`), builds the federated
dataset only when the system's capabilities declare it needs one, and
executes ``system.build(spec, dataset).run()`` — so adding a system is a
registration, not an engine patch.  Federated datasets are memoised by their
generating fields, so a sweep that varies only algorithmic knobs (learning
rate, strategy, miner count, ...) partitions the data exactly once.

The heavy lifting of a round stays in the trainers (e.g.
:mod:`repro.core.procedures`); the engine's job is wiring (registry → dataset
→ run) plus the scenario-level conveniences: :meth:`ExperimentEngine.run_many`
for scenario lists and :meth:`ExperimentEngine.sweep_table` for the
Figure-style summary tables the benchmarks print.  Prefer the stable facade
:mod:`repro.api` (``run``/``sweep``/``compare``) for new call sites.

Attach a content-addressed :class:`~repro.store.runstore.RunStore` to make
runs persistent: every computed result is written under its spec's content
key, and (with ``reuse_cached=True``, the default) a scenario whose record
already exists is loaded instead of recomputed — the mechanism behind
``repro sweep --resume`` and the opt-in ``cache="store"`` of
:mod:`repro.api`.  The ``runs_computed`` / ``cache_hits`` counters make the
split observable (and testable).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.results import ComparisonResult, summarize_history
from repro.datasets.federated import FederatedDataset, build_federated_dataset
from repro.fl.history import TrainingHistory
from repro.runner.checkpoint import CheckpointError
from repro.runner.scenario import ScenarioError, ScenarioSpec
from repro.systems.registry import RunResult, get_system

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.store.runstore import RunStore

__all__ = ["RunCancelled", "ScenarioResult", "ExperimentEngine"]


class RunCancelled(RuntimeError):
    """A streaming run was cancelled cooperatively between rounds.

    Raised by :meth:`ExperimentEngine.run_streaming` when its ``should_stop``
    callable returns True; the rounds computed so far are accounted in
    ``round_evaluations`` but no record is stored and ``runs_computed`` does
    not move.
    """


@dataclass(frozen=True)
class ScenarioResult:
    """One executed scenario: the spec, its history, and the trainer label."""

    spec: ScenarioSpec
    history: TrainingHistory

    @property
    def summary(self) -> dict:
        """The standard one-line summary of the run."""
        return summarize_history(self.history)


@dataclass
class ExperimentEngine:
    """Executes scenarios through the system registry, memoising datasets.

    Attributes
    ----------
    cache_datasets:
        When True (default) federated datasets are reused across scenarios
        that share the same generating fields (clients, samples, scheme,
        noise, seed), matching the benchmark suite's behaviour.  Systems
        whose registered capabilities set ``needs_dataset=False`` (the
        vanilla blockchain) never trigger a dataset build at all.
    store:
        Optional content-addressed :class:`~repro.store.runstore.RunStore`.
        When set, every computed run is persisted under its spec's content
        key; with ``reuse_cached`` also True, a spec whose record already
        exists is loaded from disk instead of recomputed.
    reuse_cached:
        Whether the store is consulted before computing (True, the resume
        path) or written through only (False — persist everything but
        recompute regardless, the CLI's default sweep behaviour).
    runs_computed:
        Number of scenarios this engine actually executed (cache misses
        included); together with ``cache_hits`` this makes resume behaviour
        assertable.
    cache_hits:
        Number of scenarios served from the store without computation.

    All three counters are updated through :meth:`tally` under one internal
    lock, so an engine shared across server worker threads (``repro serve``)
    never loses an increment to a read-modify-write race.
    round_evaluations:
        Total *simulated communication rounds actually computed* by this
        engine (cache hits and checkpoint-resumed prefixes cost zero) — the
        budget an adaptive search spends, and the quantity
        ``benchmarks/bench_search_efficiency.py`` compares against an
        exhaustive grid.
    """

    cache_datasets: bool = True
    store: "RunStore | None" = None
    reuse_cached: bool = True
    runs_computed: int = 0
    cache_hits: int = 0
    round_evaluations: int = 0
    _dataset_cache: dict[tuple, FederatedDataset] = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    # ------------------------------------------------------------------
    def tally(self, *, runs: int = 0, rounds: int = 0, hits: int = 0) -> None:
        """Atomically bump the engine counters (thread-safe).

        Plain ``+=`` on the counter attributes is a read-modify-write that
        loses increments when the engine is shared across threads (the
        ``repro serve`` worker pool); every internal counter update routes
        through here, and external executors (the serve layer's subprocess
        isolation mode) use it to account work computed on the engine's
        behalf in another process.
        """
        with self._lock:
            self.runs_computed += runs
            self.round_evaluations += rounds
            self.cache_hits += hits

    def dataset_for(self, spec: ScenarioSpec) -> FederatedDataset:
        """Build (or fetch the memoised) federated dataset for ``spec``.

        A dataset that cannot be built from the spec's fields (e.g. a
        Dirichlet split with too few samples for its clients) raises
        :class:`ScenarioError` naming them.
        """
        key = spec.dataset_key()
        if not self.cache_datasets:
            return self._build_dataset(spec)
        with self._lock:
            dataset = self._dataset_cache.get(key)
        if dataset is None:
            # Built outside the lock (builds are slow and deterministic);
            # concurrent builders race benignly — setdefault keeps one winner.
            built = self._build_dataset(spec)
            with self._lock:
                dataset = self._dataset_cache.setdefault(key, built)
        return dataset

    @staticmethod
    def _build_dataset(spec: ScenarioSpec) -> FederatedDataset:
        try:
            return build_federated_dataset(
                num_clients=spec.num_clients,
                num_samples=spec.num_samples,
                scheme=spec.scheme,
                seed=spec.seed,
                noise_std=spec.noise_std,
                low_quality_fraction=spec.low_quality_fraction,
                distinct_shards=spec.distinct_shards,
            )
        except ValueError as exc:
            raise ScenarioError(
                f"cannot build the dataset of scenario {spec.name!r} "
                f"(num_clients={spec.num_clients}, num_samples={spec.num_samples}, "
                f"scheme={spec.scheme!r}): {exc}"
            ) from exc

    # ------------------------------------------------------------------
    def run_result(self, spec: ScenarioSpec) -> RunResult:
        """Execute one scenario and return the system's typed :class:`RunResult`.

        With a :attr:`store` attached, the result is served from disk when a
        record for the spec's content key exists (and ``reuse_cached`` is
        True), and persisted after computation otherwise.
        """
        spec.validate()
        if self.store is not None and self.reuse_cached:
            cached = self.store.get(spec)
            if cached is not None:
                self.tally(hits=1)
                return cached
        system = get_system(spec.system)
        dataset = self.dataset_for(spec) if system.capabilities.needs_dataset else None
        result = system.build(spec, dataset).run()
        result.history.label = spec.name
        self.tally(runs=1, rounds=len(result.history))
        if self.store is not None:
            self.store.put(spec, result)
        return result

    def run_partial(
        self,
        spec: ScenarioSpec,
        rounds: int | None = None,
        *,
        resume_from: tuple[int, ...] = (),
        checkpoint: bool = True,
    ) -> RunResult:
        """Run ``spec`` to a fidelity of ``rounds`` rounds, resuming when possible.

        The partial run is a first-class record: it is stored under (and
        served from) the content key of ``spec.with_overrides(num_rounds=rounds)``
        — ``num_rounds`` is purely a loop bound in every trainer, so an
        ``r``-round record is *exactly* the record a plain ``r``-round sweep
        would produce, and rungs are shared between adaptive searches and
        ordinary sweeps with no extra key machinery.

        ``resume_from`` lists lower fidelities whose records may carry a
        checkpoint (an ASHA rung ladder); they are tried highest-first, and a
        hit restores the trainer's full state so only ``rounds - r`` new
        rounds are computed (``round_evaluations`` counts exactly those).
        With ``checkpoint=True`` (default, store attached) the finished run's
        own resumable state is persisted for the next promotion.

        Raises :class:`~repro.runner.scenario.ScenarioError` for systems
        whose trainer does not implement the checkpoint protocol
        (:class:`~repro.runner.checkpoint.CheckpointMixin`).
        """
        spec.validate()
        target = (
            spec
            if rounds is None or int(rounds) == spec.num_rounds
            else spec.with_overrides(num_rounds=int(rounds))
        )
        if self.store is not None and self.reuse_cached:
            cached = self.store.get(target)
            if cached is not None:
                self.tally(hits=1)
                return cached
        system = get_system(target.system)
        dataset = self.dataset_for(target) if system.capabilities.needs_dataset else None
        runner = system.build(target, dataset)
        trainer = getattr(runner, "trainer", None)
        if trainer is None or not callable(getattr(trainer, "run_until", None)):
            raise ScenarioError(
                f"system {target.system!r} does not support partial runs: its "
                "build() result exposes no checkpointable trainer (see "
                "repro.runner.checkpoint.CheckpointMixin)"
            )
        start = 0
        if self.store is not None and self.reuse_cached:
            candidates = sorted(
                {int(r) for r in resume_from if 0 < int(r) < target.num_rounds},
                reverse=True,
            )
            for prior in candidates:
                blob = self.store.get_checkpoint(target.with_overrides(num_rounds=prior))
                if blob is None:
                    continue
                try:
                    trainer.restore_state(blob)
                except CheckpointError:
                    continue  # stale/foreign blob: fall through to lower rungs
                start = trainer.rounds_completed()
                break
        try:
            trainer.run_until(target.num_rounds)
            blob = (
                trainer.checkpoint_state()
                if checkpoint and self.store is not None
                else None
            )
        finally:
            close = getattr(trainer, "close", None)
            if callable(close):
                close()
        history = trainer.history
        history.label = spec.name
        result = RunResult(
            system=system.name,
            history=history,
            extras=dict(getattr(runner, "extras", {})),
        )
        self.tally(runs=1, rounds=target.num_rounds - start)
        if self.store is not None:
            self.store.put(target, result, checkpoint=blob)
        return result

    def run_streaming(
        self,
        spec: ScenarioSpec,
        *,
        progress=None,
        should_stop=None,
    ) -> RunResult:
        """Run ``spec`` one round at a time, reporting progress between rounds.

        ``progress(rounds_done, total_rounds)`` is called after every
        simulated communication round (and once, immediately, on a store
        hit), which is how the experiment service streams per-round progress
        into its job status endpoint.  ``should_stop()`` is polled between
        rounds; when it returns True the run stops and :class:`RunCancelled`
        is raised — the rounds already computed are counted in
        ``round_evaluations``, nothing is stored, and ``runs_computed`` does
        not move.

        The stepping reuses the checkpoint machinery's ``run_until`` (the
        same incremental path an ASHA promotion resumes through), so the
        resulting history is bit-identical to an uninterrupted
        :meth:`run_result` of the same spec.  Systems whose trainer does not
        implement the checkpoint protocol fall back to one non-interruptible
        :meth:`run_result` call with a single final progress report.
        """
        spec.validate()
        total = int(spec.num_rounds)
        if self.store is not None and self.reuse_cached:
            cached = self.store.get(spec)
            if cached is not None:
                self.tally(hits=1)
                if progress is not None:
                    progress(total, total)
                return cached
        system = get_system(spec.system)
        dataset = self.dataset_for(spec) if system.capabilities.needs_dataset else None
        runner = system.build(spec, dataset)
        trainer = getattr(runner, "trainer", None)
        if trainer is None or not callable(getattr(trainer, "run_until", None)):
            result = self._run_prebuilt(spec, runner)
            if progress is not None:
                progress(total, total)
            return result
        done = 0
        try:
            for target_round in range(1, total + 1):
                if should_stop is not None and should_stop():
                    raise RunCancelled(
                        f"run of {spec.name!r} cancelled after {done}/{total} rounds"
                    )
                trainer.run_until(target_round)
                done = target_round
                if progress is not None:
                    progress(done, total)
        finally:
            self.tally(rounds=done)
            close = getattr(trainer, "close", None)
            if callable(close):
                close()
        history = trainer.history
        history.label = spec.name
        result = RunResult(
            system=system.name,
            history=history,
            extras=dict(getattr(runner, "extras", {})),
        )
        self.tally(runs=1)
        if self.store is not None:
            self.store.put(spec, result)
        return result

    def _run_prebuilt(self, spec: ScenarioSpec, runner) -> RunResult:
        """Execute an already-built run object with the standard accounting."""
        result = runner.run()
        result.history.label = spec.name
        self.tally(runs=1, rounds=len(result.history))
        if self.store is not None:
            self.store.put(spec, result)
        return result

    def run(self, spec: ScenarioSpec) -> TrainingHistory:
        """Execute one scenario end-to-end and return its history."""
        return self.run_result(spec).history

    def run_many(self, specs: list[ScenarioSpec]) -> list[ScenarioResult]:
        """Execute a list of scenarios (e.g. an expanded matrix) in order."""
        return [ScenarioResult(spec=spec, history=self.run(spec)) for spec in specs]

    def sweep_table(
        self,
        specs: list[ScenarioSpec],
        *,
        title: str = "Scenario sweep",
    ) -> tuple[ComparisonResult, list[ScenarioResult]]:
        """Run ``specs`` and tabulate the per-scenario summaries."""
        results = self.run_many(specs)
        table = ComparisonResult(
            title=title,
            columns=["scenario", "system", "rounds", "avg_delay_s", "avg_accuracy", "final_accuracy"],
        )
        for result in results:
            summary = result.summary
            table.add_row(
                result.spec.name,
                result.spec.system,
                summary["rounds"],
                summary["average_delay"],
                summary["average_accuracy"],
                summary["final_accuracy"],
            )
        return table, results
