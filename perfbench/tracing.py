"""In-memory spans and counters recorded around calls into each layer.

The benchmark never edits the program: :func:`hooks_installed` wraps the
public functions and methods at each layer boundary (key generation, sign
and verify, Procedures I-V, the cohort kernels, the event kernel, the gossip
substrate, the run store) for the duration of one traced run and restores
them afterwards.

A span is ``(span_id, name, start, end, parent_id)``.  A layer's self time is
the sum of its spans' durations minus the time their child spans cover, so
self times of all spans inside a round add up to the round time the spans
cover (``trace.coverage_pct``).
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

__all__ = [
    "PER_LAYER",
    "Recorder",
    "self_times",
    "coverage",
    "hooks_installed",
    "layer_metrics",
]

_COHORT = (
    "round_s_p50, updates_per_s and peak_rss_mb on fl-population; "
    "some on bfl-population; not bfl-committee"
)
_HASHING = "updates_per_s on bfl-population; small on bfl-committee"

#: Every per-layer metric: (name, unit, better, end-to-end metric it should
#: move and on which workload).  Metrics of a layer that does not run on a
#: workload read 0 there (fl-population has no crypto, ledger, gossip or
#: store; only bfl-population has gossip; only bfl-committee persists).
PER_LAYER = [
    ("datasets.build_s", "s", "lower", "setup_s on all workloads"),
    ("runner.build_s", "s", "lower", "setup_s on all workloads"),
    ("crypto.keygen_s", "s", "lower", "setup_s on bfl-population; not fl-population"),
    ("crypto.keys_generated", "count", "lower", "setup_s on bfl-population; not fl-population"),
    ("crypto.keys_used", "count", "lower", "setup_s on bfl-population; not fl-population"),
    ("crypto.sign_s", "s", "lower", "round_s_p50 and updates_per_s on bfl-*"),
    ("crypto.signs", "count", "lower", "round_s_p50 and updates_per_s on bfl-*"),
    ("crypto.verify_s", "s", "lower", "round_s_p50 and updates_per_s on bfl-*"),
    ("crypto.verifies", "count", "lower", "round_s_p50 and updates_per_s on bfl-*"),
    ("crypto.verify_rejected", "count", "lower", "round_s_p50 and updates_per_s on bfl-*"),
    ("fl.local_update_s", "s", "lower", "round_s_p50 on all workloads (serial: bfl-committee)"),
    ("fl.client_updates", "count", "higher", "updates_per_s on all workloads"),
    ("fl.evaluate_s", "s", "lower", "round_s_p50 on all workloads"),
    ("fl.aggregate_s", "s", "lower", "round_s_p50 on all workloads"),
    ("nn.cohort_forward_s", "s", "lower", _COHORT),
    ("nn.cohort_backward_s", "s", "lower", _COHORT),
    ("nn.cohort_loss_s", "s", "lower", _COHORT),
    ("nn.cohort_sgd_s", "s", "lower", _COHORT),
    ("core.upload_s", "s", "lower", "round_s_p50 on bfl-*"),
    ("core.exchange_s", "s", "lower", "round_s_p50 on bfl-*"),
    ("core.global_update_s", "s", "lower", "round_s_p50 on bfl-*"),
    ("core.mining_s", "s", "lower", "round_s_p50 on bfl-*"),
    ("incentive.contributions_s", "s", "lower", "round_s_p50 on bfl-*"),
    ("incentive.strategy_s", "s", "lower", "round_s_p50 on bfl-*"),
    ("incentive.discarded", "count", "lower", "round_s_p50 on bfl-*"),
    ("blockchain.signing_bytes_calls", "count", "lower", _HASHING),
    ("blockchain.signing_bytes_s", "s", "lower", _HASHING),
    ("blockchain.signing_bytes_per_tx", "calls/tx", "lower", _HASHING),
    ("blockchain.mempool_evict_s", "s", "lower", "updates_per_s on bfl-population"),
    ("blockchain.pow_s", "s", "lower", "updates_per_s on bfl-*"),
    ("blockchain.pow_attempts_per_block", "attempts/block", "lower", "updates_per_s on bfl-*"),
    ("sim.round_sim_s", "s", "lower", "round_s_p50 on fl-population"),
    ("sim.events", "count", "lower", "round_s_p50 on fl-population"),
    ("net.begin_round_s", "s", "lower", "round_s_p50 on bfl-population only"),
    ("net.absorb_uploads_s", "s", "lower", "round_s_p50 on bfl-population only"),
    ("net.commit_block_s", "s", "lower", "round_s_p50 on bfl-population only"),
    ("net.finish_round_s", "s", "lower", "round_s_p50 on bfl-population only"),
    ("net.reorgs", "count", "lower", "round_s_p50 on bfl-population only"),
    ("net.lost_uploads", "count", "lower", "round_s_p50 on bfl-population only"),
    ("store.put_s", "s", "lower", "run_s on bfl-committee (under 1%)"),
    ("store.get_s", "s", "lower", "run_s on bfl-committee (under 1%)"),
    ("store.record_bytes", "bytes", "lower", "run_s on bfl-committee (under 1%)"),
    ("trace.coverage_pct", "%", "higher", "none: share of round wall time in spans"),
    ("trace.overhead_pct", "%", "lower", "none: traced run_s against untraced run_s"),
    ("host.calib_ms", "ms", "lower", "none: fixed calibration loop, shows host drift"),
    ("host.probe_ms", "ms", "lower", "none: host-speed probe that scales the end-to-end times"),
]

#: Per-layer metrics that count work and must repeat exactly between runs of
#: one seed, so later changes can cite them as count claims.
EXACT_COUNTS = (
    "crypto.keys_generated",
    "crypto.keys_used",
    "blockchain.signing_bytes_per_tx",
    "blockchain.pow_attempts_per_block",
    "sim.events",
    "net.reorgs",
)


class Recorder:
    """Spans kept in memory plus named counters and distinct-value sets."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self._open: list[tuple[int, str, float]] = []
        self._next_id = 0

    def begin(self, name: str) -> int:
        """Open a span nested in the innermost open one and return its id."""
        span_id = self._next_id
        self._next_id += 1
        self._open.append((span_id, name, self.clock()))
        return span_id

    def end(self, span_id: int) -> None:
        """Close the innermost open span, which must be ``span_id``."""
        end = self.clock()
        open_id, name, start = self._open.pop()
        if open_id != span_id:
            raise RuntimeError(f"span {name!r} closed out of order")
        parent = self._open[-1][0] if self._open else None
        self.spans.append((span_id, name, start, end, parent))

    @contextmanager
    def span(self, name: str):
        span_id = self.begin(name)
        try:
            yield
        finally:
            self.end(span_id)


def _child_time(spans) -> dict[int, float]:
    covered: dict[int, float] = defaultdict(float)
    for _sid, _name, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    return covered


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus time covered by children."""
    covered = _child_time(spans)
    totals: dict[str, float] = defaultdict(float)
    for sid, name, start, end, _parent in spans:
        totals[name] += (end - start) - covered.get(sid, 0.0)
    return dict(totals)


def coverage(spans, parent_name: str = "round") -> float:
    """Share of the ``parent_name`` spans' time covered by their child spans."""
    covered = _child_time(spans)
    total = inner = 0.0
    for sid, name, start, end, _parent in spans:
        if name == parent_name:
            total += end - start
            inner += covered.get(sid, 0.0)
    return inner / total if total > 0 else 0.0


# ---------------------------------------------------------------------------
# Hooks
# ---------------------------------------------------------------------------
def _timed(rec: Recorder, name: str, func, after=None):
    def wrapper(*args, **kwargs):
        span_id = rec.begin(name)
        try:
            result = func(*args, **kwargs)
        finally:
            rec.end(span_id)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _timed_iter(rec: Recorder, name: str, func, after=None):
    """Time each step of an iterator-returning call as one span."""

    def wrapper(*args, **kwargs):
        iterator = iter(func(*args, **kwargs))
        while True:
            span_id = rec.begin(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                rec.end(span_id)
            if after is not None:
                after(args, item)
            yield item

    return wrapper


def _kernel_events(rec: Recorder, func):
    def wrapper(kernel, *args, **kwargs):
        before = kernel.events_processed
        try:
            return func(kernel, *args, **kwargs)
        finally:
            rec.counts["sim.events"] += kernel.events_processed - before

    return wrapper


def _patch(owner, attr: str, make, undo: list) -> None:
    """Replace ``owner.attr`` by ``make(original_function)``, keeping its descriptor kind."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    undo.append((owner, attr, raw))
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def _hook_table(rec: Recorder):
    """(owner, attribute, wrapper factory) for every layer boundary."""
    from repro.blockchain import miner as miner_mod
    from repro.blockchain.mempool import Mempool
    from repro.blockchain.transaction import Transaction
    from repro.core import fairbfl, procedures
    from repro.crypto.keystore import KeyStore
    from repro.crypto.rsa import RSAKeyPair
    from repro.fl import cohort as fl_cohort
    from repro.fl.client import FLClient
    from repro.fl.server import CentralServer
    from repro.incentive import strategies
    from repro.net.substrate import GossipSubstrate
    from repro.nn.cohort import CohortModel
    from repro.runner.executor import ParallelExecutor
    from repro.sim.events import EventKernel
    from repro.sim.rounds import EventRoundSimulator
    from repro.store.runstore import RunStore

    counts, distinct = rec.counts, rec.distinct

    def timed(name, after=None):
        return lambda func: _timed(rec, name, func, after)

    def on_keygen(_args, _result):
        counts["crypto.keys_generated"] += 1

    def on_sign(args, _result):
        counts["crypto.signs"] += 1
        distinct["crypto.keys_used"].add(str(args[1]))

    def on_verify(args, result):
        counts["crypto.verifies"] += 1
        distinct["crypto.keys_used"].add(str(args[1]))
        if not result:
            counts["crypto.verify_rejected"] += 1

    def on_signing_bytes(_args, result):
        counts["blockchain.signing_bytes_calls"] += 1
        distinct["blockchain.transactions"].add(result)

    def on_pow(_args, result):
        counts["blockchain.pow_attempts"] += result.attempts
        counts["blockchain.pow_blocks"] += 1

    def on_updates(_args, result):
        counts["fl.client_updates"] += len(result)

    def on_block(_args, block):
        counts["fl.client_updates"] += len(block.client_ids)

    def on_put(_args, stored):
        sidecar = stored.path.with_suffix(".npz")
        counts["store.record_bytes"] += stored.path.stat().st_size + (
            sidecar.stat().st_size if sidecar.exists() else 0
        )

    strategy_classes = [
        cls
        for cls in vars(strategies).values()
        if isinstance(cls, type)
        and issubclass(cls, strategies.Strategy)
        and "apply" in cls.__dict__
    ]
    table = [
        (RSAKeyPair, "generate", timed("crypto.keygen", on_keygen)),
        (KeyStore, "sign", timed("crypto.sign", on_sign)),
        (KeyStore, "verify", timed("crypto.verify", on_verify)),
        (Transaction, "signing_bytes", timed("blockchain.signing_bytes", on_signing_bytes)),
        (Mempool, "evict_included", timed("blockchain.mempool_evict")),
        (Mempool, "evict_older_than", timed("blockchain.mempool_evict")),
        (miner_mod, "mine_block", timed("blockchain.pow", on_pow)),
        (ParallelExecutor, "run_local_updates", timed("fl.local_update", on_updates)),
        (ParallelExecutor, "iter_update_blocks",
         lambda func: _timed_iter(rec, "fl.local_update", func, on_block)),
        (ParallelExecutor, "evaluate_population", timed("fl.evaluate")),
        (FLClient, "evaluate", timed("fl.evaluate")),
        (CentralServer, "evaluate", timed("fl.evaluate")),
        (fairbfl.FairBFLTrainer, "global_test_accuracy", timed("fl.evaluate")),
        (procedures, "simple_average", timed("fl.aggregate")),
        (CentralServer, "aggregate", timed("fl.aggregate")),
        (CentralServer, "commit_global", timed("fl.aggregate")),
        (CohortModel, "forward", timed("nn.cohort_forward")),
        (CohortModel, "backward", timed("nn.cohort_backward")),
        (fl_cohort, "batched_softmax_cross_entropy", timed("nn.cohort_loss")),
        (fl_cohort, "batched_softmax_cross_entropy_grad", timed("nn.cohort_loss")),
        (fl_cohort, "sgd_step", timed("nn.cohort_sgd")),
        (fairbfl, "procedure_upload", timed("core.upload")),
        (fairbfl, "procedure_exchange", timed("core.exchange")),
        (fairbfl, "procedure_global_update", timed("core.global_update")),
        (fairbfl, "procedure_mining", timed("core.mining")),
        (procedures, "identify_contributions", timed("incentive.contributions")),
        (EventRoundSimulator, "fairbfl_round", timed("sim.round_sim")),
        (EventRoundSimulator, "fl_round", timed("sim.round_sim")),
        (EventKernel, "run", lambda func: _kernel_events(rec, func)),
        (GossipSubstrate, "begin_round", timed("net.begin_round")),
        (GossipSubstrate, "absorb_uploads", timed("net.absorb_uploads")),
        (GossipSubstrate, "commit_block", timed("net.commit_block")),
        (GossipSubstrate, "finish_round", timed("net.finish_round")),
        (RunStore, "put", timed("store.put", on_put)),
        (RunStore, "get", timed("store.get")),
    ]
    table += [(cls, "apply", timed("incentive.strategy")) for cls in strategy_classes]
    return table


@contextmanager
def hooks_installed(rec: Recorder):
    """Record spans and counts into ``rec`` at every layer boundary, then restore."""
    undo: list = []
    try:
        for owner, attr, make in _hook_table(rec):
            _patch(owner, attr, make, undo)
        yield rec
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


def layer_metrics(rec: Recorder, history_counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced run (without the run-pair metrics).

    ``history_counts`` holds the counts read from the run's own history
    (discarded updates, reorgs, lost uploads).
    """
    selfs = self_times(rec.spans)
    counts = rec.counts
    out: dict[str, float] = {}
    for name, _unit, _better, _moves in PER_LAYER:
        if name.endswith("_s"):
            out[name] = selfs.get(name[: -len("_s")], 0.0)
    out["crypto.keys_used"] = len(rec.distinct["crypto.keys_used"])
    for name in (
        "crypto.keys_generated",
        "crypto.signs",
        "crypto.verifies",
        "crypto.verify_rejected",
        "fl.client_updates",
        "blockchain.signing_bytes_calls",
        "sim.events",
        "store.record_bytes",
    ):
        out[name] = counts[name]
    transactions = len(rec.distinct["blockchain.transactions"])
    out["blockchain.signing_bytes_per_tx"] = (
        counts["blockchain.signing_bytes_calls"] / transactions if transactions else 0.0
    )
    blocks = counts["blockchain.pow_blocks"]
    out["blockchain.pow_attempts_per_block"] = (
        counts["blockchain.pow_attempts"] / blocks if blocks else 0.0
    )
    out.update(history_counts)
    out["trace.coverage_pct"] = 100.0 * coverage(rec.spans)
    return out
