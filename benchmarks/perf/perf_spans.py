"""Outside-in span wrappers: per-layer timing without touching ``src/``.

:class:`Tracer` wraps public callables of ``repro`` *in this process* — module
attributes as imported by their caller (``repro.core.fairbfl.procedure_mining``)
and public methods (``KeyStore.verify``) — and records one span per call:
name, start, end, parent (a per-thread stack) and the scope the runner set
(a round index, a sweep phase, or ``"setup"``).  Spans stay in memory; the
runner aggregates them when the run ends.  A span's *self* time is its
duration minus the time its child spans cover, so self times of the spans
under one root add up to that root's duration.

The layer of a span is the ``src/repro/`` package its name starts with
(``crypto.verify`` belongs to ``crypto``).  In-program spans (``repro/obs/``)
are a later issue; until then this table is the only place that knows where
the layer boundaries are, and :meth:`Tracer.install` fails loudly when a
target no longer exists so a refactor cannot turn a layer metric into a
silent zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict

from perf_clock import clock

__all__ = ["TARGETS", "REQUIRED", "FORBIDDEN", "SpanTargetError", "Tracer"]


def _add_pow_attempts(tracer: "Tracer", result) -> None:
    tracer.counters["blockchain.pow_attempts"] += int(result.attempts)


def _add_put_bytes(tracer: "Tracer", result) -> None:
    tracer.counters["store.put_bytes"] += result.path.stat().st_size


def _note_job_progress(tracer: "Tracer", result) -> None:
    # First poll that reports a finished round, per job: the outside view of
    # queue wait + job set-up on the daemon.
    if result["rounds_done"] > 0:
        tracer.first_progress.setdefault(result["job_id"], time.perf_counter())  # raw, like t0


#: (span name, "module:attribute" or "module:Class.method", result hook).
#: Several targets may share a span name (the concrete ``Strategy.apply``
#: overrides all record ``fl.aggregate``).
TARGETS: tuple[tuple[str, str, object], ...] = (
    ("datasets.build", "repro.runner.engine:ExperimentEngine.dataset_for", None),
    ("runner.validate", "repro.runner.scenario:ScenarioSpec.validate", None),
    ("runner.engine_run", "repro.runner.engine:ExperimentEngine.run_result", None),
    ("systems.build", "repro.systems.builtin:FairBFLSystem.build", None),
    ("systems.build", "repro.systems.builtin:FedAvgSystem.build", None),
    ("systems.build", "repro.systems.builtin:FedProxSystem.build", None),
    ("systems.build", "repro.systems.builtin:VanillaBlockchainSystem.build", None),
    ("core.trainer_init", "repro.core.fairbfl:FairBFLTrainer.__init__", None),
    ("core.round", "repro.core.fairbfl:FairBFLTrainer.run_round", None),
    ("core.global_update", "repro.core.fairbfl:procedure_global_update", None),
    ("fl.trainer_init", "repro.fl.fedavg:FedAvgTrainer.__init__", None),
    ("fl.round", "repro.fl.fedavg:FedAvgTrainer.run_round", None),
    ("fl.local_update", "repro.fl.client:FLClient.local_update", None),
    ("fl.evaluate", "repro.fl.client:FLClient.evaluate", None),
    ("fl.defense", "repro.fl.robust:DefensePipeline.apply", None),
    ("fl.aggregate", "repro.incentive.strategies:KeepAllStrategy.apply", None),
    ("fl.aggregate", "repro.incentive.strategies:DiscardStrategy.apply", None),
    ("fl.aggregate", "repro.fl.server:CentralServer.aggregate", None),
    ("fl.cohort_block", "repro.fl.cohort:CohortTrainer.iter_update_blocks", None),
    ("fl.cohort_eval", "repro.fl.cohort:CohortTrainer.evaluate_population", None),
    ("nn.forward", "repro.nn.module:Sequential.forward", None),
    ("nn.backward", "repro.nn.module:Sequential.backward", None),
    ("nn.optim_step", "repro.nn.optim:SGD.step", None),
    ("nn.cohort_forward", "repro.nn.cohort:CohortModel.forward", None),
    ("nn.cohort_backward", "repro.nn.cohort:CohortModel.backward", None),
    ("attacks.designate", "repro.attacks.scheduler:AttackScheduler.designate", None),
    ("attacks.forge", "repro.attacks.scheduler:AttackScheduler.forge", None),
    ("sim.round", "repro.sim.rounds:EventRoundSimulator.fairbfl_round", None),
    ("sim.round", "repro.sim.delay:DelayModel.fl_round", None),
    ("crypto.keygen", "repro.crypto.keystore:KeyStore.register", None),
    ("crypto.sign", "repro.crypto.keystore:KeyStore.sign", None),
    ("crypto.verify", "repro.crypto.keystore:KeyStore.verify", None),
    ("blockchain.upload", "repro.core.fairbfl:procedure_upload", None),
    ("blockchain.exchange", "repro.core.fairbfl:procedure_exchange", None),
    ("blockchain.mining", "repro.core.fairbfl:procedure_mining", None),
    ("blockchain.pow", "repro.blockchain.miner:mine_block", _add_pow_attempts),
    ("blockchain.append", "repro.blockchain.miner:Miner.accept_block", None),
    ("incentive.contribution", "repro.core.procedures:identify_contributions", None),
    ("incentive.clustering", "repro.incentive.clustering:DBSCAN.fit", None),
    ("incentive.clustering", "repro.incentive.clustering:KMeans.fit", None),
    ("net.begin_round", "repro.net.substrate:GossipSubstrate.begin_round", None),
    ("net.absorb_uploads", "repro.net.substrate:GossipSubstrate.absorb_uploads", None),
    ("net.commit_block", "repro.net.substrate:GossipSubstrate.commit_block", None),
    ("net.finish_round", "repro.net.substrate:GossipSubstrate.finish_round", None),
    ("net.gossip_propagate", "repro.net.gossip:GossipNetwork.propagate", None),
    ("store.key", "repro.store.runstore:spec_key", None),
    ("store.put", "repro.store.runstore:RunStore.put", _add_put_bytes),
    ("store.get", "repro.store.runstore:RunStore.get", None),
    ("serve.submit", "repro.serve.client:ServeClient.submit", None),
    ("serve.status", "repro.serve.client:ServeClient.status", _note_job_progress),
)

_FAIRBFL_ROUND = (
    "runner.validate", "datasets.build", "systems.build", "core.trainer_init",
    "core.round", "core.global_update", "fl.local_update", "fl.evaluate",
    "fl.aggregate", "nn.forward", "nn.backward", "nn.optim_step", "sim.round",
    "crypto.keygen", "crypto.sign", "crypto.verify", "blockchain.upload",
    "blockchain.exchange", "blockchain.mining", "blockchain.pow",
    "blockchain.append", "incentive.contribution", "incentive.clustering",
)

#: Spans that must fire at least once in a traced run of each workload.
REQUIRED: dict[str, tuple[str, ...]] = {
    "fig4_sync": _FAIRBFL_ROUND,
    "committee_adversarial": _FAIRBFL_ROUND + (
        "attacks.designate", "attacks.forge", "fl.defense", "net.begin_round",
        "net.absorb_uploads", "net.commit_block", "net.finish_round",
        "net.gossip_propagate",
    ),
    "cohort_population": (
        "runner.validate", "datasets.build", "systems.build", "fl.trainer_init",
        "fl.round", "fl.cohort_block", "fl.cohort_eval", "nn.cohort_forward",
        "nn.cohort_backward", "sim.round",
    ),
    "sweep_serve": (
        "runner.validate", "runner.engine_run", "datasets.build", "systems.build",
        "core.round", "fl.round", "fl.local_update", "crypto.keygen", "store.key",
        "store.put", "store.get", "serve.submit", "serve.status",
    ),
}

#: Span-name prefixes that must *not* fire: the layer is bypassed on purpose,
#: so an optimisation of it has to show nothing on this workload.
FORBIDDEN: dict[str, tuple[str, ...]] = {
    "fig4_sync": ("net.", "nn.cohort_", "fl.cohort_", "attacks.", "store.", "serve."),
    "committee_adversarial": ("nn.cohort_", "fl.cohort_", "store.", "serve."),
    "cohort_population": (
        "crypto.", "net.", "blockchain.", "incentive.", "attacks.", "core.",
        "nn.forward", "nn.backward", "nn.optim_step", "store.", "serve.",
    ),
    "sweep_serve": ("net.", "nn.cohort_", "fl.cohort_"),
}


class SpanTargetError(RuntimeError):
    """A span target named in :data:`TARGETS` does not exist (any more)."""


def _resolve(path: str):
    """``"module:Class.attr"`` → (owner object, attribute name, callable)."""
    module_name, _, attr_path = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise SpanTargetError(f"span target {path!r}: cannot import {module_name}: {exc}") from exc
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            raise SpanTargetError(f"span target {path!r}: no {name!r} in {module_name}")
    # vars(), not getattr(): a method must be defined on the class the table
    # names, or an inherited one would be wrapped twice under two span names.
    fn = vars(owner).get(attr)
    if not callable(fn):
        raise SpanTargetError(f"span target {path!r} is not a callable defined there")
    return owner, attr, fn


class Tracer:
    """Installs the span wrappers and holds the spans of one run."""

    def __init__(self) -> None:
        #: (name, parent name, scope, seconds, seconds covered by children)
        self.spans: list[tuple[str, str | None, object, float, float]] = []
        #: Per scope, how much slower than the reference speed the box ran while
        #: it was open (the runner brackets each scope with calibration samples);
        #: aggregates are divided by it, like the runner's own op times.
        self.slowdown: dict[object, float] = {}
        self.counters: dict[str, int] = defaultdict(int)
        self.first_progress: dict[str, float] = {}
        #: Set by the runner: round index, sweep phase, or ``"setup"``.
        self.scope: object = None
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------
    def install(self, targets=TARGETS) -> "Tracer":
        """Wrap every target; raise :class:`SpanTargetError` if one is gone."""
        resolved = [(name, *_resolve(path), hook) for name, path, hook in targets]
        for name, owner, attr, fn, hook in resolved:
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, hook))
        return self

    def uninstall(self) -> None:
        """Put the original callables back (reverse order)."""
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- recording ------------------------------------------------------
    def _push(self, name: str) -> list:
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        frame = [0.0, name]
        stack.append(frame)
        return frame

    def _pop(self, frame: list, start: float) -> None:
        seconds = clock() - start
        stack = self._local.stack
        stack.pop()
        parent = None
        if stack:
            stack[-1][0] += seconds
            parent = stack[-1][1]
        self.spans.append((frame[1], parent, self.scope, seconds, frame[0]))

    def _wrap(self, name: str, fn, hook):
        if inspect.isgeneratorfunction(fn):
            # The work of a generator happens while it is resumed, not when it
            # is called: one span per resume, so time is charged where it runs.
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    frame = self._push(name)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._pop(frame, start)
                    yield item

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._push(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._pop(frame, start)
            if hook is not None:
                hook(self, result)
            return result

        return wrapper

    # -- aggregation ----------------------------------------------------
    def by_scope(self) -> dict[object, dict[str, dict[str, float]]]:
        """Per scope and span name: call count, total seconds, self seconds."""
        out: dict[object, dict[str, dict[str, float]]] = {}
        for name, _parent, scope, seconds, children in self.spans:
            row = out.setdefault(scope, {}).setdefault(
                name, {"n": 0, "total_s": 0.0, "self_s": 0.0}
            )
            slowdown = self.slowdown.get(scope, 1.0)
            row["n"] += 1
            row["total_s"] += seconds / slowdown
            row["self_s"] += (seconds - children) / slowdown
        return out

    def clocked_self_s(self, scopes: set) -> float:
        """Self seconds under ``scopes`` as clocked (not at the reference speed),
        to hold against the runner's own clocked seconds for the same ops."""
        return sum(
            seconds - children
            for _name, _parent, scope, seconds, children in self.spans
            if scope in scopes
        )

    def totals(self) -> dict[str, dict[str, float]]:
        """:meth:`by_scope` summed over every scope."""
        out: dict[str, dict[str, float]] = {}
        for rows in self.by_scope().values():
            for name, row in rows.items():
                total = out.setdefault(name, {"n": 0, "total_s": 0.0, "self_s": 0.0})
                for key, value in row.items():
                    total[key] += value
        return out

    def check(self, workload: str) -> list[str]:
        """Required spans that never fired and forbidden ones that did."""
        fired = {span[0] for span in self.spans}
        problems = [
            f"required span {name!r} never fired on {workload}"
            for name in REQUIRED[workload]
            if name not in fired
        ]
        problems += [
            f"forbidden span {name!r} fired on {workload}"
            for name in sorted(fired)
            if name.startswith(FORBIDDEN[workload])
        ]
        return problems
