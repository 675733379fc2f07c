"""The content-addressed run store.

A :class:`RunStore` persists one JSON record per executed scenario under a
root directory (``results/store/`` by default), addressed by the scenario's
content key (:func:`repro.store.keys.spec_key`).  Records are sharded by the
first two hex digits of the key (``results/store/ab/ab12....json``) so a
large sweep never piles thousands of files into one directory, and every
write is atomic, so a killed ``repro sweep`` leaves only complete records
behind — which is exactly what ``sweep --resume`` needs to recompute only
the missing cells.

Because the key hashes *inputs* (canonical spec + seed + system capability
fingerprint), the store needs no invalidation protocol: a changed field, a
new ``ScenarioSpec`` field, a bumped key schema, or a swapped system
registration simply hashes to a different address and misses.  Orphaned
records from old code are reclaimed by :meth:`RunStore.gc`.  See
``docs/results.md`` for the layout and semantics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.core.results import summarize_history
from repro.runner.scenario import ScenarioError, ScenarioSpec
from repro.store.keys import spec_key
from repro.store.records import (
    STORE_SCHEMA_VERSION,
    atomic_writer,
    history_from_payload,
    run_record_payload,
    write_json_record,
)
from repro.systems.registry import RunResult, SystemRegistryError, capability_fingerprint

__all__ = ["DEFAULT_STORE_ROOT", "RunStoreError", "StoredRun", "RunStore"]

#: Where runs land when no root is given (relative to the working directory).
DEFAULT_STORE_ROOT = Path("results") / "store"


class RunStoreError(ValueError):
    """A run-store operation failed (missing key, unreadable record, ...)."""


@dataclass(frozen=True)
class StoredRun:
    """One persisted run: its content key, reloaded spec/result, and origin.

    Attributes
    ----------
    key:
        The 64-hex-digit content address of the run.
    spec:
        The re-validated :class:`ScenarioSpec` the run was computed from.
    result:
        The reloaded typed :class:`~repro.systems.registry.RunResult`
        (history rounds keep every field, extras included).
    fingerprint:
        The system capability fingerprint recorded at write time.
    path:
        The JSON record file backing this run.
    created_at:
        ISO-8601 UTC timestamp of when the record was written.
    checkpoint:
        The trainer's resumable-state blob
        (:meth:`repro.fl.trainer.Trainer.checkpoint_state`)
        persisted alongside the run, or ``None`` — partial-rung records
        written by :meth:`repro.runner.engine.ExperimentEngine.run_partial`
        carry one so a promoted ASHA trial continues instead of replaying.
    """

    key: str
    spec: ScenarioSpec
    result: RunResult
    fingerprint: str
    path: Path
    created_at: str = ""
    summary_record: Mapping[str, object] = field(default_factory=dict)
    checkpoint: bytes | None = None

    @property
    def summary(self) -> dict:
        """The standard one-line summary of the run.

        Served from the record's precomputed ``summary`` field when present
        (so ``repro report`` never replays histories), recomputed from the
        history otherwise.
        """
        if self.summary_record:
            return dict(self.summary_record)
        return summarize_history(self.result.history)


class RunStore:
    """Content-addressed persistence for :class:`RunResult` records.

    Parameters
    ----------
    root:
        Directory the records live under (created lazily on first write).

    A record whose rounds carry at least :attr:`OFFLOAD_TOTAL_THRESHOLD`
    membership entries in total (a 100k-client cohort run lists every
    participant every round) *offloads* the huge per-round lists into a
    compressed ``<key>.npz`` sidecar instead of inlining them as JSON
    integers; the JSON keeps ``{"__npz__": ...}`` references that :meth:`load`
    resolves transparently.  The sidecar holds exactly what a reader resolves:
    those lists and, for partial-rung records, the trainer checkpoint.
    """

    #: Records whose rounds carry at least this many membership entries in
    #: total (participants + discarded + attackers across all rounds) write
    #: the large lists to the compressed sidecar rather than the JSON record.
    OFFLOAD_TOTAL_THRESHOLD = 10_000

    def __init__(self, root: str | Path = DEFAULT_STORE_ROOT):
        self.root = Path(root)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"RunStore(root={str(self.root)!r})"

    # -- addressing -----------------------------------------------------
    def key_for(self, spec: ScenarioSpec) -> str:
        """The content address of ``spec`` (see :func:`repro.store.keys.spec_key`)."""
        return spec_key(spec)

    def path_for(self, key: str) -> Path:
        """The record file backing ``key`` (sharded by the first two digits)."""
        return self.root / key[:2] / f"{key}.json"

    def contains(self, spec: ScenarioSpec) -> bool:
        """True when a record for ``spec`` exists under this root."""
        return self.path_for(self.key_for(spec)).exists()

    # -- writing --------------------------------------------------------
    def put(
        self,
        spec: ScenarioSpec,
        result: RunResult,
        *,
        checkpoint: bytes | None = None,
    ) -> StoredRun:
        """Persist ``result`` under ``spec``'s content key and return the entry.

        An existing record is overwritten.  ``checkpoint`` attaches a trainer
        resumable-state blob to the record (stored as a ``uint8`` array in the
        ``.npz`` sidecar, which the orphan-sidecar ``gc`` covers); partial-rung
        records use this so a later, higher-fidelity run continues from round
        ``r`` instead of replaying it.
        """
        key = self.key_for(spec)
        path = self.path_for(key)
        fingerprint = capability_fingerprint(spec.system)
        history = result.history
        total_members = sum(
            len(r.participants) + len(r.discarded) + len(r.attackers)
            for r in history.rounds
        )
        arrays: dict[str, np.ndarray] = {}
        payload = run_record_payload(
            spec,
            result,
            key=key,
            fingerprint=fingerprint,
            offload=arrays if total_members >= self.OFFLOAD_TOTAL_THRESHOLD else None,
        )
        if checkpoint is not None:
            arrays["checkpoint"] = np.frombuffer(checkpoint, dtype=np.uint8)
            payload["checkpoint"] = {"rounds": len(history), "bytes": len(checkpoint)}
        arrays_path = path.with_suffix(".npz")
        if arrays:
            # Written atomically and *before* the JSON record, so a record
            # never advertises arrays that do not exist; a kill in between
            # leaves an orphan .npz that gc() reclaims.
            with atomic_writer(arrays_path) as handle:
                np.savez_compressed(handle, **arrays)
            payload["arrays"] = arrays_path.name
        else:
            arrays_path.unlink(missing_ok=True)  # drop a stale sidecar on rewrite
        write_json_record(path, payload, kind="run")
        return StoredRun(
            key=key,
            spec=spec,
            result=result,
            fingerprint=fingerprint,
            path=path,
            created_at=str(payload["created_at"]),
            summary_record=dict(payload["summary"]),
            checkpoint=checkpoint,
        )

    # -- reading --------------------------------------------------------
    def get(self, spec: ScenarioSpec) -> RunResult | None:
        """The cached :class:`RunResult` for ``spec``, or None on a miss.

        Unreadable, schema-mismatched, or tampered records count as misses
        (the caller recomputes and overwrites); the returned history is
        relabelled with ``spec.name``, since the presentation-only name is
        deliberately outside the content key.
        """
        key = self.key_for(spec)
        try:
            stored = self.load(key)
        except RunStoreError:
            return None
        stored.result.history.label = spec.name
        return stored.result

    def get_checkpoint(self, spec: ScenarioSpec) -> bytes | None:
        """The resumable-state blob stored with ``spec``'s record, if any.

        ``None`` on a store miss *or* when the record was written without a
        checkpoint (e.g. by a plain sweep) — resume paths fall back to
        computing from scratch in both cases.
        """
        key = self.key_for(spec)
        try:
            stored = self.load(key)
        except RunStoreError:
            return None
        return stored.checkpoint

    def load(self, key: str) -> StoredRun:
        """Load the record stored under ``key`` (raising :class:`RunStoreError`)."""
        path = self.path_for(key)
        if not path.exists():
            raise RunStoreError(f"no stored run with key {key!r} under {self.root}")
        return self._read(path)

    def _read(self, path: Path) -> StoredRun:
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise RunStoreError(f"unreadable run record {path}: {exc}") from exc
        if record.get("schema_version") != STORE_SCHEMA_VERSION:
            raise RunStoreError(
                f"run record {path} has schema_version "
                f"{record.get('schema_version')!r}, expected {STORE_SCHEMA_VERSION}"
            )
        try:
            spec = ScenarioSpec.from_mapping(record["spec"])
        except (KeyError, ScenarioError, SystemRegistryError) as exc:
            raise RunStoreError(f"run record {path} has an unloadable spec: {exc}") from exc
        arrays: dict[str, np.ndarray] | None = None
        if record.get("arrays"):
            arrays_path = path.with_suffix(".npz")
            try:
                with np.load(arrays_path) as data:
                    arrays = {name: data[name] for name in data.files}
            except (OSError, ValueError) as exc:
                raise RunStoreError(
                    f"run record {path} references sidecar {arrays_path.name} "
                    f"but it cannot be loaded: {exc}"
                ) from exc
        try:
            history = history_from_payload(record["history"], arrays=arrays)
        except (KeyError, TypeError, ValueError) as exc:
            raise RunStoreError(f"run record {path} has an unloadable history: {exc}") from exc
        result = RunResult(system=str(record.get("system", spec.system)), history=history)
        checkpoint: bytes | None = None
        if record.get("checkpoint") and arrays is not None and "checkpoint" in arrays:
            checkpoint = bytes(np.asarray(arrays["checkpoint"], dtype=np.uint8).tobytes())
        return StoredRun(
            key=str(record.get("key", path.stem)),
            spec=spec,
            result=result,
            fingerprint=str(record.get("system_fingerprint", "")),
            path=path,
            created_at=str(record.get("created_at", "")),
            summary_record=dict(record.get("summary") or {}),
            checkpoint=checkpoint,
        )

    # -- querying -------------------------------------------------------
    def keys(self) -> tuple[str, ...]:
        """Every record key under the root, sorted (one scan of the shard directories)."""
        return tuple(sorted(p.stem for p in self.root.glob("??/*.json")))

    def runs(self) -> list[StoredRun]:
        """Every *loadable* record, sorted by (system, scenario name, key).

        Records that fail to load (stale schema, unknown system) are skipped
        here; :meth:`gc` is the API that reclaims them.
        """
        out: list[StoredRun] = []
        for key in self.keys():
            try:
                out.append(self.load(key))
            except RunStoreError:
                continue
        out.sort(key=lambda r: (r.result.system, r.spec.name, r.key))
        return out

    def query(self, *, system: str | None = None, predicate=None, **field_equals) -> list[StoredRun]:
        """Stored runs matching the filters.

        ``system`` matches the producing system's name, ``field_equals``
        compares :class:`ScenarioSpec` fields for equality (e.g.
        ``seed=0, num_clients=20``), and ``predicate`` is an arbitrary
        ``StoredRun -> bool`` refinement applied last.
        """
        unknown = [f for f in field_equals if f not in ScenarioSpec.field_names()]
        if unknown:
            raise RunStoreError(
                "unknown scenario field(s) in query: " + ", ".join(sorted(unknown))
            )
        out = []
        for run in self.runs():
            if system is not None and run.result.system != system:
                continue
            if any(getattr(run.spec, f) != v for f, v in field_equals.items()):
                continue
            if predicate is not None and not predicate(run):
                continue
            out.append(run)
        return out

    # -- maintenance ----------------------------------------------------
    def gc(self, *, predicate=None, dry_run: bool = False) -> tuple[str, ...]:
        """Collect stale records; returns the removed (or removable) keys.

        A record is stale when it cannot be loaded (old schema, corrupt
        JSON, a system no longer registered) or when its stored key no
        longer matches the key its own spec hashes to today — the signature
        of a code-relevant change (new spec field, bumped key schema,
        swapped system registration).  ``predicate`` (``StoredRun -> bool``)
        additionally selects *valid* records to drop, e.g. everything from
        one system.  With ``dry_run=True`` nothing is deleted.
        """
        removed: list[str] = []
        for path in sorted(self.root.glob("??/*.json")):
            try:
                stored = self._read(path)
            except RunStoreError:
                removed.append(path.stem)
                if not dry_run:
                    self._remove(path)
                continue
            try:
                current_key = self.key_for(stored.spec)
            except (ScenarioError, SystemRegistryError):
                current_key = None
            stale = current_key != stored.key or path.stem != stored.key
            if stale or (predicate is not None and predicate(stored)):
                removed.append(path.stem)
                if not dry_run:
                    self._remove(path)
        # Orphaned array sidecars (a kill between the .npz and JSON writes,
        # or leftovers of externally deleted records) have no paired record,
        # and a temp file outlives only a writer killed mid-write.
        orphans = [p for p in self.root.glob("??/*.npz") if not p.with_suffix(".json").exists()]
        for leftover in sorted(orphans + list(self.root.glob("??/*.tmp"))):
            removed.append(leftover.name.partition(".")[0])  # the record's key
            if not dry_run:
                leftover.unlink(missing_ok=True)
        return tuple(removed)

    @staticmethod
    def _remove(path: Path) -> None:
        path.unlink(missing_ok=True)
        path.with_suffix(".npz").unlink(missing_ok=True)
