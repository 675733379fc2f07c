"""Typed, versioned JSON records — the one serialiser for persisted results.

Everything the repository writes as a machine-readable result goes through
this module: the run store's per-run records (:mod:`repro.store.runstore`)
and the benchmark harness's ``BENCH_*.json`` trajectory files
(``benchmarks/conftest.py``) share :func:`write_json_record`, so every
artifact carries the same ``schema_version`` stamp and the same
JSON-sanitisation rules instead of each writer hand-rolling its own.

The history payload keeps **every** :class:`~repro.fl.history.RoundRecord`
field — including the free-form ``extras`` diagnostics the lighter CSV/JSON
exporters of :mod:`repro.core.io` drop — because a cached run must stand in
for a recomputed one.  New ``RoundRecord`` fields ride along automatically:
the payload is built by iterating the dataclass fields, not a hand-kept
list.
"""

from __future__ import annotations

import dataclasses
import json
import os
import uuid
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import BinaryIO, Iterator, Mapping

import numpy as np

from repro.core.results import summarize_history
from repro.fl.history import RoundRecord, TrainingHistory

__all__ = [
    "STORE_SCHEMA_VERSION",
    "write_json_record",
    "history_to_payload",
    "history_from_payload",
    "run_record_payload",
]

#: Version stamped into every persisted record.  Readers treat a record with
#: a different version as stale (``RunStore.get`` misses, ``gc`` collects).
STORE_SCHEMA_VERSION = 1

#: Per-round membership lists (participants/discarded/attackers) longer than
#: this are offloaded to the record's compressed ``.npz`` sidecar instead of
#: being inlined as JSON — a 100k-client round would otherwise write ~1 MB of
#: JSON integers *per round per field*.
OFFLOAD_LIST_THRESHOLD = 1024

#: The RoundRecord fields eligible for sidecar offload (flat int lists).
_OFFLOADABLE_FIELDS = ("participants", "discarded", "attackers")


def json_sanitize(value: object) -> object:
    """Recursively convert ``value`` into plain JSON-serialisable types.

    NumPy scalars/arrays become Python scalars/lists, dataclasses and
    mappings become string-keyed dicts, tuples/sets become lists, and any
    other object falls back to ``str(value)`` — so free-form ``extras``
    (delay breakdowns, trace digests, ...) always persist rather than
    crashing the writer.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [json_sanitize(v) for v in value.tolist()]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: json_sanitize(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        return {str(k): json_sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [json_sanitize(v) for v in value]
    return str(value)


def write_json_record(path: str | Path, payload: Mapping[str, object], *, kind: str) -> Path:
    """Write ``payload`` as a versioned JSON record and return the path.

    The record gains ``schema_version`` (:data:`STORE_SCHEMA_VERSION`) and
    ``record_kind`` (``"run"`` for store entries, ``"benchmark"`` for
    ``BENCH_*.json``), is sanitised through :func:`json_sanitize`, and is
    written atomically (temp file + rename) so a killed sweep never leaves a
    half-written record for ``--resume`` to trip over.
    """
    path = Path(path)
    record: dict[str, object] = {
        "schema_version": STORE_SCHEMA_VERSION,
        "record_kind": kind,
    }
    record.update(json_sanitize(dict(payload)))
    with atomic_writer(path) as handle:
        handle.write((json.dumps(record, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    return path


@contextmanager
def atomic_writer(path: Path) -> Iterator[BinaryIO]:
    """A binary handle whose contents replace ``path`` atomically on success.

    Each writer creates its own ``<name>.<random>.tmp`` beside ``path`` (with
    the umask's mode: ``mkstemp``'s 0600 would lock others out of a shared
    store), so concurrent writers never collide and a reader sees one whole
    record.  A failed write removes its temp file; ``RunStore.gc`` a killed one's.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def history_to_payload(history: TrainingHistory, *, offload: dict | None = None) -> dict:
    """The full JSON payload of a history (all round fields, extras included).

    With ``offload`` given (a mutable dict), membership lists longer than
    :data:`OFFLOAD_LIST_THRESHOLD` are moved into it as int64 arrays keyed
    ``round<i>_<field>`` and replaced in the JSON by a
    ``{"__npz__": key, "count": n}`` reference; the caller persists the dict
    to the record's ``.npz`` sidecar.  Without it everything inlines as before.
    """
    rounds = []
    for index, record in enumerate(history.rounds):
        row = {}
        for f in dataclasses.fields(record):
            value = getattr(record, f.name)
            if (
                offload is not None
                and f.name in _OFFLOADABLE_FIELDS
                and len(value) > OFFLOAD_LIST_THRESHOLD
            ):
                ref = f"round{index}_{f.name}"
                offload[ref] = np.asarray(value, dtype=np.int64)
                row[f.name] = {"__npz__": ref, "count": len(value)}
            else:
                row[f.name] = json_sanitize(value)
        rounds.append(row)
    return {"label": history.label, "rounds": rounds}


#: Per-field decoders restoring the types ``json_sanitize`` flattened.
#: Fields of :class:`RoundRecord` without an entry here (e.g. ones added
#: after this schema shipped) are passed through as their persisted JSON
#: value, so writer and reader stay symmetric without a hand-kept list.
_ROUND_DECODERS = {
    "round_index": int,
    "delay": float,
    "accuracy": float,
    "train_loss": float,
    "elapsed_time": float,
    "participants": lambda v: [int(x) for x in v],
    "discarded": lambda v: [int(x) for x in v],
    "attackers": lambda v: [int(x) for x in v],
    "rewards": lambda v: {int(k): float(x) for k, x in v.items()},
    "extras": dict,
}


def history_from_payload(
    payload: Mapping[str, object], *, arrays: Mapping[str, object] | None = None
) -> TrainingHistory:
    """Rebuild a :class:`TrainingHistory` written by :func:`history_to_payload`.

    Scalar fields regain their numeric types and reward keys their int form;
    ``extras`` stay as the plain JSON values they were persisted as (their
    producers' rich objects were flattened by :func:`json_sanitize`).  Like
    the writer, the reader iterates the :class:`RoundRecord` dataclass
    fields, so a field added later is persisted *and* reloaded (as its JSON
    form) instead of being silently dropped on read.

    ``arrays`` resolves ``{"__npz__": ...}`` sidecar references produced by
    the writer's offload mode; a reference with no matching array raises
    ``KeyError`` (the run store treats that as an unloadable record).
    """
    history = TrainingHistory(label=str(payload.get("label", "run")))
    record_fields = dataclasses.fields(RoundRecord)
    for row in payload.get("rounds", []):
        kwargs = {}
        for f in record_fields:
            if f.name not in row:
                continue
            value = row[f.name]
            if isinstance(value, Mapping) and "__npz__" in value:
                ref = str(value["__npz__"])
                if arrays is None or ref not in arrays:
                    raise KeyError(
                        f"round field {f.name!r} references sidecar array {ref!r} "
                        "but no such array is available"
                    )
                value = np.asarray(arrays[ref]).tolist()
            decode = _ROUND_DECODERS.get(f.name)
            kwargs[f.name] = decode(value) if decode is not None else value
        history.append(RoundRecord(**kwargs))
    return history


def run_record_payload(
    spec, result, *, key: str, fingerprint: str, offload: dict | None = None
) -> dict:
    """The persisted form of one executed scenario.

    ``spec`` round-trips through :meth:`ScenarioSpec.to_mapping` (so a stored
    record can be re-validated and re-keyed later), the history keeps every
    round field, and the one-line summary is precomputed so ``repro report``
    can tabulate a store without replaying histories.  ``offload`` is passed
    through to :func:`history_to_payload` for sidecar offload of huge
    membership lists.
    """
    return {
        "key": key,
        "system_fingerprint": fingerprint,
        "system": result.system,
        "spec": spec.to_mapping(),
        "summary": summarize_history(result.history),
        "history": history_to_payload(result.history, offload=offload),
        "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
