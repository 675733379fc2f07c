"""Content addressing for experiment runs.

A run's identity is the answer to "would re-executing this scenario produce
the same history?".  :func:`spec_key` hashes exactly the inputs that decide
that answer:

* the **canonical scenario mapping** — every :class:`~repro.runner.scenario.ScenarioSpec`
  field (seed included) in coerced, order-independent form
  (:meth:`~repro.runner.scenario.ScenarioSpec.canonical_mapping`), minus the
  fields that provably never change the numbers: the presentation-only
  ``name``, and the execution-only ``backend``/``max_workers`` (the
  executor backends produce bit-identical histories — the repository's
  pinned determinism invariant — so a sweep run with ``--backend cohort``
  resumes cleanly under ``--backend serial`` and vice versa);
* the **capability fingerprint** of the registered system the spec names
  (:func:`repro.systems.registry.capability_fingerprint`) — so replacing a
  system registration (a plugin swap, a capability change) invalidates every
  run cached under the old registration;
* a **key schema version**, bumped whenever the hashed layout itself changes.

Two processes that build the same spec — from a file, a mapping in any key
order, or keyword arguments — therefore derive the same 64-hex-digit key,
and any field change produces a different one.  ``docs/results.md`` spells
out the invalidation rules.
"""

from __future__ import annotations

import hashlib
import json

from repro.runner.scenario import ScenarioSpec
from repro.systems.registry import capability_fingerprint

__all__ = ["canonical_json", "spec_key"]

#: Version of the hashed payload layout.  Bumping it invalidates every
#: existing store entry at once (``RunStore.gc`` collects them as stale).
KEY_SCHEMA_VERSION = 1

#: Spec fields excluded from the hash: they label or schedule a run without
#: affecting its history (executor backends are bit-identical by the
#: repository's determinism invariant, pinned in bench_runner_scaling).
NON_SEMANTIC_FIELDS = ("name", "backend", "max_workers")


def canonical_json(payload: object) -> str:
    """Serialise ``payload`` to the one canonical JSON form used for hashing.

    Keys are sorted recursively and separators are fixed, so two mappings
    with the same contents serialise identically regardless of insertion
    order; NaN/Infinity are rejected because they would not round-trip.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False
    )


def spec_key(spec: ScenarioSpec, *, fingerprint: str | None = None) -> str:
    """The content address of ``spec``: a stable SHA-256 hex digest.

    ``fingerprint`` defaults to the capability fingerprint of the registered
    system the spec names; pass it explicitly to compute keys for a system
    that is not currently registered (e.g. when auditing a store offline).
    """
    if fingerprint is None:
        fingerprint = capability_fingerprint(spec.system)
    mapping = spec.canonical_mapping()
    for field_name in NON_SEMANTIC_FIELDS:
        mapping.pop(field_name, None)
    payload = {
        "key_schema": KEY_SCHEMA_VERSION,
        "spec": mapping,
        "system_fingerprint": fingerprint,
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
