"""Content-addressed persistence for experiment runs.

The package splits into:

* :mod:`repro.store.keys` — :func:`spec_key`, the stable content address of
  a scenario (canonical spec + seed + system capability fingerprint);
* :mod:`repro.store.records` — the one versioned JSON serialiser shared by
  the run store and the benchmark harness's ``BENCH_*.json`` writer;
* :mod:`repro.store.runstore` — :class:`RunStore`, the on-disk store under
  ``results/store/`` with put/get/query/gc;
* :mod:`repro.store.report` — the ``repro report`` tables (text, Markdown,
  CSV) over stored runs.

``ExperimentEngine(store=RunStore(...))`` threads the store through every
run, ``repro.api`` exposes it as the opt-in ``cache="store"``, and the CLI
adds ``sweep --resume/--no-cache`` plus the ``report`` subcommand.  See
``docs/results.md`` for layout, key semantics, and a walkthrough.
"""

from repro.store.keys import canonical_json, spec_key
from repro.store.records import (
    STORE_SCHEMA_VERSION,
    history_from_payload,
    history_to_payload,
    run_record_payload,
    write_json_record,
)
from repro.store.report import report_table, save_markdown
from repro.store.runstore import DEFAULT_STORE_ROOT, RunStore, RunStoreError, StoredRun

__all__ = [
    "DEFAULT_STORE_ROOT",
    "RunStore",
    "RunStoreError",
    "STORE_SCHEMA_VERSION",
    "StoredRun",
    "canonical_json",
    "history_from_payload",
    "history_to_payload",
    "report_table",
    "run_record_payload",
    "save_markdown",
    "spec_key",
    "write_json_record",
]
