"""Content-addressed persistence for experiment runs.

The package splits into:

* :mod:`repro.store.keys` — ``spec_key``, the stable content address of
  a scenario (canonical spec + seed + system capability fingerprint);
* :mod:`repro.store.records` — the one versioned JSON serialiser shared by
  the run store and the benchmark harness's ``BENCH_*.json`` writer;
* :mod:`repro.store.runstore` — ``RunStore``, the on-disk store under
  ``results/store/`` with put/get/query/gc;
* :mod:`repro.store.report` — the ``repro report`` tables (text, Markdown,
  CSV) over stored runs.

``ExperimentEngine(store=RunStore(...))`` threads the store through every
run, ``repro.api`` exposes it as the opt-in ``cache="store"``, and the CLI
adds ``sweep --resume/--no-cache`` plus the ``report`` subcommand.  See
``docs/results.md`` for layout, key semantics, and a walkthrough.
"""

from repro.store.report import save_markdown
from repro.store.runstore import DEFAULT_STORE_ROOT

__all__ = ["DEFAULT_STORE_ROOT", "save_markdown"]
