"""Adaptive hyper-parameter search (ASHA / successive halving).

The search layer sits on top of the experiment engine and the
content-addressed run store: :func:`~repro.search.asha.run_search` launches a
scenario cohort at low fidelity (few communication rounds), keeps the top
``1/eta`` fraction at each rung, and promotes the survivors — resuming each
promoted trial from its stored checkpoint instead of replaying it.  See
``docs/search.md`` for semantics and a resume walkthrough, and
:func:`repro.api.search` for the public entry point.
"""

from __future__ import annotations

from repro.search.asha import PROMOTION_METRICS, SearchResult, run_search

__all__ = [
    "PROMOTION_METRICS",
    "SearchResult",
    "run_search",
]
