"""The experiment service: serve runs over HTTP with a job queue and dedup.

``repro serve`` turns the one-shot CLI into a long-running daemon: the
content-addressed :class:`~repro.store.runstore.RunStore` is the system of
record, a :class:`~repro.serve.jobs.JobQueue` admits submissions with
read-through and single-flight dedup, a :class:`~repro.serve.workers.WorkerPool`
drains it through one shared (lock-counted) engine, and a stdlib HTTP server
speaks the JSON protocol of :mod:`repro.serve.protocol`.

Layout: ``protocol`` (wire contract), ``jobs`` (queue + lifecycle),
``workers`` (thread/process execution), ``server`` (HTTP daemon),
``client`` (thin stdlib client the CLI's ``--server`` flag uses).
See ``docs/serve.md``.
"""
