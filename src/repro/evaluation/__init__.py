"""Experiment harness reproducing the paper's evaluation (§4, §5, appendix).

* :mod:`repro.evaluation.config` — experiment configurations (system, node
  count, parallelism axes, reduction axes, NCCL algorithm, payload), including
  the named configurations behind each paper table.
* :mod:`repro.evaluation.scenarios` — scenario grids and named presets
  (``smoke``, ``paper-table2``, ``gcp-scaleout``, ``payload-ladder``,
  ``appendix``) that expand topology × shape × workload × payload ×
  algorithm axes into :class:`~repro.query.PlanQuery` streams.
* :mod:`repro.evaluation.runner` — routes every scenario's query through a
  :class:`~repro.query.Planner` (``P2`` or a caching ``PlanningService``),
  regains per-matrix program results, measures them on the testbed and
  streams resumable JSONL checkpoints.
* :mod:`repro.evaluation.accuracy` — top-k predictor accuracy (Table 5).
* :mod:`repro.evaluation.tables` — row generators for Tables 3, 4, 5 and the
  appendix sweep.
* :mod:`repro.evaluation.figures` — the per-program series of Figure 11.
* :mod:`repro.evaluation.workloads` — end-to-end training-step models
  (ResNet-50 data parallelism, Megatron-style sharding) used by the examples
  and the §1 "15% faster ResNet-50" experiment.
* :mod:`repro.evaluation.report` — plain-text rendering.

The package re-exports nothing: import from its submodules, so that reading
one configuration does not load the runner, :mod:`repro.runtime` and numpy.
"""
