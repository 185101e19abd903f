"""Reference implementations the tests check the package against.

Nothing under ``src/`` imports these: each is a slower or more literal
restatement of something the package does another way, kept so a test can
assert the two agree.

* :mod:`oracles.schedules` — ring/tree chunk schedules and a
  transfer-by-transfer executor (the "inside" of an NCCL collective).
* :mod:`oracles.simulator` — the per-group reference simulator that profile
  pricing must match bit for bit.
* :mod:`oracles.pipeline` — the eager synthesize-then-price pipeline that
  came before the lazy search driver.
* :mod:`oracles.xla` — the parser that inverts ``repro.compile.xla``'s
  emission, for round-trip tests.
* :mod:`oracles.state` — dense-matrix constructors, views, set algebra
  and predicates over :class:`~repro.semantics.state.DeviceState`.
* :mod:`oracles.lowering` — lowered programs copied onto new steps and
  run step by step, without the package's shared sweep.
* :mod:`oracles.placement` — digit grids encoded back into device ids,
  the inverse of the placement's decoding.
"""
