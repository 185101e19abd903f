"""repro — a reproduction of P² (MLSys 2022).

P² synthesizes (1) parallelism placements — mappings of parallelism axes onto
a hierarchical accelerator system expressed as *parallelism matrices* — and
(2) hierarchy-aware reduction strategies — sequences of collective operations
implementing a requested reduction — and ranks them with a topology-aware
simulator.

The most convenient entry point is :class:`repro.api.P2`, which answers a
:class:`repro.query.PlanQuery` with a :class:`repro.query.PlanOutcome`:

    >>> from repro import P2, PlanQuery
    >>> from repro.topology import a100_system
    >>> system = a100_system(num_nodes=2)
    >>> query = PlanQuery((8, 4), (0,), bytes_per_device=1 << 20)
    >>> outcome = P2(system).plan(query)    # doctest: +SKIP
    >>> print(outcome.plan.best.describe())    # doctest: +SKIP

Lower-level building blocks (hierarchies, placements, synthesis, topologies)
live in the subpackages listed in the "Package map" section of ``README.md``.
"""

import logging as _logging

# Library logging etiquette: the package logs under the "repro" hierarchy and
# emits nothing unless the application configures handlers (the CLI's
# --verbose flags do; see repro.cli).
_logging.getLogger("repro").addHandler(_logging.NullHandler())

__all__ = ["__version__", "P2", "PlanQuery", "PlanOutcome", "Planner"]


def __getattr__(name: str):
    # Every export is imported lazily, so `import repro` loads none of the
    # package's layers until one of them is asked for.
    if name == "__version__":
        from repro._version import __version__

        return __version__
    if name == "P2":
        from repro.api import P2

        return P2
    if name in ("PlanQuery", "PlanOutcome", "Planner"):
        import repro.query

        return getattr(repro.query, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
