"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can install a single ``except`` clause around synthesis or simulation
pipelines.  The subclasses mirror the major subsystems: hierarchy/placement,
collective semantics, the reduction DSL, synthesis, topology modelling, cost
modelling and the runtime executor.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class HierarchyError(ReproError):
    """Raised for malformed system hierarchies or parallelism axes."""


class PlacementError(HierarchyError):
    """Raised when a parallelism matrix or placement request is infeasible."""


class SemanticsError(ReproError):
    """Raised when a collective's Hoare-triple precondition is violated."""


class InvalidCollectiveError(SemanticsError):
    """Raised when a collective step is semantically invalid for the given states."""


class DSLError(ReproError):
    """Raised for malformed reduction instructions or programs."""


class SynthesisError(ReproError):
    """Raised when synthesis cannot proceed (bad goal, bad hierarchy, ...)."""


class LoweringError(SynthesisError):
    """Raised when a synthesized program cannot be lowered to physical devices."""


class TopologyError(ReproError):
    """Raised for inconsistent hardware topology specifications."""


class CostModelError(ReproError):
    """Raised when the cost model is asked to price an unsupported operation."""


class RuntimeExecutionError(ReproError):
    """Raised when the in-memory runtime fails to execute a lowered program."""


class VerificationError(RuntimeExecutionError):
    """Raised when executing a program produces numerically wrong reductions."""


class EvaluationError(ReproError):
    """Raised by the experiment harness for malformed experiment configs."""


class QueryError(EvaluationError):
    """Raised for malformed planning queries (:class:`repro.query.PlanQuery`)."""


class SearchError(ReproError):
    """Raised by the streaming/sharded search for un-shardable source
    configurations or worker-process failures (:mod:`repro.search`)."""


class ServiceError(ReproError):
    """Raised by the planning service for malformed requests or cache state."""


class ServeError(ServiceError):
    """Raised by the daemon wire protocol for malformed or refused messages."""
