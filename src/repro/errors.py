"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised intentionally by this package derive from
:class:`ReproError`, so callers can catch framework errors without
accidentally swallowing programming errors (``TypeError`` etc.).
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro framework."""


class ConfigurationError(ReproError):
    """A model or simulation was configured with invalid parameters."""


class ProfileError(ReproError):
    """A workload profile is malformed (negative counts, bad fractions)."""


class MappingError(ReproError):
    """A kernel could not be mapped onto a platform (unsupported op class,
    insufficient resources, or no mapping entry)."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class SearchError(ReproError):
    """Design-space exploration failed (empty space, exhausted budget
    without a feasible point, or inconsistent constraints)."""


class PlanningError(ReproError):
    """A motion planner failed in a way that is not a normal "no path
    found" outcome (e.g. start state in collision)."""


class BenchmarkError(ReproError):
    """The benchmark suite was asked to run an unknown or misconfigured
    workload."""


class TelemetryError(ReproError):
    """A telemetry primitive was misused (bad quantile, duplicate metric
    registered under a different type, malformed trace)."""


class EngineError(ReproError):
    """The evaluation engine was misused (unfingerprintable candidate,
    unpicklable objective for a parallel run, bad engine option)."""


class BatchFallback(EngineError):
    """Raised by a batch-capable objective's ``evaluate_batch`` to
    decline a batch it cannot vectorize; the
    :class:`~repro.engine.evaluator.Evaluator` catches it and reprices
    the batch through the scalar path (counted in the
    ``engine.batch_fallbacks`` telemetry)."""


class ServeError(ReproError):
    """The evaluation daemon or its client was misused (malformed wire
    message, unknown operation, response/request mismatch) or the
    transport failed mid-exchange."""


class SpecError(ReproError):
    """A declarative spec is malformed (unknown kind or key, wrong type,
    unresolvable ``ref``, unsupported ``spec_version``).  The message
    always carries a dotted path to the offending field, e.g.
    ``$.suite.targets[2].cores: expected an integer, got str``."""
