"""Exception types shared across the toolkit."""


class TsnCalcError(Exception):
    """Base class for all toolkit errors."""


class InstabilityError(TsnCalcError):
    """Long-term arrival rate reaches or exceeds the available service rate."""


class StarvationError(TsnCalcError):
    """A queue has no service left after higher-priority and gate interference."""


class ConfigurationError(TsnCalcError):
    """Shaper configuration is inconsistent (e.g. over-reserved CBS idle slopes)."""


class DependencyError(TsnCalcError):
    """An upstream per-queue bound is required but has not been computed."""


class CycleError(TsnCalcError):
    """The queue dependency graph contains a cycle."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("cyclic queue dependencies: " + " -> ".join(str(q) for q in self.cycle))


class FixedPointError(TsnCalcError):
    """Fixed-point iteration over a cyclic network did not converge."""


class InfeasibleScheduleError(TsnCalcError):
    """Time-triggered offsets violate precedence or cannot be placed."""


class GenerationError(TsnCalcError):
    """Random test-case generation could not satisfy its constraints."""


class ParseError(TsnCalcError):
    """A network description file could not be parsed."""
