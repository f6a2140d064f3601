"""Exception types shared across the package, and the physical-memory guard
that raises one of them before a large allocation."""

import os


class SphereGraphError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(SphereGraphError, ValueError):
    """An argument violates a documented precondition."""


class SingularWeightError(SphereGraphError):
    """Edge weighting hit a singularity (coincident vertices under 1/d weights)."""


class NumericalFailureError(SphereGraphError, RuntimeError):
    """An iterative or recursive computation failed to produce a usable result."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class IllPosedAnalysisError(NumericalFailureError):
    """Harmonic analysis is ill posed (rank-deficient basis matrix)."""

    def __init__(self, message, condition_estimate=None):
        super().__init__(message, {"condition_estimate": condition_estimate})
        self.condition_estimate = condition_estimate


class UndefinedNormalizationError(SphereGraphError):
    """Equivariance error is undefined because the normalizing term vanishes."""


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_memory(need: int, what: str) -> None:
    """InvalidArgumentError, naming `what` and the estimate, when `need` bytes
    exceed this machine's physical memory."""
    memory = _physical_memory_bytes()
    if need > memory:
        raise InvalidArgumentError(
            f"{what} needs about {need / 2**30:.1f} GiB, more than this machine's "
            f"{memory / 2**30:.1f} GiB")
