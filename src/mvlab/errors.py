"""Exception types shared across the package, and the one rule for echoing a value in a message."""


def _shown(value) -> str:
    """repr(value) for an error line, cut to 200 characters plus '...': the line stays short."""
    text = repr(value)
    return text if len(text) <= 200 else text[:200] + "..."


class MvLabError(Exception):
    """Base class for all mvlab errors."""


class DomainError(MvLabError):
    """An argument lies outside the operation's documented domain."""


class GuardError(MvLabError):
    """A numerical guard tripped; the computation was refused, not attempted."""


class ResolutionError(GuardError):
    """The grid is too coarse to resolve the requested feature."""


class CommensurabilityError(GuardError):
    """The wave number does not fit a whole number of periods in the box."""


class StabilityError(GuardError):
    """The time step violates the integrator's stability guard."""


class CapacityError(GuardError):
    """The request exceeds a hard enumeration cap."""


class ProtocolError(MvLabError):
    """Measurement protocol misuse, e.g. re-measuring an already-set pointer."""
