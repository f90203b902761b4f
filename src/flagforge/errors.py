"""Exception types shared across the package."""

from __future__ import annotations


class FlagforgeError(Exception):
    """Base class for every error raised by this package."""


class TopologyError(FlagforgeError):
    """Topology document is syntactically or semantically invalid."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        super().__init__(message)

    def __str__(self) -> str:
        msg = super().__str__()
        if self.line is not None:
            loc = f"line {self.line}"
            if self.column is not None:
                loc += f", column {self.column}"
            return f"{loc}: {msg}"
        return msg


class RegistryError(FlagforgeError):
    """Invalid operation against the service registry."""


class UnknownReplicaError(RegistryError):
    pass


class DuplicateReplicaError(RegistryError):
    pass


class EndpointInUseError(RegistryError):
    pass


class SupervisorError(FlagforgeError):
    """Replica lifecycle operation failed."""


class SpawnError(SupervisorError):
    pass


class PortExhaustedError(SupervisorError):
    pass


class NoHealthyReplicasError(FlagforgeError):
    """Selection failed because the service has no healthy replicas."""


class IngressError(FlagforgeError):
    pass


class PipelineError(FlagforgeError):
    pass


class ManifestError(PipelineError):
    pass


class VersionConflictError(PipelineError):
    """A version label already exists in the store with different content."""
