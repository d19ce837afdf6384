"""Exception types, warnings, and validation reporting shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


class RoleflowError(Exception):
    """Base class for every error raised by this package."""


class UnboundVariable(RoleflowError):
    """An expression referenced a name absent from its binding."""


class TypeMismatch(RoleflowError):
    """A value or expression did not fit the color set demanded by its context."""


class UnknownTransition(RoleflowError):
    pass


class NotEnabled(RoleflowError):
    """A firing was requested with a binding the marking cannot support."""


class ProcedureFailure(RoleflowError):
    """A procedure body faulted during evaluation; the model escaped validation."""


class InvalidModel(RoleflowError):
    """An operation was applied to a net or model that does not satisfy its invariants."""


class ColorClash(InvalidModel):
    """A net would hold two different colors under one name."""

    def __init__(self, name: str, net_id: str):
        super().__init__(f"net {net_id} has two colors named '{name}'")
        self.name = name


class IncoherentOrganization(RoleflowError):
    """The organization cannot be split into per-agent tasks."""

    def __init__(self, message: str, report: "ValidationReport | None" = None):
        super().__init__(message)
        self.report = report


class PartialAssignment(RoleflowError):
    """A role assignment does not cover every declared role."""


class InconsistentChannels(RoleflowError):
    """Agent tasks and channels disagree; the model cannot be recombined into one net."""


class CoherenceError(RoleflowError):
    """An adaptation request was rejected; the model is left untouched."""

    def __init__(self, message: str, report: "ValidationReport | None" = None):
        super().__init__(message)
        self.report = report
        self.partial_trace = None


class ImpactMismatch(RoleflowError):
    """An agent classified as plan-preserving failed to restore its marking."""


class ContextCorrupt(RoleflowError):
    """A saved execution context could not be decoded."""


class ModelSyntaxError(RoleflowError):
    def __init__(self, line: int, col: int, expected: str):
        super().__init__(f"{line}:{col}: expected {expected}")
        self.line = line
        self.col = col
        self.expected = expected


class ResolutionError(RoleflowError):
    """A parsed document referenced an identifier that was never declared."""

    def __init__(self, name: str, line: int = 0, col: int = 0):
        where = f" ({line}:{col})" if line else ""
        super().__init__(f"unknown identifier '{name}'{where}")
        self.name = name


class UnknownOp(RoleflowError):
    """An adaptation block used an operation keyword outside the supported set."""


class FormatError(RoleflowError):
    """A persisted artifact (marking, context) is malformed."""


class VersionMismatch(FormatError):
    """A persisted artifact carries an unsupported format version."""


class IncompatiblePlace(RoleflowError):
    """A saved marking names a place the target net lacks or colors differently."""

    def __init__(self, place_id: str):
        super().__init__(f"place '{place_id}' missing or re-colored in target net")
        self.place_id = place_id


class SaturationWarning(RuntimeWarning):
    """Integer arithmetic hit the 64-bit bound and was clamped."""


@dataclass(frozen=True)
class Violation:
    """One itemized rule violation found by a validator."""

    code: str
    subject: str
    message: str

    def render(self) -> str:
        return f"[{self.code}] {self.subject}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple[Violation, ...] = ()

    @property
    def empty(self) -> bool:
        return not self.entries

    def render(self) -> str:
        return "\n".join(v.render() for v in self.entries)

    def __add__(self, other: "ValidationReport") -> "ValidationReport":
        return ValidationReport(self.entries + other.entries)


def report_of(violations) -> ValidationReport:
    return ValidationReport(tuple(violations))
