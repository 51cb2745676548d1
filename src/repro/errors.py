"""Unified exception taxonomy of the whole package.

Every error the package raises on purpose derives from :class:`ReproError`,
so callers embedding the reproduction — scripts, the CLI, the job service —
can catch one base class instead of a grab bag of ``ValueError`` subtypes.
Each class carries a stable machine-readable ``code`` and the HTTP status
the service (:mod:`repro.service`) maps it to, and :meth:`ReproError.envelope`
renders the one structured error shape used everywhere::

    {"error": {"code": "invalid_spec", "message": "...", "detail": {...}}}

Historical import paths keep working: ``repro.utils.validation`` re-exports
:class:`ValidationError` and ``repro.api.spec`` re-exports :class:`SpecError`
(both are deprecated aliases of the classes defined here).  The taxonomy
stays a subclass of :class:`ValueError` where it always was one, so existing
``except ValueError`` call sites see no behaviour change.
"""

from __future__ import annotations

from typing import Any, Mapping


class ReproError(Exception):
    """Base class of every intentional error raised by this package.

    Attributes
    ----------
    code:
        Stable machine-readable identifier of the error class (snake_case).
    http_status:
        The HTTP status :mod:`repro.service` responds with when this error
        reaches a request handler.
    detail:
        Optional JSON-compatible payload with structured context (e.g. the
        offending field, the conflicting job id).
    """

    code: str = "internal_error"
    http_status: int = 500

    def __init__(self, message: str = "", *, detail: Any = None) -> None:
        super().__init__(message)
        self.detail = detail

    @property
    def message(self) -> str:
        return str(self)

    def envelope(self) -> dict[str, Any]:
        """The structured error envelope of this exception."""
        return {
            "error": {
                "code": self.code,
                "message": self.message,
                "detail": self.detail,
            }
        }


class ValidationError(ReproError, ValueError):
    """Raised when a user-supplied parameter is outside its valid domain."""

    code = "validation_error"
    http_status = 400


class SpecError(ValidationError):
    """A malformed spec document; the message names the offending field."""

    code = "invalid_spec"
    http_status = 400


class BackendError(ValidationError):
    """An unknown solver backend, or no usable fallback for one."""

    code = "backend_unavailable"
    http_status = 400


class CorruptArtifactError(ReproError):
    """A persisted artifact (bundle, record, checkpoint) failed verification.

    Raised when a checksum embedded by the serialization layer does not match
    the bytes read back — a torn write, bit rot, or a partially synced file
    surfacing after a crash.  The self-healing layers catch this, quarantine
    the artifact and rebuild; it reaches callers only when nothing can.
    """

    code = "corrupt_artifact"
    http_status = 500


class JobError(ReproError):
    """Base class of job-service errors (queueing, state, execution)."""

    code = "job_error"
    http_status = 500


class JobNotFoundError(JobError):
    """The requested job id does not exist in the job store."""

    code = "job_not_found"
    http_status = 404


class JobStateError(JobError):
    """The job exists but its state does not allow the requested action."""

    code = "job_state"
    http_status = 409


class SpecConflictError(JobError):
    """Two different spec documents collided on one canonical spec hash."""

    code = "spec_conflict"
    http_status = 409


class JobQueueFullError(JobError):
    """The service's bounded job queue is at capacity; retry later."""

    code = "queue_full"
    http_status = 429


class JobTimeoutError(JobError):
    """A job exceeded its per-job wall-clock timeout and was aborted."""

    code = "job_timeout"
    http_status = 504


class JobCancelledError(JobError):
    """A job was cancelled before (or while) it ran."""

    code = "job_cancelled"
    http_status = 409


class WorkerStalledError(JobError):
    """A worker stopped heartbeating mid-job and was reaped by the watchdog.

    The job is re-queued while its retry budget lasts; this error records the
    terminal failure once the budget is exhausted.
    """

    code = "worker_stalled"
    http_status = 504


class CircuitOpenError(JobError):
    """Repeated permanent failures of one spec tripped its circuit breaker.

    Submissions of the failing spec hash fail fast (HTTP 503) until the
    breaker's cooldown elapses; ``detail["retry_after"]`` carries the
    remaining cooldown in seconds.
    """

    code = "circuit_open"
    http_status = 503


#: Every taxonomy class keyed by its stable ``code`` — the reverse mapping
#: the service client uses to re-raise a typed exception from a wire envelope.
ERROR_CLASSES_BY_CODE: dict[str, type[ReproError]] = {
    cls.code: cls
    for cls in (
        ReproError,
        ValidationError,
        SpecError,
        BackendError,
        CorruptArtifactError,
        JobError,
        JobNotFoundError,
        JobStateError,
        SpecConflictError,
        JobQueueFullError,
        JobTimeoutError,
        JobCancelledError,
        WorkerStalledError,
        CircuitOpenError,
    )
}


def error_envelope(exc: BaseException) -> dict[str, Any]:
    """The structured error envelope of any exception.

    :class:`ReproError` instances render their own code/status; anything else
    degrades to the opaque ``internal_error`` (its type name is preserved in
    the detail so operators can grep server logs for it).
    """
    if isinstance(exc, ReproError):
        return exc.envelope()
    return {
        "error": {
            "code": ReproError.code,
            "message": str(exc) or type(exc).__name__,
            "detail": {"exception_type": type(exc).__name__},
        }
    }


def http_status_for(exc: BaseException) -> int:
    """The HTTP status code the service maps an exception to."""
    if isinstance(exc, ReproError):
        return exc.http_status
    return ReproError.http_status


def error_from_envelope(document: Mapping[str, Any]) -> ReproError:
    """Reconstruct a typed :class:`ReproError` from a wire error envelope.

    Unknown codes (a newer server talking to an older client) degrade to the
    :class:`ReproError` base with the original code preserved in the detail.
    """
    entry = document.get("error") if isinstance(document, Mapping) else None
    if not isinstance(entry, Mapping):
        return ReproError(f"malformed error envelope: {document!r}")
    code = entry.get("code", ReproError.code)
    message = entry.get("message", "")
    detail = entry.get("detail")
    cls = ERROR_CLASSES_BY_CODE.get(code)
    if cls is None:
        error = ReproError(message, detail={"code": code, "detail": detail})
        return error
    return cls(message, detail=detail)


__all__ = [
    "ReproError",
    "ValidationError",
    "SpecError",
    "BackendError",
    "CorruptArtifactError",
    "JobError",
    "JobNotFoundError",
    "JobStateError",
    "SpecConflictError",
    "JobQueueFullError",
    "JobTimeoutError",
    "JobCancelledError",
    "WorkerStalledError",
    "CircuitOpenError",
    "ERROR_CLASSES_BY_CODE",
    "error_envelope",
    "error_from_envelope",
    "http_status_for",
]
