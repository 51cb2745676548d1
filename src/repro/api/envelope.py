"""The one schema-versioned response envelope of the public surface.

Every JSON document the package hands to the outside world — a persisted
``manifest.json``, the job service's ``/v1/jobs/{id}/result`` payload, the
CLI's ``--json`` output — used to invent its own top-level dict shape.  This
module defines the single shared shape instead::

    {
        "schema_version": 3,
        "kind": "run_result",          # what the payload is
        "repro_version": "1.0.0",      # which build produced it
        "data": { ... }                # the kind-specific payload
    }

Version history (one migration path for every reader):

* 1, 2 — the pre-envelope era: ``RunResult`` manifests were written *flat*,
  with the payload fields at the top level next to their ``schema_version``
  (which doubled as the spec-layout version).  :func:`unwrap` still reads
  them, reporting ``kind="run_result"``.
* 3 — the envelope above.  The payload of a ``run_result`` is unchanged —
  exactly :meth:`RunResult.manifest` — it merely moved under ``"data"``.

Error responses are deliberately *not* wrapped: they use the taxonomy's
``{"error": {"code", "message", "detail"}}`` shape (:mod:`repro.errors`) so
clients can classify a response by its single top-level key.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro._version import __version__
from repro.api.spec import SUPPORTED_SCHEMA_VERSIONS
from repro.errors import SpecError

#: Version of the envelope layout written by this build.
ENVELOPE_VERSION = 3

#: Envelope (and legacy flat-manifest) versions this build can read.
SUPPORTED_ENVELOPE_VERSIONS = (1, 2, 3)

#: Payload kinds this build writes.  Readers must ignore unknown kinds'
#: payloads rather than fail, so the tuple can grow without a version bump.
ENVELOPE_KINDS = (
    "run_result",
    "export",
    "table",
    "spec",
    "job",
    "job_list",
    "stats",
    "health",
    "serve",
    "chaos",
    "lint",
)


def wrap(kind: str, data: Mapping[str, Any] | list | None) -> dict[str, Any]:
    """Wrap a payload in the versioned response envelope."""
    if kind not in ENVELOPE_KINDS:
        raise SpecError(
            f"envelope.kind: unknown kind {kind!r} (known kinds: {list(ENVELOPE_KINDS)})"
        )
    return {
        "schema_version": ENVELOPE_VERSION,
        "kind": kind,
        "repro_version": __version__,
        "data": data,
    }


def is_envelope(document: Any) -> bool:
    """Whether a parsed JSON document is a version-3 envelope."""
    return (
        isinstance(document, Mapping)
        and "kind" in document
        and "data" in document
        and "schema_version" in document
    )


def unwrap(
    document: Any,
    *,
    expected_kind: str | None = None,
    path: str = "document",
) -> dict[str, Any]:
    """Return the payload of an envelope (or of a legacy flat manifest).

    Parameters
    ----------
    document:
        A parsed JSON document: a version-3 envelope, or a version-1/2 flat
        ``RunResult`` manifest (recognised by its ``spec_hash`` field), which
        reads as ``kind="run_result"`` with the whole document as payload.
    expected_kind:
        When given, a mismatching kind raises :class:`SpecError` instead of
        returning a payload the caller cannot interpret.
    path:
        Name used in error messages (e.g. the file being read).
    """
    if not isinstance(document, Mapping):
        raise SpecError(
            f"{path}: expected a JSON object, got {type(document).__name__}"
        )
    if is_envelope(document):
        supported = SUPPORTED_ENVELOPE_VERSIONS
        kind = document["kind"]
        data = document["data"]
    elif "spec_hash" in document:
        # Flat run-result manifest (envelope versions 1 and 2, and the CLI's
        # ``--json PATH`` file): its schema_version is the spec-layout one.
        supported = SUPPORTED_SCHEMA_VERSIONS
        kind = "run_result"
        data = document
    else:
        raise SpecError(
            f"{path}: not a response envelope (missing 'kind'/'data') and not "
            "a legacy flat run manifest (missing 'spec_hash')"
        )
    version = document.get("schema_version")
    if version not in supported:
        raise SpecError(
            f"{path}.schema_version: unsupported version {version!r} "
            f"(this build reads versions {list(supported)})"
        )
    if not isinstance(data, (Mapping, list, type(None))):
        raise SpecError(f"{path}.data: expected an object, got {data!r}")
    if expected_kind is not None and kind != expected_kind:
        raise SpecError(
            f"{path}.kind: expected {expected_kind!r}, got {kind!r}"
        )
    return dict(data) if isinstance(data, Mapping) else data


__all__ = [
    "ENVELOPE_VERSION",
    "SUPPORTED_ENVELOPE_VERSIONS",
    "ENVELOPE_KINDS",
    "wrap",
    "unwrap",
    "is_envelope",
]
