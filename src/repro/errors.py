"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class.  Sub-hierarchies mirror the
subsystems: HTTP parsing/serialization, the network simulator, the origin
server, and the CDN simulator.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class UsageError(ReproError):
    """The tool was invoked incorrectly (bad flag combination, missing or
    malformed input file).

    CLI commands map this to exit code 2, distinguishing "you called me
    wrong" from "I ran and found problems" (exit code 1).
    """


# ---------------------------------------------------------------------------
# HTTP substrate
# ---------------------------------------------------------------------------

class HttpError(ReproError):
    """Base class for HTTP message-level errors."""


class HeaderError(HttpError):
    """Malformed header name or value (e.g. embedded CR/LF)."""


class MessageError(HttpError):
    """Structurally invalid HTTP message (bad request line, body mismatch)."""


class RangeError(HttpError):
    """Base class for Range-header problems."""


class RangeParseError(RangeError):
    """The Range header value does not match the RFC 7233 grammar."""


class RangeNotSatisfiableError(RangeError):
    """All requested byte ranges fall outside the representation.

    Maps to an HTTP 416 (Range Not Satisfiable) response.
    """

    def __init__(self, message: str, complete_length: int) -> None:
        super().__init__(message)
        #: Total length of the representation the ranges were resolved
        #: against; used to build the ``Content-Range: bytes */N`` header.
        self.complete_length = complete_length


class MultipartError(HttpError):
    """Malformed ``multipart/byteranges`` payload."""


# ---------------------------------------------------------------------------
# Network simulator
# ---------------------------------------------------------------------------

class NetworkError(ReproError):
    """Base class for simulated-network errors."""


class SimulationError(NetworkError):
    """Invalid use of the bandwidth/clock simulation (e.g. time going
    backwards, negative capacity)."""


# ---------------------------------------------------------------------------
# Origin server
# ---------------------------------------------------------------------------

class OriginError(ReproError):
    """Base class for origin-server errors."""


class ResourceNotFoundError(OriginError):
    """No resource is registered under the requested path."""

    def __init__(self, path: str) -> None:
        super().__init__(f"no resource registered at {path!r}")
        self.path = path


# ---------------------------------------------------------------------------
# CDN simulator
# ---------------------------------------------------------------------------

class CdnError(ReproError):
    """Base class for CDN-simulator errors."""


class RequestRejectedError(CdnError):
    """The CDN refused the request (e.g. header size limit exceeded).

    Carries the HTTP status code the CDN would answer with, so callers can
    turn the rejection into a proper response.
    """

    def __init__(self, message: str, status_code: int) -> None:
        super().__init__(message)
        self.status_code = status_code


class UnknownVendorError(CdnError):
    """No vendor profile is registered under the requested name."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown CDN vendor {name!r}")
        self.name = name


class ConfigurationError(CdnError):
    """Invalid vendor or deployment configuration."""
