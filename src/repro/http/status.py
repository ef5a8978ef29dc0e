"""HTTP status codes and reason phrases used by the simulator."""

from __future__ import annotations

from enum import IntEnum


class StatusCode(IntEnum):
    """The subset of HTTP status codes the RangeAmp pipeline produces."""

    OK = 200
    PARTIAL_CONTENT = 206
    BAD_REQUEST = 400
    FORBIDDEN = 403
    NOT_FOUND = 404
    METHOD_NOT_ALLOWED = 405
    REQUEST_TIMEOUT = 408
    PAYLOAD_TOO_LARGE = 413
    TOO_MANY_REQUESTS = 429
    REQUEST_HEADER_FIELDS_TOO_LARGE = 431
    RANGE_NOT_SATISFIABLE = 416
    INTERNAL_SERVER_ERROR = 500
    BAD_GATEWAY = 502
    SERVICE_UNAVAILABLE = 503
    GATEWAY_TIMEOUT = 504


_REASONS = {
    StatusCode.OK: "OK",
    StatusCode.PARTIAL_CONTENT: "Partial Content",
    StatusCode.BAD_REQUEST: "Bad Request",
    StatusCode.FORBIDDEN: "Forbidden",
    StatusCode.NOT_FOUND: "Not Found",
    StatusCode.METHOD_NOT_ALLOWED: "Method Not Allowed",
    StatusCode.REQUEST_TIMEOUT: "Request Timeout",
    StatusCode.PAYLOAD_TOO_LARGE: "Payload Too Large",
    StatusCode.TOO_MANY_REQUESTS: "Too Many Requests",
    StatusCode.REQUEST_HEADER_FIELDS_TOO_LARGE: "Request Header Fields Too Large",
    StatusCode.RANGE_NOT_SATISFIABLE: "Range Not Satisfiable",
    StatusCode.INTERNAL_SERVER_ERROR: "Internal Server Error",
    StatusCode.BAD_GATEWAY: "Bad Gateway",
    StatusCode.SERVICE_UNAVAILABLE: "Service Unavailable",
    StatusCode.GATEWAY_TIMEOUT: "Gateway Timeout",
}


def reason_phrase(code: int) -> str:
    """Return the canonical reason phrase for ``code``.

    Unknown codes get the generic phrase ``"Unknown"`` rather than an
    error: reason phrases are advisory on the wire.
    """
    try:
        return _REASONS[StatusCode(code)]
    except ValueError:
        return "Unknown"
