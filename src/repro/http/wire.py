"""Message framing: the one reader of HTTP/1.1 heads and body lengths.

:func:`parse_head` is the only head reader and :func:`body_length` the
only reader of ``Content-Length`` / ``Transfer-Encoding`` (RFC 9112
§6.3), for ``repro serve`` and for the ``serialize()`` inverses below
alike, so no two readers here can disagree about where a message ends.
Any ``Transfer-Encoding`` is refused (chunked bodies are neither emitted
nor decoded); every ``Content-Length`` value must be 1-18 ASCII digits,
all equal.  A request without one has no body, a response without one
is close-delimited, and bytes past a framed body are an error.
"""

from __future__ import annotations

import re
from typing import Optional, Tuple

from repro.errors import HeaderError, MessageError
from repro.http.headers import Headers
from repro.http.message import HttpRequest, HttpResponse

#: The blank line that ends a message head.
HEADER_END = b"\r\n\r\n"

_LENGTH = re.compile(r"[0-9]{1,18}")
_STATUS = re.compile(r"[0-9]{3}")


def parse_head(head: bytes, kind: str) -> Tuple[str, Headers]:
    """A message head (without its blank line) as (start line, headers)."""
    start_line, _, header_blob = head.partition(b"\r\n")
    try:
        return start_line.decode("latin-1"), Headers.parse(header_blob)
    except HeaderError as exc:
        raise MessageError(f"malformed {kind} head: {exc}") from exc


def decimal_value(text: str) -> Optional[int]:
    """``text`` as an integer when it is 1-18 ASCII digits, else None.

    The digit rule for numeric header values: bare ``int()`` also takes
    signs, underscores, non-ASCII digits and surrounding whitespace.
    """
    return int(text) if _LENGTH.fullmatch(text) else None


def body_length(headers: Headers, kind: str) -> Optional[int]:
    """The body length ``headers`` declare, or None without ``Content-Length``."""
    if "Transfer-Encoding" in headers:
        raise MessageError(f"{kind} Transfer-Encoding is not supported")
    lengths = set()
    for field in headers.get_all("Content-Length"):
        for item in field.split(","):
            value = item.strip(" \t")
            length = decimal_value(value)
            if length is None:
                raise MessageError(
                    f"{kind} Content-Length {value[:24]!r} is not 1-18 ASCII digits"
                )
            lengths.add(length)
    if len(lengths) > 1:
        raise MessageError(
            f"{kind} has conflicting Content-Length values {sorted(lengths)}"
        )
    return lengths.pop() if lengths else None


def _framed(rest: bytes, length: int, kind: str) -> bytes:
    if len(rest) < length:
        raise MessageError(
            f"{kind} declares Content-Length {length} but only "
            f"{len(rest)} body bytes are present"
        )
    if len(rest) > length:
        raise MessageError(
            f"{len(rest) - length} bytes follow the {length}-byte {kind} body"
        )
    return rest


def build_request(
    start_line: str, headers: Headers, rest: bytes, length: int
) -> HttpRequest:
    """The request a parsed head and its ``length``-byte body ``rest`` make."""
    parts = start_line.split(" ")
    if len(parts) != 3:
        raise MessageError(f"malformed request line {start_line!r}")
    method, target, version = parts
    if not version.startswith("HTTP/"):
        raise MessageError(f"malformed HTTP version {version!r}")
    body = _framed(rest, length, "request")
    return HttpRequest(method, target, headers=headers, body=body, version=version)


def _split(blob: bytes, kind: str) -> Tuple[str, Headers, bytes]:
    head, separator, rest = blob.partition(HEADER_END)
    if not separator:
        raise MessageError(f"serialized {kind} has no header terminator")
    return (*parse_head(head, kind), rest)


def parse_request(blob: bytes) -> HttpRequest:
    """Parse a serialized HTTP/1.1 request (inverse of
    :meth:`HttpRequest.serialize`)."""
    start_line, headers, rest = _split(blob, "request")
    length = body_length(headers, "request") or 0
    return build_request(start_line, headers, rest, length)


def parse_response(blob: bytes) -> HttpResponse:
    """Parse a serialized HTTP/1.1 response (inverse of
    :meth:`HttpResponse.serialize`)."""
    start_line, headers, rest = _split(blob, "response")
    length = body_length(headers, "response")
    body = rest if length is None else _framed(rest, length, "response")
    parts = start_line.split(" ", 2)
    if len(parts) < 2:
        raise MessageError(f"malformed status line {start_line!r}")
    version = parts[0]
    if not version.startswith("HTTP/"):
        raise MessageError(f"malformed HTTP version {version!r}")
    if _STATUS.fullmatch(parts[1]) is None:
        raise MessageError(f"malformed status code {parts[1]!r}")
    reason = parts[2] if len(parts) == 3 else ""
    return HttpResponse(
        int(parts[1]), headers=headers, body=body, reason=reason, version=version
    )
