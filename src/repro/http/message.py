"""HTTP/1.1 request and response messages with exact wire accounting.

Every traffic number this library reports is derived from
:meth:`HttpRequest.wire_size` / :meth:`HttpResponse.wire_size`, which
count the serialized bytes of the start line, header block, blank line,
and body — exactly what a packet capture of the HTTP payload would show.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple, Union

from repro.errors import MessageError
from repro.http.body import Body, make_body
from repro.http.headers import Headers
from repro.http.status import StatusCode, reason_phrase

_BodyLike = Union[Body, bytes, str, int, None]


def _coerce_headers(headers: Union[Headers, Iterable[Tuple[str, str]], None]) -> Headers:
    if headers is None:
        return Headers()
    if isinstance(headers, Headers):
        return headers
    return Headers(headers)


class HttpRequest:
    """An HTTP/1.1 request.

    ``target`` is the request-target as it appears on the request line
    (path plus optional query string).  The ``Host`` header is kept in
    ``headers`` like any other field.
    """

    __slots__ = ("method", "target", "version", "headers", "body")

    def __init__(
        self,
        method: str = "GET",
        target: str = "/",
        headers: Union[Headers, Iterable[Tuple[str, str]], None] = None,
        body: _BodyLike = None,
        version: str = "HTTP/1.1",
    ) -> None:
        if not method or any(c.isspace() for c in method):
            raise MessageError(f"invalid method {method!r}")
        if not target or any(c in " \r\n" for c in target):
            raise MessageError(f"invalid request target {target!r}")
        self.method = method
        self.target = target
        self.version = version
        self.headers = _coerce_headers(headers)
        self.body = make_body(body)

    # -- convenience accessors ------------------------------------------------

    @property
    def host(self) -> Optional[str]:
        """Value of the ``Host`` header, if present."""
        return self.headers.get("Host")

    @property
    def path(self) -> str:
        """Request target with any query string removed."""
        return self.target.split("?", 1)[0]

    @property
    def query(self) -> str:
        """Query string (without the ``?``), or ``""``."""
        parts = self.target.split("?", 1)
        return parts[1] if len(parts) == 2 else ""

    @property
    def range_header(self) -> Optional[str]:
        """Raw value of the ``Range`` header, if present."""
        return self.headers.get("Range")

    # -- wire form --------------------------------------------------------------

    def request_line(self) -> str:
        return f"{self.method} {self.target} {self.version}"

    def request_line_size(self) -> int:
        """Bytes of the request line including its CRLF."""
        return len(self.request_line()) + 2

    def header_block_size(self) -> int:
        """Bytes from the first byte of the request line through the blank
        line that ends the header block."""
        return self.request_line_size() + self.headers.wire_size() + 2

    def wire_size(self) -> int:
        """Exact serialized size of the whole request in bytes."""
        return self.header_block_size() + len(self.body)

    def serialize(self) -> bytes:
        return (
            self.request_line().encode("latin-1")
            + b"\r\n"
            + self.headers.serialize()
            + b"\r\n"
            + self.body.materialize()
        )

    def copy(self) -> "HttpRequest":
        """Deep-enough copy: headers are copied, the (immutable) body is shared."""
        return HttpRequest(
            method=self.method,
            target=self.target,
            headers=self.headers.copy(),
            body=self.body,
            version=self.version,
        )

    def __repr__(self) -> str:
        return f"HttpRequest({self.method} {self.target}, {len(self.headers)} headers)"


class HttpResponse:
    """An HTTP/1.1 response."""

    __slots__ = ("status", "reason", "headers", "body", "version")

    def __init__(
        self,
        status: int,
        headers: Union[Headers, Iterable[Tuple[str, str]], None] = None,
        body: _BodyLike = None,
        reason: Optional[str] = None,
        version: str = "HTTP/1.1",
    ) -> None:
        status = int(status)
        if not 100 <= status <= 599:
            raise MessageError(f"invalid status code {status}")
        self.status = status
        self.reason = reason if reason is not None else reason_phrase(status)
        self.version = version
        self.headers = _coerce_headers(headers)
        self.body = make_body(body)

    # -- convenience accessors ------------------------------------------------

    @property
    def is_success(self) -> bool:
        return 200 <= self.status < 300

    @property
    def is_partial(self) -> bool:
        return self.status == StatusCode.PARTIAL_CONTENT

    @property
    def content_type(self) -> Optional[str]:
        return self.headers.get("Content-Type")

    def declared_content_length(self) -> Optional[int]:
        from repro.http.wire import body_length

        return body_length(self.headers, "response")

    # -- wire form --------------------------------------------------------------

    def status_line(self) -> str:
        return f"{self.version} {self.status} {self.reason}"

    def status_line_size(self) -> int:
        return len(self.status_line()) + 2

    def header_block_size(self) -> int:
        return self.status_line_size() + self.headers.wire_size() + 2

    def wire_size(self) -> int:
        """Exact serialized size of the whole response in bytes."""
        return self.header_block_size() + len(self.body)

    def serialize(self) -> bytes:
        return (
            self.status_line().encode("latin-1")
            + b"\r\n"
            + self.headers.serialize()
            + b"\r\n"
            + self.body.materialize()
        )

    def copy(self) -> "HttpResponse":
        return HttpResponse(
            status=self.status,
            headers=self.headers.copy(),
            body=self.body,
            reason=self.reason,
            version=self.version,
        )

    def __repr__(self) -> str:
        return (
            f"HttpResponse({self.status} {self.reason}, "
            f"{len(self.headers)} headers, {len(self.body)} body bytes)"
        )
