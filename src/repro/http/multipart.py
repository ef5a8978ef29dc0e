"""``multipart/byteranges`` encoding and decoding (RFC 7233 Appendix A).

A multi-range 206 response carries one body *part* per requested range,
each introduced by a dash-boundary line and its own ``Content-Type`` /
``Content-Range`` headers.  The OBR attack's entire amplification comes
from this encoding: a server that honors ``n`` overlapping ``0-`` ranges
of a ``F``-byte resource emits roughly ``n * (F + part_overhead)`` bytes.

Wire format produced by :meth:`MultipartByteranges.to_body`::

    --BOUNDARY\r\n
    Content-Type: <type>\r\n
    Content-Range: bytes <s>-<e>/<N>\r\n
    \r\n
    <part payload>\r\n
    ...repeated per part...
    --BOUNDARY--\r\n

A payload is stored as *runs*: ``(part, count)`` pairs, one per stretch
of consecutive identical parts.  An OBR back end answering ``n``
overlapping ``0-`` ranges produces a single run of ``n``, which encodes
to one :class:`~repro.http.body.CompositeBody` part wrapped in a
:class:`~repro.http.body.RepeatedBody`.  Sizing, encoding and slicing
such a payload therefore cost O(runs), not O(parts), and a 10,000-part
response over a synthetic resource is sized exactly without ever being
materialized.  :attr:`MultipartByteranges.parts` still presents the
flat part sequence for callers that inspect individual parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import MultipartError
from repro.http.body import Body, BytesBody, CompositeBody, RepeatedBody, make_body
from repro.http.headers import Headers
from repro.http.ranges import (
    ResolvedRange,
    format_content_range,
    group_ranges,
    parse_content_range,
)

#: Boundary string used when the caller does not supply one.  Real servers
#: generate random boundaries; a fixed default keeps traffic accounting
#: deterministic (and its length is typical of Apache's).
DEFAULT_BOUNDARY = "00000000000000000001"


@dataclass(frozen=True)
class MultipartPart:
    """One part of a multipart/byteranges payload."""

    content_type: str
    content_range: ResolvedRange
    complete_length: int
    payload: Body

    def __post_init__(self) -> None:
        if len(self.payload) != self.content_range.length:
            raise MultipartError(
                f"part payload is {len(self.payload)} bytes but Content-Range "
                f"{self.content_range} declares {self.content_range.length}"
            )

    def header_blob(self) -> bytes:
        """The part's header block including the trailing blank line."""
        headers = Headers(
            [
                ("Content-Type", self.content_type),
                (
                    "Content-Range",
                    format_content_range(
                        self.content_range.start,
                        self.content_range.end,
                        self.complete_length,
                    ),
                ),
            ]
        )
        return headers.serialize() + b"\r\n"


#: A part and how many times it repeats back to back.
PartRun = Tuple[MultipartPart, int]


class MultipartByteranges:
    """A full multipart/byteranges payload, stored as runs of parts."""

    __slots__ = ("boundary", "runs")

    def __init__(self, runs: Sequence[PartRun], boundary: str = DEFAULT_BOUNDARY) -> None:
        if not boundary or len(boundary) > 70:
            raise MultipartError(f"invalid boundary {boundary!r}")
        for _, count in runs:
            if count < 1:
                raise MultipartError(f"a part run needs count >= 1, got {count}")
        self.boundary = boundary
        self.runs: Tuple[PartRun, ...] = tuple(runs)

    @property
    def parts(self) -> Tuple[MultipartPart, ...]:
        """Every part in wire order, runs expanded (O(parts); the
        encoder and the size accounting work on :attr:`runs`)."""
        return tuple(part for part, count in self.runs for _ in range(count))

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        resource_body: Body,
        ranges: Sequence[ResolvedRange],
        content_type: str,
        complete_length: Optional[int] = None,
        boundary: str = DEFAULT_BOUNDARY,
    ) -> "MultipartByteranges":
        """Assemble a multipart payload by slicing ``resource_body``.

        ``ranges`` must already be resolved (satisfiable) against the
        resource; no overlap checking is done here — deliberately, since
        modeling servers that *skip* that check is the point of the OBR
        reproduction.  Overlap rejection belongs in the server policy
        layer (:mod:`repro.cdn.multirange`).  Consecutive equal ranges
        become one run and are sliced once.
        """
        complete = complete_length if complete_length is not None else len(resource_body)
        runs = [
            (
                MultipartPart(
                    content_type=content_type,
                    content_range=r,
                    complete_length=complete,
                    payload=resource_body.slice(r.start, r.end + 1),
                ),
                count,
            )
            for r, count in group_ranges(ranges)
        ]
        return cls(runs, boundary=boundary)

    # -- encoding -----------------------------------------------------------

    @property
    def content_type_header(self) -> str:
        """Value for the enclosing response's ``Content-Type`` header."""
        return f"multipart/byteranges; boundary={self.boundary}"

    def to_body(self) -> CompositeBody:
        """Encode to a lazily-materialized body, one piece per run."""
        delimiter = f"--{self.boundary}\r\n".encode("latin-1")
        closer = f"--{self.boundary}--\r\n".encode("latin-1")
        pieces: List[Body] = []
        for part, count in self.runs:
            encoded = CompositeBody([delimiter, part.header_blob(), part.payload, b"\r\n"])
            pieces.append(encoded if count == 1 else RepeatedBody(encoded, count))
        pieces.append(BytesBody(closer))
        return CompositeBody(pieces)

    def wire_size(self) -> int:
        """Exact encoded size in bytes (no materialization)."""
        delimiter_len = len(self.boundary) + 4  # "--" + boundary + CRLF
        closer_len = len(self.boundary) + 6  # "--" + boundary + "--" + CRLF
        total = closer_len
        for part, count in self.runs:
            total += count * (delimiter_len + len(part.header_blob()) + len(part.payload) + 2)
        return total

    def part_overhead(self, part: MultipartPart) -> int:
        """Encoded bytes a part adds beyond its payload."""
        return (len(self.boundary) + 4) + len(part.header_blob()) + 2

    # -- decoding -----------------------------------------------------------

    @classmethod
    def parse(cls, blob: bytes, boundary: str) -> "MultipartByteranges":
        """Decode a multipart/byteranges payload produced by :meth:`to_body`."""
        delimiter = f"--{boundary}\r\n".encode("latin-1")
        closer = f"--{boundary}--".encode("latin-1")
        closer_at = blob.rfind(closer)
        if closer_at < 0:
            raise MultipartError("missing closing boundary")
        body = blob[:closer_at]
        if not body.startswith(delimiter):
            raise MultipartError("payload does not start with the dash-boundary")
        chunks = body.split(delimiter)[1:]  # leading empty piece before first delimiter
        runs: List[PartRun] = []
        for chunk in chunks:
            head, sep, payload = chunk.partition(b"\r\n\r\n")
            if not sep:
                raise MultipartError("part is missing its blank line")
            if not payload.endswith(b"\r\n"):
                raise MultipartError("part payload is missing its trailing CRLF")
            payload = payload[:-2]
            headers = Headers.parse(head)
            content_range_raw = headers.get("Content-Range")
            if content_range_raw is None:
                raise MultipartError("part is missing Content-Range")
            resolved, complete = parse_content_range(content_range_raw)
            if resolved is None or complete is None:
                raise MultipartError(f"unusable part Content-Range {content_range_raw!r}")
            part = MultipartPart(
                content_type=headers.get("Content-Type", "application/octet-stream"),
                content_range=resolved,
                complete_length=complete,
                payload=BytesBody(payload),
            )
            runs.append((part, 1))
        if not runs:
            raise MultipartError("multipart payload has no parts")
        return cls(runs, boundary=boundary)

    def __len__(self) -> int:
        return sum(count for _, count in self.runs)

    def __repr__(self) -> str:
        return (
            f"MultipartByteranges({len(self)} parts in {len(self.runs)} runs, "
            f"boundary={self.boundary!r}, {self.wire_size()} wire bytes)"
        )


def multipart_response_size(
    part_count: int,
    part_payload_length: int,
    complete_length: int,
    content_type: str = "application/octet-stream",
    boundary: str = DEFAULT_BOUNDARY,
) -> int:
    """Analytic wire size of a uniform n-part payload.

    Used by the OBR planner to predict amplification before running the
    pipeline; tested for exact agreement with :meth:`MultipartByteranges.wire_size`.
    """
    sample = MultipartPart(
        content_type=content_type,
        content_range=ResolvedRange(
            complete_length - part_payload_length, complete_length - 1
        ),
        complete_length=complete_length,
        payload=make_body(part_payload_length),
    )
    per_part = (len(boundary) + 4) + len(sample.header_blob()) + part_payload_length + 2
    return part_count * per_part + (len(boundary) + 6)
