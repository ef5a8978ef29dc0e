"""Unit and property tests for the multipart/byteranges codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.obr import ObrAttack
from repro.errors import MultipartError
from repro.http.body import BytesBody, RepeatedBody, SyntheticBody
from repro.http.multipart import (
    DEFAULT_BOUNDARY,
    MultipartByteranges,
    MultipartPart,
    multipart_response_size,
)
from repro.http.ranges import ResolvedRange


def _build(resource: bytes, ranges, boundary=DEFAULT_BOUNDARY):
    return MultipartByteranges.build(
        resource_body=BytesBody(resource),
        ranges=ranges,
        content_type="application/octet-stream",
        boundary=boundary,
    )


class TestConstruction:
    def test_build_slices_payloads(self):
        multipart = _build(b"0123456789", [ResolvedRange(1, 3), ResolvedRange(8, 9)])
        assert multipart.parts[0].payload.materialize() == b"123"
        assert multipart.parts[1].payload.materialize() == b"89"

    def test_build_keeps_overlapping_duplicates(self):
        # The OBR back-end case: no overlap checking at this layer.
        multipart = _build(b"abcd", [ResolvedRange(0, 3)] * 5)
        assert len(multipart) == 5
        assert all(p.payload.materialize() == b"abcd" for p in multipart.parts)

    def test_part_payload_length_mismatch_rejected(self):
        with pytest.raises(MultipartError):
            MultipartPart(
                content_type="text/plain",
                content_range=ResolvedRange(0, 5),
                complete_length=10,
                payload=BytesBody(b"ab"),
            )

    def test_bad_boundary_rejected(self):
        with pytest.raises(MultipartError):
            MultipartByteranges([], boundary="")
        with pytest.raises(MultipartError):
            MultipartByteranges([], boundary="x" * 71)

    def test_empty_run_rejected(self):
        part = _build(b"ab", [ResolvedRange(0, 1)]).parts[0]
        with pytest.raises(MultipartError):
            MultipartByteranges([(part, 0)])

    def test_content_type_header(self):
        multipart = _build(b"ab", [ResolvedRange(0, 1)], boundary="XYZ")
        assert multipart.content_type_header == "multipart/byteranges; boundary=XYZ"


class TestEncoding:
    def test_wire_size_matches_body_length(self):
        multipart = _build(b"0123456789", [ResolvedRange(0, 0), ResolvedRange(5, 9)])
        body = multipart.to_body()
        assert multipart.wire_size() == len(body)
        assert multipart.wire_size() == len(body.materialize())

    def test_encoding_structure(self):
        multipart = _build(b"abcdef", [ResolvedRange(1, 2)], boundary="BND")
        blob = multipart.to_body().materialize()
        assert blob.startswith(b"--BND\r\n")
        assert b"Content-Range: bytes 1-2/6\r\n" in blob
        assert blob.endswith(b"--BND--\r\n")

    def test_synthetic_resource_never_materialized(self):
        resource = SyntheticBody(1024)
        multipart = MultipartByteranges.build(
            resource_body=resource,
            ranges=[ResolvedRange(0, 1023)] * 100,
            content_type="application/octet-stream",
        )
        # Sizing a 100-part payload must not materialize the parts.
        assert multipart.wire_size() > 100 * 1024

    def test_analytic_size_agrees_with_obr_shape(self):
        # The OBR planner's formula must agree exactly with the encoder
        # for uniform full-resource parts.
        n, size = 64, 1024
        multipart = MultipartByteranges.build(
            resource_body=SyntheticBody(size),
            ranges=[ResolvedRange(0, size - 1)] * n,
            content_type="application/octet-stream",
        )
        assert multipart.wire_size() == multipart_response_size(n, size, size)


class TestDecoding:
    def test_round_trip(self):
        original = _build(b"0123456789", [ResolvedRange(0, 0), ResolvedRange(3, 7)])
        parsed = MultipartByteranges.parse(
            original.to_body().materialize(), DEFAULT_BOUNDARY
        )
        assert len(parsed) == 2
        assert parsed.parts[0].content_range == ResolvedRange(0, 0)
        assert parsed.parts[0].payload.materialize() == b"0"
        assert parsed.parts[1].payload.materialize() == b"34567"
        assert parsed.parts[1].complete_length == 10

    def test_parse_missing_closer(self):
        with pytest.raises(MultipartError):
            MultipartByteranges.parse(b"--B\r\nstuff", "B")

    def test_parse_wrong_boundary(self):
        blob = _build(b"ab", [ResolvedRange(0, 1)]).to_body().materialize()
        with pytest.raises(MultipartError):
            MultipartByteranges.parse(blob, "not-the-boundary")

    def test_parse_part_without_content_range(self):
        blob = b"--B\r\nContent-Type: text/plain\r\n\r\nxx\r\n--B--\r\n"
        with pytest.raises(MultipartError):
            MultipartByteranges.parse(blob, "B")

    def test_parse_empty_payload_rejected(self):
        with pytest.raises(MultipartError):
            MultipartByteranges.parse(b"--B--\r\n", "B")

    @given(
        ranges=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=63),
                st.integers(min_value=0, max_value=63),
            ).map(lambda t: ResolvedRange(min(t), max(t))),
            min_size=1,
            max_size=6,
        ),
        boundary=st.text(
            alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=40
        ),
    )
    @settings(max_examples=100)
    def test_round_trip_property(self, ranges, boundary):
        resource = bytes(range(64))
        original = MultipartByteranges.build(
            resource_body=BytesBody(resource),
            ranges=ranges,
            content_type="application/octet-stream",
            boundary=boundary,
        )
        parsed = MultipartByteranges.parse(original.to_body().materialize(), boundary)
        assert len(parsed) == len(original)
        for mine, theirs in zip(original.parts, parsed.parts):
            assert mine.content_range == theirs.content_range
            assert mine.payload.materialize() == theirs.payload.materialize()
            assert theirs.complete_length == 64


class TestAmplificationArithmetic:
    def test_n_part_response_grows_linearly(self):
        """The OBR premise: n parts cost ~n times the resource."""
        resource = SyntheticBody(1024)
        sizes = []
        for n in (1, 10, 100):
            multipart = MultipartByteranges.build(
                resource_body=resource,
                ranges=[ResolvedRange(0, 1023)] * n,
                content_type="application/octet-stream",
            )
            sizes.append(multipart.wire_size())
        per_part = (sizes[2] - sizes[1]) / 90
        assert per_part > 1024  # payload plus per-part overhead
        # Linearity: going 10 -> 100 parts adds ten times what 1 -> 10 did.
        assert sizes[2] - sizes[1] == 10 * (sizes[1] - sizes[0])


def _naive_encoding(resource: bytes, ranges, boundary: str) -> bytes:
    """The per-part wire format written out longhand, one part per range."""
    out = []
    for r in ranges:
        out.append(
            f"--{boundary}\r\nContent-Type: application/octet-stream\r\n"
            f"Content-Range: bytes {r.start}-{r.end}/{len(resource)}\r\n\r\n".encode()
        )
        out.append(resource[r.start:r.end + 1] + b"\r\n")
    out.append(f"--{boundary}--\r\n".encode())
    return b"".join(out)


_RUNS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=1, max_value=5),
    ),
    min_size=1,
    max_size=5,
)


class TestRunLength:
    def test_consecutive_equal_ranges_form_one_run(self):
        ranges = [ResolvedRange(0, 3)] * 4 + [ResolvedRange(1, 2)] + [ResolvedRange(0, 3)] * 2
        multipart = _build(b"abcd", ranges)
        assert [count for _, count in multipart.runs] == [4, 1, 2]
        assert len(multipart) == len(multipart.parts) == 7
        assert [p.content_range for p in multipart.parts] == ranges

    def test_repeated_run_encodes_as_a_repeated_body(self):
        multipart = _build(b"abcd", [ResolvedRange(0, 3)] * 50)
        pieces = multipart.to_body().parts
        assert len(pieces) == 2  # the run, then the closing delimiter
        assert isinstance(pieces[0], RepeatedBody) and pieces[0].count == 50

    @given(runs=_RUNS, boundary=st.sampled_from(["B", DEFAULT_BOUNDARY, "x" * 70]))
    @settings(max_examples=150)
    def test_matches_the_naive_per_part_encoding(self, runs, boundary):
        resource = bytes(range(64))
        ranges = [
            ResolvedRange(min(a, b), max(a, b)) for a, b, count in runs for _ in range(count)
        ]
        multipart = _build(resource, ranges, boundary=boundary)
        body = multipart.to_body()
        expected = _naive_encoding(resource, ranges, boundary)
        assert body.materialize() == expected
        assert multipart.wire_size() == len(body) == len(expected)
        assert len(multipart.parts) == len(ranges)
        parsed = MultipartByteranges.parse(expected, boundary)
        assert [p.content_range for p in parsed.parts] == ranges
        assert [p.payload.materialize() for p in parsed.parts] == [
            resource[r.start:r.end + 1] for r in ranges
        ]

    @pytest.mark.parametrize("leading", [None, ResolvedRange(1, 1023), ResolvedRange(0, 1023)])
    @pytest.mark.parametrize("n", [1, 2, 10_000])
    def test_obr_shapes_agree_with_the_analytic_size(self, leading, n):
        # The OBR request shapes: n plain 0- parts, or a leading spec
        # (CDNsun's 1-, or a suffix covering the whole 1 KB resource)
        # followed by n 0- parts.
        size = 1024
        full = ResolvedRange(0, size - 1)
        ranges = ([leading] if leading is not None else []) + [full] * n
        multipart = MultipartByteranges.build(
            resource_body=SyntheticBody(size),
            ranges=ranges,
            content_type="application/octet-stream",
        )
        assert len(multipart.parts) == len(ranges)
        expected = multipart_response_size(n, size, size)
        if leading is not None:
            expected += multipart_response_size(1, leading.length, size) - (
                len(DEFAULT_BOUNDARY) + 6
            )
        assert multipart.wire_size() == len(multipart.to_body()) == expected
        if n <= 2:
            assert multipart.to_body().materialize() == _naive_encoding(
                SyntheticBody(size).materialize(), ranges, DEFAULT_BOUNDARY
            )

    @pytest.mark.parametrize(
        "fcdn,n,distinct",
        # CDNsun leads with 1- and stays under Akamai's header limit
        # only below ~5,456 ranges.
        [("stackpath", 10_000, 1), ("cdnsun", 5_000, 2)],
    )
    def test_obr_response_builds_each_distinct_part_header_once(
        self, monkeypatch, fcdn, n, distinct
    ):
        calls = []
        original = MultipartPart.header_blob

        def counting(part):
            calls.append(part.content_range)
            return original(part)

        monkeypatch.setattr(MultipartPart, "header_blob", counting)
        result = ObrAttack(fcdn, "akamai").run(overlap_count=n)
        assert result.status == 206
        assert len(calls) == distinct
