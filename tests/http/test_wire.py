"""Unit and property tests for wire-format parsing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MessageError
from repro.http.headers import Headers
from repro.http.message import HttpRequest, HttpResponse
from repro.http.wire import body_length, parse_head, parse_request, parse_response


class TestParseRequest:
    def test_round_trip(self):
        original = HttpRequest(
            "GET",
            "/file.bin?cb=3",
            headers=[("Host", "victim.example"), ("Range", "bytes=0-0")],
        )
        parsed = parse_request(original.serialize())
        assert parsed.method == "GET"
        assert parsed.target == "/file.bin?cb=3"
        assert parsed.headers == original.headers
        assert parsed.serialize() == original.serialize()

    def test_body_delimited_by_content_length(self):
        blob = b"POST /x HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n\r\nabc"
        parsed = parse_request(blob)
        assert parsed.body.materialize() == b"abc"

    def test_body_without_content_length_takes_rest(self):
        # RFC 9112 6.3: a request without framing headers has no body,
        # so anything after the head is an error, not a body.
        blob = b"POST /x HTTP/1.1\r\nHost: h\r\n\r\n"
        assert parse_request(blob).body.materialize() == b""
        with pytest.raises(MessageError, match="7 bytes follow the 0-byte"):
            parse_request(blob + b"payload")

    @pytest.mark.parametrize(
        "bad",
        [
            b"GET /x HTTP/1.1\r\nHost: h\r\n",  # no blank line
            b"GET /x\r\n\r\n",  # two-token request line
            b"GET /x NOTHTTP\r\n\r\n",  # bad version
            b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",  # truncated
            b"POST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcEXTRA",  # trailing
            b"POST /x HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: +2\r\n\r\nab",
            b"POST /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: 4_7\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: \xd9\xa3\r\n\r\n",  # non-ASCII
            pytest.param(
                b"POST /x HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n",
                id="5000-digit Content-Length",
            ),
            b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nab",
            b"POST /x HTTP/1.1\r\nContent-Length: 2, 3\r\n\r\nab",
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
            b"GET /x HTTP/1.1\r\nnocolon\r\n\r\n",
            b"GET /x HTTP/1.1\r\nba d: 1\r\n\r\n",
            b"GET /x HTTP/1.1\r\nHost : h\r\n\r\n",
            b"GET /x HTTP/1.1\r\nHost: h\r\n folded\r\n\r\n",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(MessageError):
            parse_request(bad)


class TestParseResponse:
    def test_round_trip(self):
        original = HttpResponse(
            206,
            headers=[("Content-Range", "bytes 0-0/1000"), ("Content-Length", "1")],
            body=b"x",
        )
        parsed = parse_response(original.serialize())
        assert parsed.status == 206
        assert parsed.reason == "Partial Content"
        assert parsed.serialize() == original.serialize()

    def test_status_only_line(self):
        parsed = parse_response(b"HTTP/1.1 204\r\n\r\n")
        assert parsed.status == 204
        assert parsed.reason == ""

    def test_reason_with_spaces(self):
        parsed = parse_response(b"HTTP/1.1 416 Range Not Satisfiable\r\n\r\n")
        assert parsed.reason == "Range Not Satisfiable"

    @pytest.mark.parametrize(
        "bad",
        [
            b"HTTP/1.1 abc OK\r\n\r\n",
            b"NOTHTTP 200 OK\r\n\r\n",
            b"HTTP/1.1\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab",
            b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nab",
            b"HTTP/1.1 +20 OK\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(MessageError):
            parse_response(bad)


class TestBodyLength:
    def test_single_value(self):
        assert body_length(Headers([("Content-Length", "42")]), "request") == 42

    def test_absent_returns_none(self):
        assert body_length(Headers(), "request") is None

    def test_malformed_raises(self):
        headers = Headers([("Content-Length", "forty-two")])
        with pytest.raises(MessageError, match="'forty-two' is not 1-18 ASCII"):
            body_length(headers, "request")

    def test_equal_duplicates_collapse(self):
        headers = Headers([("Content-Length", "5, 5"), ("content-length", "005")])
        assert body_length(headers, "response") == 5

    def test_conflicting_values_raise(self):
        headers = Headers([("Content-Length", "5"), ("Content-Length", "6")])
        with pytest.raises(MessageError, match=r"conflicting Content-Length values \[5, 6\]"):
            body_length(headers, "request")

    @pytest.mark.parametrize("value", ["", " ", "1,", "1 2", "0x10", "1e3", "9" * 19])
    def test_only_one_to_eighteen_ascii_digits(self, value):
        with pytest.raises(MessageError):
            body_length(Headers([("Content-Length", value)]), "request")

    def test_eighteen_digits_accepted(self):
        assert body_length(Headers([("Content-Length", "9" * 18)]), "request") == 10**18 - 1

    def test_any_transfer_encoding_raises(self):
        for value in ("chunked", "identity", ""):
            headers = Headers([("Transfer-Encoding", value), ("Content-Length", "1")])
            with pytest.raises(MessageError, match="Transfer-Encoding"):
                body_length(headers, "request")


class TestParseHead:
    def test_header_error_becomes_message_error(self):
        with pytest.raises(MessageError, match="malformed request head"):
            parse_head(b"GET / HTTP/1.1\r\nnocolon", "request")

    def test_start_line_and_fields(self):
        start_line, headers = parse_head(b"GET / HTTP/1.1\r\nHost: h", "request")
        assert start_line == "GET / HTTP/1.1"
        assert headers == Headers([("Host", "h")])


_token = st.text(alphabet="abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=12)


class TestRoundTripProperties:
    @given(
        target=st.text(
            alphabet="abcdefghijklmnopqrstuvwxyz0123456789/?=&.-", min_size=1, max_size=30
        ).map(lambda s: "/" + s),
        header_names=st.lists(_token, min_size=0, max_size=5, unique=True),
        body=st.binary(max_size=64),
    )
    @settings(max_examples=150)
    def test_request_round_trip(self, target, header_names, body):
        headers = [("Host", "h")] + [(n, "v") for n in header_names]
        headers.append(("Content-Length", str(len(body))))
        original = HttpRequest("GET", target, headers=headers, body=body)
        parsed = parse_request(original.serialize())
        assert parsed.serialize() == original.serialize()
        assert parsed.wire_size() == original.wire_size()

    @given(
        status=st.integers(min_value=100, max_value=599),
        body=st.binary(max_size=64),
    )
    @settings(max_examples=150)
    def test_response_round_trip(self, status, body):
        original = HttpResponse(
            status, headers=[("Content-Length", str(len(body)))], body=body
        )
        parsed = parse_response(original.serialize())
        assert parsed.serialize() == original.serialize()

    def test_cdn_response_parses_from_wire(self):
        """End-to-end: a simulated CDN response survives serialization."""
        from tests.conftest import get, make_node, make_origin

        node = make_node("cloudflare", make_origin(1000))
        response = get(node, range_value="bytes=5-9")
        parsed = parse_response(response.serialize())
        assert parsed.status == 206
        assert parsed.headers.get("Content-Range") == "bytes 5-9/1000"
        assert parsed.body.materialize() == response.body.materialize()


def _simulations():
    from repro.cdn.vendors import all_vendor_names
    from repro.core.ccfc import CcfcAttack
    from repro.core.obr import ObrAttack
    from repro.core.sbr import SbrAttack
    from repro.runner.runall import QUICK_TABLE5_COMBOS

    MB = 1 << 20
    for vendor in all_vendor_names():
        yield f"sbr-{vendor}", SbrAttack(vendor, resource_size=1 * MB).run
    for fcdn, bcdn in QUICK_TABLE5_COMBOS:
        yield f"obr-{fcdn}-{bcdn}", ObrAttack(fcdn, bcdn).run
    yield "ccfc-cloudflare", CcfcAttack("cloudflare", resource_size=1 * MB).run


class TestSimulatorRoundTrip:
    """Every message the simulator puts on a connection survives its own
    parser: strict framing accepts all of it, byte for byte."""

    @pytest.mark.parametrize(
        "run", [pytest.param(run, id=name) for name, run in _simulations()]
    )
    def test_every_exchanged_message_round_trips(self, run, monkeypatch):
        from repro.netsim.connection import Connection

        captured = []
        exchange = Connection.exchange

        def capture(self, request, response, *args, **kwargs):
            captured.append((request, response))
            return exchange(self, request, response, *args, **kwargs)

        monkeypatch.setattr(Connection, "exchange", capture)
        run()
        assert captured
        for request, response in captured:
            blob = request.serialize()
            assert parse_request(blob).serialize() == blob
            assert (body_length(request.headers, "request") or 0) == len(request.body)
            blob = response.serialize()
            assert parse_response(blob).serialize() == blob
            assert body_length(response.headers, "response") == len(response.body)
