"""The analysis service's routing, batch semantics, and degradation."""

from __future__ import annotations

import json

import pytest

from repro.analysis.recommend import recommend
from repro.analysis.report import analyze_vendor_matrix
from repro.cdn.vendors import all_vendor_names
from repro.core.obr import vulnerable_combinations
from repro.faults.plan import FaultKind, FaultPlan, FaultRule
from repro.http.message import HttpRequest
from repro.serve.app import AnalysisService, ServeConfig
from repro.serve.breaker import CLOSED, OPEN
from repro.serve.deadline import DEADLINE_EXCEEDED

from tests.serve.conftest import FakeClock, batch_request, body_json

KB = 1024
MB = 1 << 20


def get(service, path):
    return service.handle(HttpRequest(method="GET", target=path))


#: Every vendor under both vendor families, every vulnerable cascade,
#: and one safe pair.
LIBRARY_ITEMS = (
    [
        {"vendor": vendor, **({"attack": attack} if attack else {})}
        for vendor in all_vendor_names()
        for attack in (None, "ccfc")
    ]
    + [{"fcdn": fcdn, "bcdn": bcdn} for fcdn, bcdn in vulnerable_combinations()]
    + [{"fcdn": "akamai", "bcdn": "cdn77"}]
)


def _item_id(item):
    return "-".join(str(value) for value in item.values())


@pytest.fixture(scope="module")
def library():
    """The analyze and recommend reports at the default sizes."""
    matrix = analyze_vendor_matrix()
    return matrix, recommend(report=matrix)


class TestRouting:
    def test_healthz(self):
        service = AnalysisService()
        response = get(service, "/healthz")
        assert response.status == 200
        assert body_json(response) == {"status": "ok"}

    def test_readyz_flips_to_503_while_draining(self):
        service = AnalysisService()
        assert get(service, "/readyz").status == 200
        service.draining = True
        response = get(service, "/readyz")
        assert response.status == 503
        assert body_json(response) == {"status": "draining"}

    def test_unknown_path_is_404(self):
        assert get(AnalysisService(), "/nope").status == 404

    def test_wrong_methods_are_405(self):
        service = AnalysisService()
        assert service.handle(
            HttpRequest(method="GET", target="/v1/analyze")
        ).status == 405
        assert service.handle(
            HttpRequest(method="POST", target="/healthz")
        ).status == 405

    def test_malformed_json_is_400(self):
        service = AnalysisService()
        response = service.handle(
            HttpRequest(
                method="POST",
                target="/v1/analyze",
                headers=[("Content-Length", "5")],
                body=b"{oops",
            )
        )
        assert response.status == 400

    def test_deeply_nested_json_is_400_not_500(self):
        service = AnalysisService()
        body = b"[" * 100_000
        assert len(body) <= service.config.max_body_bytes
        response = service.handle(
            HttpRequest(
                method="POST",
                target="/v1/analyze",
                headers=[("Content-Length", str(len(body)))],
                body=body,
            )
        )
        assert response.status == 400
        assert "malformed JSON" in body_json(response)["error"]

    def test_missing_or_empty_items_are_400(self):
        service = AnalysisService()
        for payload in ({}, {"items": []}, {"items": "x"}, []):
            body = json.dumps(payload).encode()
            response = service.handle(
                HttpRequest(
                    method="POST",
                    target="/v1/analyze",
                    headers=[("Content-Length", str(len(body)))],
                    body=body,
                )
            )
            assert response.status == 400

    def test_oversized_batches_are_rejected(self):
        service = AnalysisService(ServeConfig(max_batch_items=2))
        response = service.handle(
            batch_request("/v1/analyze", [{"vendor": "fastly"}] * 3)
        )
        assert response.status == 400

    def test_oversized_body_is_413(self):
        service = AnalysisService(ServeConfig(max_body_bytes=64))
        response = service.handle(
            batch_request("/v1/analyze", [{"vendor": "fastly"}] * 8)
        )
        assert response.status == 413


class TestAnalyzeBatch:
    def test_sbr_obr_and_safe_items(self):
        service = AnalysisService()
        response = service.handle(
            batch_request(
                "/v1/analyze",
                [
                    {"vendor": "cloudflare", "size": MB},
                    {"fcdn": "cdn77", "bcdn": "akamai", "size": KB},
                    {"fcdn": "akamai", "bcdn": "cdn77", "size": KB},
                ],
            )
        )
        assert response.status == 200
        payload = body_json(response)
        kinds = [item["finding"]["kind"] for item in payload["results"]]
        assert kinds == ["sbr", "obr", "safe"]
        assert payload["partial"] is False
        assert payload["degraded"] is False
        assert payload["results"][0]["finding"]["factor_bound"] > 1000

    def test_ccfc_items_classify_and_measure_exactly(self):
        service = AnalysisService()
        response = service.handle(
            batch_request(
                "/v1/analyze",
                [
                    {
                        "vendor": "cloudflare",
                        "attack": "ccfc",
                        "size": MB,
                        "exact": True,
                    },
                    {"vendor": "tencent", "attack": "ccfc", "size": MB},
                    {"vendor": "fastly", "attack": "obr"},
                    {"fcdn": "cdn77", "bcdn": "akamai", "attack": "ccfc"},
                ],
            )
        )
        assert response.status == 200
        results = body_json(response)["results"]
        vulnerable = results[0]
        assert vulnerable["finding"]["kind"] == "ccfc"
        assert vulnerable["finding"]["data"]["encoding"] == "br"
        # The wire-level replay must land inside the (2dp-rounded)
        # closed-form bound it is reported against.
        assert vulnerable["exact_factor"] <= (
            vulnerable["finding"]["factor_bound"] + 0.01
        )
        assert vulnerable["exact_factor"] > 1000
        safe = results[1]
        assert safe["finding"]["kind"] == "safe"
        assert safe["finding"]["data"]["attack"] == "ccfc"
        assert "error" in results[2]  # a vendor item cannot ask for OBR
        assert "error" in results[3]  # a pair item cannot ask for CCFC

    def test_per_item_errors_do_not_fail_the_batch(self):
        service = AnalysisService()
        response = service.handle(
            batch_request(
                "/v1/analyze",
                [
                    {"vendor": "nosuch"},
                    {"vendor": "fastly", "size": "big"},
                    {"fcdn": "cdn77", "bcdn": "cdn77"},
                    {"vendor": "fastly", "fcdn": "cdn77", "bcdn": "akamai"},
                    {"vendor": "azure", "size": 4 * KB},
                ],
            )
        )
        assert response.status == 200
        results = body_json(response)["results"]
        assert all("error" in item for item in results[:4])
        assert results[4]["finding"]["subject"] == "azure"

    def test_exact_on_obr_items_is_skipped_with_an_explanation(self):
        calls = []

        def runner(vendor, size):
            calls.append((vendor, size))
            return 1.0

        service = AnalysisService(exact_runner=runner)
        response = service.handle(
            batch_request(
                "/v1/analyze",
                [{"fcdn": "cdn77", "bcdn": "akamai", "size": KB, "exact": True}],
            )
        )
        assert response.status == 200
        payload = body_json(response)
        assert payload["results"][0]["exact_skipped"] == (
            "exact measurement applies to SBR/CCFC items only"
        )
        assert payload["degraded"] is False
        assert calls == []  # the exact runner never fires for OBR

    @pytest.mark.parametrize("item", LIBRARY_ITEMS, ids=_item_id)
    def test_answers_match_the_analyze_command(self, item, library):
        """Both endpoints answer exactly what the library reports for
        the same subject at the default sizes."""
        matrix, recommendations = library
        kind = item.get("attack", "obr" if "fcdn" in item else "sbr")
        subject = item.get("vendor") or f"{item['fcdn']} -> {item['bcdn']}"
        rows = [
            f
            for f in matrix.findings
            if f.subject == subject
            and kind in (f.kind, f.data.get("attack", "sbr"))
        ]
        analyzed = body_json(
            AnalysisService().handle(batch_request("/v1/analyze", [item]))
        )["results"][0]
        recommended = body_json(
            AnalysisService().handle(batch_request("/v1/recommend", [item]))
        )["results"][0]
        assert recommended["finding"] == analyzed["finding"]
        if not rows:  # a cascade the matrix does not list: no OBR vector
            assert analyzed["finding"]["kind"] == "safe"
            assert recommended["recommendation"] is None
            return
        (row,) = rows
        assert analyzed["finding"] == row.to_dict()
        expected = [
            r.to_dict()
            for r in recommendations.recommendations
            if r.kind == row.kind and r.subject == subject
        ]
        assert [recommended["recommendation"]] == (expected or [None])


class TestRecommendBatch:
    def test_vulnerable_item_gets_a_recommendation(self):
        service = AnalysisService()
        response = service.handle(
            batch_request("/v1/recommend", [{"vendor": "cloudflare", "size": MB}])
        )
        assert response.status == 200
        item = body_json(response)["results"][0]
        assert item["recommendation"]["chosen"] is not None
        assert item["resolved"] is True
        residual = item["recommendation"]["chosen"]["residual_factor"]
        assert residual < item["finding"]["factor_bound"]

    def test_safe_item_needs_no_recommendation(self):
        service = AnalysisService()
        response = service.handle(
            batch_request(
                "/v1/recommend", [{"fcdn": "akamai", "bcdn": "cdn77", "size": KB}]
            )
        )
        item = body_json(response)["results"][0]
        assert item["finding"]["kind"] == "safe"
        assert item["recommendation"] is None
        assert item["resolved"] is True


class TestDeadline:
    def test_expiry_mid_batch_returns_partial_results(self):
        clock = FakeClock(tick=1.0)
        service = AnalysisService(clock=clock)
        response = service.handle(
            batch_request(
                "/v1/analyze",
                [{"vendor": "fastly", "size": KB}] * 4,
                headers=[("X-Deadline-Ms", "2500")],
            )
        )
        assert response.status == 200
        payload = body_json(response)
        assert payload["partial"] is True
        assert payload["deadline_ms"] == 2500
        markers = [item for item in payload["results"] if "error" in item]
        answered = [item for item in payload["results"] if "finding" in item]
        assert len(answered) == 2
        assert len(markers) == 2
        assert all(item["error"] == DEADLINE_EXCEEDED for item in markers)
        # The deadline outcome is what the request counter records.
        counter = service.metrics.counter("repro_serve_requests_total")
        assert counter.value(endpoint="analyze", outcome="deadline") == 1


class TestBreakerDegradation:
    def exact_item(self, size=256 * KB):
        return {"vendor": "cloudflare", "size": size, "exact": True}

    def test_failures_open_the_breaker_and_probes_recover(self):
        clock = FakeClock()
        calls = {"n": 0}
        failing = {"on": True}

        def runner(vendor, size):
            calls["n"] += 1
            if failing["on"]:
                raise RuntimeError("simulated exact-sim outage")
            return 123.0

        service = AnalysisService(
            ServeConfig(
                breaker_failure_threshold=2,
                breaker_reset_timeout_s=5.0,
                breaker_half_open_probes=1,
            ),
            clock=clock,
            exact_runner=runner,
        )

        def run():
            response = service.handle(
                batch_request("/v1/analyze", [self.exact_item()])
            )
            return body_json(response)

        first = run()
        assert first["degraded"] is True
        assert "exact-sim-failed" in first["results"][0]["degraded_reason"]
        assert "finding" in first["results"][0]  # bounds still answered
        second = run()
        assert service.breaker.state == OPEN

        third = run()  # breaker refuses without calling the runner
        assert calls["n"] == 2
        assert third["results"][0]["degraded_reason"] == "breaker-open"

        failing["on"] = False
        clock.advance(5.0)
        fourth = run()  # half-open probe succeeds and closes the breaker
        assert fourth["degraded"] is False
        assert fourth["results"][0]["exact_factor"] == 123.0
        assert service.breaker.state == CLOSED
        counter = service.metrics.counter("repro_serve_requests_total")
        assert counter.value(endpoint="analyze", outcome="degraded") == 3

    def test_slow_exact_sims_count_as_breaker_failures(self):
        clock = FakeClock()

        def slow_runner(vendor, size):
            clock.advance(2.0)  # simulate a 2 s simulation
            return 50.0

        service = AnalysisService(
            ServeConfig(exact_timeout_s=1.0, breaker_failure_threshold=2),
            clock=clock,
            exact_runner=slow_runner,
        )
        for _ in range(2):
            response = service.handle(
                batch_request(
                    "/v1/analyze",
                    [self.exact_item()],
                    headers=[("X-Deadline-Ms", "20000")],
                )
            )
            # The answer itself is still served (it did complete).
            assert "exact_factor" in body_json(response)["results"][0]
        assert service.breaker.state == OPEN

    def test_fault_injected_exact_sims_degrade_and_recover(self):
        """The acceptance scenario: origin faults exhaust the exact
        simulation's retry budget, the breaker opens, answers flip to
        bounds-only ``degraded: true``, and once the faults clear a
        half-open probe restores exact service."""
        clock = FakeClock()
        plan = FaultPlan(
            seed=7, rules=(FaultRule(FaultKind.ORIGIN_ERROR, rate=1.0),)
        )
        service = AnalysisService(
            ServeConfig(
                breaker_failure_threshold=1,
                breaker_reset_timeout_s=5.0,
                breaker_half_open_probes=1,
            ),
            clock=clock,
            fault_plan=plan,
        )
        item = {"vendor": "cloudflare", "size": 64 * KB, "exact": True}

        faulted = body_json(
            service.handle(batch_request("/v1/analyze", [item]))
        )
        assert faulted["degraded"] is True
        assert "exact-sim-failed" in faulted["results"][0]["degraded_reason"]
        assert service.breaker.state == OPEN

        refused = body_json(
            service.handle(batch_request("/v1/analyze", [item]))
        )
        assert refused["results"][0]["degraded_reason"] == "breaker-open"

        service.fault_plan = None  # the origin outage ends
        clock.advance(5.0)
        recovered = body_json(
            service.handle(batch_request("/v1/analyze", [item]))
        )
        assert recovered["degraded"] is False
        assert recovered["results"][0]["exact_factor"] > 1
        assert service.breaker.state == CLOSED


class TestSharedMemo:
    def test_findings_are_cached_across_requests(self):
        service = AnalysisService()
        request = batch_request("/v1/analyze", [{"vendor": "fastly", "size": MB}])
        service.handle(request)
        table = service.memo.table("findings")
        assert table.stats.misses == 1
        service.handle(batch_request("/v1/analyze", [{"vendor": "fastly", "size": MB}]))
        assert table.stats.hits == 1

    def test_memo_stays_bounded_under_size_churn(self):
        service = AnalysisService(ServeConfig(memo_entries=6))  # 2 per table
        items = [{"vendor": "fastly", "size": KB * (i + 1)} for i in range(5)]
        service.handle(batch_request("/v1/analyze", items))
        table = service.memo.table("findings")
        assert len(table) == 2
        assert table.stats.evictions == 3
        assert service.memo.entries() <= 6


class TestMetricsEndpoint:
    def test_exposition_carries_the_serve_families(self):
        service = AnalysisService()
        service.handle(batch_request("/v1/analyze", [{"vendor": "fastly"}]))
        response = get(service, "/metrics")
        assert response.status == 200
        text = response.body.materialize().decode()
        for family in (
            "repro_serve_requests_total",
            "repro_serve_request_seconds",
            "repro_serve_queue_depth",
            "repro_serve_inflight",
            "repro_serve_breaker_state",
            "repro_serve_memo_entries",
            "repro_memo_lookups_total",
        ):
            assert family in text
        assert 'endpoint="analyze",outcome="ok"} 1' in text
