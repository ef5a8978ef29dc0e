"""Numeric series behind the paper's figures.

* Fig 6a/6b/6c — per-vendor SBR amplification factor, CDN-to-client
  traffic, and origin-to-CDN traffic, swept over resource sizes of
  1–25 MB.
* Fig 7a/7b — client incoming and origin outgoing bandwidth over time
  for m = 1..15 concurrent attack streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence, Tuple

from repro.cdn.vendors import all_vendor_names
from repro.core.practical import BandwidthRunResult
from repro.core.sbr import SbrResult
from repro.reporting.tables import resolve_runner

if TYPE_CHECKING:  # pragma: no cover
    from repro.runner.executor import GridRunner

MB = 1 << 20


@dataclass(frozen=True)
class Fig6Series:
    """One vendor's curve across the three panels of Fig 6."""

    vendor: str
    sizes: Tuple[int, ...]
    #: Fig 6a — amplification factor per size.
    factors: Tuple[float, ...]
    #: Fig 6b — response traffic CDN -> client per size (bytes).
    client_traffic: Tuple[int, ...]
    #: Fig 6c — response traffic origin -> CDN per size (bytes).
    origin_traffic: Tuple[int, ...]


def default_fig6_sizes() -> List[int]:
    """1 MB to 25 MB stepped by 1 MB, as in the paper."""
    return [m * MB for m in range(1, 26)]


def fig6_series(
    vendors: Optional[Sequence[str]] = None,
    sizes: Optional[Sequence[int]] = None,
    runner: Optional[GridRunner] = None,
) -> List[Fig6Series]:
    """Regenerate the Fig 6 sweep.

    The 13 x 25 cells execute through ``runner`` (default: one
    in-process worker); merge order is grid order, so every worker count
    yields the same series.
    """
    from repro.core.sbr import sbr_grid

    names = list(vendors) if vendors is not None else all_vendor_names()
    size_list = list(sizes) if sizes is not None else default_fig6_sizes()
    grid_result = resolve_runner(runner).run(
        sbr_grid(names, tuple(size_list), name="fig6-sbr")
    )
    grid_result.values()  # propagate the first cell failure
    return fig6_series_from_results(grid_result.value_by_key(), names, size_list)


def fig6_series_from_results(
    results: Mapping[Tuple[str, int], SbrResult],
    vendors: Sequence[str],
    sizes: Sequence[int],
) -> List[Fig6Series]:
    """Assemble Fig 6 series from (vendor, size) -> SbrResult mappings."""
    series = []
    for name in vendors:
        cells = [results[(name, size)] for size in sizes]
        series.append(
            Fig6Series(
                vendor=name,
                sizes=tuple(sizes),
                factors=tuple(r.amplification for r in cells),
                client_traffic=tuple(r.client_traffic for r in cells),
                origin_traffic=tuple(r.origin_traffic for r in cells),
            )
        )
    return series


def fig7_series(
    ms: Sequence[int] = tuple(range(1, 16)),
    vendor: str = "cloudflare",
    resource_size: int = 10 * MB,
    origin_uplink_mbps: float = 1000.0,
    runner: Optional[GridRunner] = None,
) -> List[BandwidthRunResult]:
    """Regenerate the Fig 7 sweep: one bandwidth-run grid cell per m,
    executed through ``runner`` (default: one in-process worker)."""
    from repro.core.practical import flood_grid

    grid_result = resolve_runner(runner).run(
        flood_grid(
            ms,
            vendor=vendor,
            resource_size=resource_size,
            origin_uplink_mbps=origin_uplink_mbps,
        )
    )
    return grid_result.values()
