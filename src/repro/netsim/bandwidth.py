"""Fluid-flow bandwidth simulation for the practicability experiment.

The paper's fourth experiment sends ``m`` SBR requests per second for 30
seconds and watches the origin's 1000 Mbps uplink saturate (Fig 7).  We
reproduce it with a classic fluid-flow model: transfers are continuous
flows over capacity-limited links, progressing each tick at their
max-min fair share, with excess demand naturally queueing as unfinished
transfers that spill into later ticks.

The model is deliberately simple — no packets, no TCP dynamics — because
the figure's shape (linear growth in ``m`` until the uplink pins at its
capacity) is a pure capacity/queueing phenomenon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import SimulationError


@dataclass
class Link:
    """A unidirectional link with a fixed capacity in bits per second."""

    name: str
    capacity_bps: float

    def __post_init__(self) -> None:
        if self.capacity_bps <= 0:
            raise SimulationError(
                f"link {self.name!r} capacity must be positive, got {self.capacity_bps}"
            )

    @property
    def capacity_bytes_per_sec(self) -> float:
        return self.capacity_bps / 8.0


@dataclass
class Transfer:
    """A flow of ``size_bytes`` across an ordered set of links."""

    size_bytes: float
    links: Sequence[str]
    start_time: float = 0.0
    label: str = ""
    remaining: float = field(init=False)
    finish_time: Optional[float] = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise SimulationError(f"transfer size must be >= 0, got {self.size_bytes}")
        if not self.links:
            raise SimulationError("a transfer must traverse at least one link")
        self.remaining = float(self.size_bytes)

    @property
    def done(self) -> bool:
        return self.remaining <= 0

    def active_at(self, now: float) -> bool:
        return self.start_time <= now and not self.done


@dataclass(frozen=True)
class LinkSample:
    """Throughput observed on one link during one tick."""

    time: float
    link: str
    throughput_bps: float
    active_transfers: int


class FluidSimulator:
    """Tick-based max-min fair-share fluid simulator.

    Each tick of length ``dt``:

    1. collect transfers that have started and are unfinished;
    2. compute each transfer's rate as the max-min fair allocation over
       its links (progressive filling);
    3. advance every transfer by ``rate * dt`` and sample per-link
       throughput.
    """

    def __init__(self, links: Sequence[Link], dt: float = 0.1) -> None:
        if dt <= 0:
            raise SimulationError(f"dt must be positive, got {dt}")
        self.dt = dt
        self._links: Dict[str, Link] = {}
        for link in links:
            if link.name in self._links:
                raise SimulationError(f"duplicate link name {link.name!r}")
            self._links[link.name] = link
        self._transfers: List[Transfer] = []
        self._samples: List[LinkSample] = []
        self._now = 0.0

    # -- setup ----------------------------------------------------------------

    def add_transfer(
        self,
        size_bytes: float,
        links: Sequence[str],
        start_time: float = 0.0,
        label: str = "",
    ) -> Transfer:
        """Schedule a transfer; unknown link names raise immediately."""
        for name in links:
            if name not in self._links:
                raise SimulationError(f"unknown link {name!r}")
        transfer = Transfer(
            size_bytes=size_bytes, links=tuple(links), start_time=start_time, label=label
        )
        self._transfers.append(transfer)
        return transfer

    @property
    def transfers(self) -> List[Transfer]:
        return list(self._transfers)

    # -- execution --------------------------------------------------------------

    def run(self, until: float) -> List[LinkSample]:
        """Advance the simulation to time ``until``; returns all samples."""
        if until < self._now:
            raise SimulationError(f"cannot run backwards from {self._now} to {until}")
        while self._now + self.dt <= until + 1e-9:
            self._tick()
        return list(self._samples)

    def _tick(self) -> None:
        active = [t for t in self._transfers if t.active_at(self._now)]
        rates = self._max_min_rates(active)
        moved_per_link: Dict[str, float] = {name: 0.0 for name in self._links}
        counts_per_link: Dict[str, int] = {name: 0 for name in self._links}
        for index, transfer in enumerate(active):
            rate = rates[index]
            moved = min(transfer.remaining, rate * self.dt)
            transfer.remaining -= moved
            if transfer.done and transfer.finish_time is None:
                transfer.finish_time = self._now + self.dt
            for name in transfer.links:
                moved_per_link[name] += moved
                counts_per_link[name] += 1
        for name in self._links:
            self._samples.append(
                LinkSample(
                    time=self._now,
                    link=name,
                    throughput_bps=moved_per_link[name] * 8.0 / self.dt,
                    active_transfers=counts_per_link[name],
                )
            )
        self._now += self.dt

    def _max_min_rates(self, active: Sequence[Transfer]) -> Dict[int, float]:
        """Progressive-filling max-min fair allocation (bytes/sec).

        Keyed by position in ``active`` — not ``id()`` — so the rate map
        is a pure function of the transfer list and two identical runs
        allocate identically.
        """
        rates: Dict[int, float] = {index: 0.0 for index in range(len(active))}
        unfrozen: Dict[int, Transfer] = dict(enumerate(active))
        remaining_capacity = {
            name: link.capacity_bytes_per_sec for name, link in self._links.items()
        }
        while unfrozen:
            # Most constrained link determines the next rate increment.
            increments = []
            for name, capacity in remaining_capacity.items():
                users = [t for t in unfrozen.values() if name in t.links]
                if users:
                    increments.append((capacity / len(users), name))
            if not increments:
                break
            increment, bottleneck = min(increments)
            for index, transfer in unfrozen.items():
                rates[index] += increment
                for name in transfer.links:
                    remaining_capacity[name] -= increment
            # Freeze every transfer crossing the saturated bottleneck.
            for key, transfer in list(unfrozen.items()):
                if bottleneck in transfer.links:
                    del unfrozen[key]
            remaining_capacity = {
                name: max(0.0, cap) for name, cap in remaining_capacity.items()
            }
        return rates

    # -- inspection ---------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    def samples_for(self, link: str) -> List[LinkSample]:
        return [s for s in self._samples if s.link == link]

    def mean_throughput_bps(self, link: str, start: float = 0.0, end: float = float("inf")) -> float:
        """Average throughput on ``link`` over the window ``[start, end)``."""
        window = [s for s in self.samples_for(link) if start <= s.time < end]
        if not window:
            return 0.0
        return sum(s.throughput_bps for s in window) / len(window)
