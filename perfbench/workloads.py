"""Seeded inputs for the benchmark workloads, and why each one exists.

The program under test only ever sees what these generators produce:
the grid workloads turn the seed into command-line values, and the
serve workload turns it into a stream of HTTP request bytes.  The same
seed always yields the same inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Set, Tuple

MB = 1 << 20

#: Workload name -> why it was chosen (mirrored in BENCHMARK.json).
WORKLOADS: Dict[str, str] = {
    "grid-exact": (
        "full run-all --exact grid: every cell goes through the wire "
        "simulator, so repro.http, cdn, origin and netsim carry the work"
    ),
    "grid-fast": (
        "default fast-path run-all plus analyze and recommend: closed forms, "
        "calibration, bandwidth and static analysis; control for http changes"
    ),
    "serve-mix": (
        "repro serve under a seeded closed-loop batch mix with hot and cold "
        "keys: per-request http and analysis work in a long-lived process"
    ),
}

#: The modeled CDN vendors (the program's registry, fixed here so the
#: generated inputs do not depend on the code under test).
VENDORS: Tuple[str, ...] = (
    "akamai", "alibaba", "azure", "cdn77", "cdnsun", "cloudflare",
    "cloudfront", "fastly", "gcore", "huawei", "keycdn", "stackpath",
    "tencent",
)
#: FCDN -> BCDN cascades the paper reports as OBR-vulnerable.
OBR_CASCADES: Tuple[Tuple[str, str], ...] = (
    ("cdn77", "akamai"), ("cdn77", "azure"), ("cdn77", "stackpath"),
    ("cdnsun", "akamai"), ("cdnsun", "azure"), ("cdnsun", "stackpath"),
    ("cloudflare", "akamai"), ("cloudflare", "azure"),
    ("cloudflare", "stackpath"), ("stackpath", "akamai"),
    ("stackpath", "azure"),
)


# -- grid workloads ---------------------------------------------------------


@dataclass(frozen=True)
class GridInputs:
    """The seed-derived values the grid workloads pass on the command line."""

    fault_seed: int
    size_mb: int
    obr_size: int
    ccfc_size_mb: int

    def run_all_args(self, exact: bool) -> List[str]:
        args = ["run-all"] + (["--exact"] if exact else [])
        return args + ["--faults", "--fault-seed", str(self.fault_seed),
                       "--workers", "1"]

    def sizes_args(self) -> List[str]:
        return ["--size-mb", str(self.size_mb), "--obr-size", str(self.obr_size),
                "--ccfc-size-mb", str(self.ccfc_size_mb)]


def grid_inputs(seed: int) -> GridInputs:
    rng = random.Random(f"grid:{seed}")
    return GridInputs(
        fault_seed=rng.randrange(1, 1 << 31),
        size_mb=rng.randint(1, 32),
        obr_size=rng.randint(256, 8192),
        ccfc_size_mb=rng.randint(1, 32),
    )


# -- serve workload ---------------------------------------------------------

#: Share of batches sent to /v1/recommend (the rest go to /v1/analyze).
RECOMMEND_SHARE = 0.3
#: Item-kind mix: SBR / CCFC / OBR.
KIND_WEIGHTS = (("sbr", 0.5), ("ccfc", 0.2), ("obr", 0.3))
#: Share of SBR items that ask for an exact simulation (size <= 8 MB).
EXACT_SHARE = 0.3
#: Share of items drawn from the hot set; the rest are unique keys.
HOT_SHARE = 0.8
HOT_KEYS = 24
ITEMS_PER_BATCH = 4


@dataclass(frozen=True)
class Batch:
    """One request of the serve workload."""

    endpoint: str  # "analyze" | "recommend"
    items: Tuple[str, ...]  # canonical JSON of each item
    kinds: Tuple[str, ...]
    hot: Tuple[bool, ...]

    @property
    def body(self) -> bytes:
        return ('{"items":[' + ",".join(self.items) + "]}").encode("utf-8")

    @property
    def request(self) -> bytes:
        body = self.body
        head = (
            f"POST /v1/{self.endpoint} HTTP/1.1\r\n"
            "Host: 127.0.0.1\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        return head.encode("ascii") + body


class ServeMix:
    """An endless, seed-determined stream of :class:`Batch` requests.

    Each item is a hot key (from a small fixed set, so the service memo
    hits) with probability :data:`HOT_SHARE`, else a key never used
    before (so the memo misses and the analysis layer runs).
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"serve:{seed}")
        self._used: Set[Tuple[object, ...]] = set()
        self.hot = self._hot_set()

    def _hot_set(self) -> List[Tuple[str, str]]:
        """:data:`HOT_KEYS` items whose kind and exact shares are exactly
        the target mix, so the hot set does not skew the mix by seed."""
        items = []
        for kind, weight in KIND_WEIGHTS[:-1]:
            count = round(HOT_KEYS * weight)
            exact = round(count * EXACT_SHARE) if kind == "sbr" else 0
            items += [self._fresh_item(kind, i < exact) for i in range(count)]
        kind = KIND_WEIGHTS[-1][0]
        items += [self._fresh_item(kind, False) for _ in range(HOT_KEYS - len(items))]
        return items

    def _random_item(self) -> Tuple[str, str]:
        rng = self._rng
        roll = rng.random()
        kind = KIND_WEIGHTS[-1][0]
        for name, weight in KIND_WEIGHTS:
            if roll < weight:
                kind = name
                break
            roll -= weight
        return self._fresh_item(kind, kind == "sbr" and rng.random() < EXACT_SHARE)

    def _fresh_item(self, kind: str, exact: bool) -> Tuple[str, str]:
        """A (kind, canonical JSON) item whose memo key is unused so far."""
        rng = self._rng
        while True:
            item: Dict[str, object]
            if kind == "obr":
                fcdn, bcdn = rng.choice(OBR_CASCADES)
                item = {"fcdn": fcdn, "bcdn": bcdn, "size": rng.randint(256, 8192)}
                key: Tuple[object, ...] = ("obr", fcdn, bcdn, item["size"])
            else:
                vendor = rng.choice(VENDORS)
                top = 8 * MB if exact else 32 * MB
                item = {"vendor": vendor, "size": rng.randint(MB, top)}
                if kind == "ccfc":
                    item["attack"] = "ccfc"
                if exact:
                    item["exact"] = True
                key = (kind, vendor, item["size"])
            if key not in self._used:
                self._used.add(key)
                return kind, json.dumps(item, sort_keys=True, separators=(",", ":"))

    def next_batch(self) -> Batch:
        rng = self._rng
        endpoint = "recommend" if rng.random() < RECOMMEND_SHARE else "analyze"
        kinds, items, hot = [], [], []
        for _ in range(ITEMS_PER_BATCH):
            is_hot = rng.random() < HOT_SHARE
            kind, item = rng.choice(self.hot) if is_hot else self._random_item()
            kinds.append(kind)
            items.append(item)
            hot.append(is_hot)
        return Batch(endpoint, tuple(items), tuple(kinds), tuple(hot))

    def __iter__(self) -> Iterator[Batch]:
        while True:
            yield self.next_batch()


def mix_shares(batches: List[Batch]) -> Dict[str, float]:
    """Measured shares of what was actually sent: hot/cold keys, item
    kinds, exact items and recommend batches."""
    items = [(kind, item, hot) for b in batches
             for kind, item, hot in zip(b.kinds, b.items, b.hot)]
    total = max(1, len(items))
    shares = {
        "hot": sum(hot for _, _, hot in items) / total,
        "exact": sum('"exact":true' in item for _, item, _ in items) / total,
        "recommend_batches": sum(b.endpoint == "recommend" for b in batches)
        / max(1, len(batches)),
    }
    for kind, _ in KIND_WEIGHTS:
        shares[kind] = sum(k == kind for k, _, _ in items) / total
    return shares
