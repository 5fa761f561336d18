"""Per-query event log and client-fairness analysis.

Aggregate throughput (the paper's metric) can hide badly served clients:
a sleeper that keeps losing its cache pays the re-fetch bill every time
it wakes.  With ``SystemParams(collect_query_log=True)`` the simulation
records one :class:`QueryRecord` per answered query, exportable as CSV
and summarizable per client (including Jain's fairness index over
per-client service rates).  Aggregates can also hide transients:
:meth:`QueryLog.per_interval` folds the log into per-interval counts,
which show whether a run has reached the steady state the paper
measures or is still warming up.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Union


@dataclass(frozen=True)
class QueryRecord:
    """One answered query."""

    client_id: int
    started: float      # arrival time
    answered: float     # completion time
    items: int
    hits: int
    misses: int

    @property
    def latency(self) -> float:
        """Seconds from arrival to answer."""
        return self.answered - self.started


@dataclass(frozen=True)
class ClientSummary:
    """Per-client aggregate over the log."""

    client_id: int
    queries: int
    mean_latency: float
    hit_ratio: float


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: 1 = perfectly fair, 1/n = maximally unfair."""
    values = [float(v) for v in values]
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0:
        return 1.0
    return total * total / (len(values) * squares)


class QueryLog:
    """Collects :class:`QueryRecord` entries during a run."""

    def __init__(self):
        self.records: List[QueryRecord] = []

    def __len__(self):
        return len(self.records)

    def record(self, record: QueryRecord):
        """Append one answered query."""
        self.records.append(record)

    def for_client(self, client_id: int) -> List[QueryRecord]:
        """All records of one client, in completion order."""
        return [r for r in self.records if r.client_id == client_id]

    def per_client(self) -> Dict[int, ClientSummary]:
        """Aggregate the log per client."""
        grouped: Dict[int, List[QueryRecord]] = {}
        for r in self.records:
            grouped.setdefault(r.client_id, []).append(r)
        out: Dict[int, ClientSummary] = {}
        for cid, records in grouped.items():
            items = sum(r.items for r in records)
            hits = sum(r.hits for r in records)
            out[cid] = ClientSummary(
                client_id=cid,
                queries=len(records),
                mean_latency=sum(r.latency for r in records) / len(records),
                hit_ratio=hits / items if items else 0.0,
            )
        return out

    def per_interval(self, width: float, up_to: float) -> Dict[str, List[int]]:
        """Answered queries, hits and misses per *width*-second interval.

        Dense over ``[0, up_to)``: one count per interval, zero where
        nothing was answered.  A query counts, with all its hits and
        misses, in the interval that holds its answer time.
        """
        if width <= 0:
            raise ValueError("interval width must be positive")
        n = math.ceil(up_to / width)
        answered, hits, misses = [0] * n, [0] * n, [0] * n
        for r in self.records:
            i = math.floor(r.answered / width)
            if i < n:
                answered[i] += 1
                hits[i] += r.hits
                misses[i] += r.misses
        return {"answered": answered, "hits": hits, "misses": misses}

    def fairness(self) -> float:
        """Jain index over per-client answered-query counts."""
        return jain_index([s.queries for s in self.per_client().values()])

    def to_csv(self, path: Union[str, Path]) -> Path:
        """Export the log; returns the written path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["client_id", "started", "answered", "latency", "items",
                 "hits", "misses"]
            )
            for r in self.records:
                writer.writerow(
                    [r.client_id, f"{r.started:.6f}", f"{r.answered:.6f}",
                     f"{r.latency:.6f}", r.items, r.hits, r.misses]
                )
        return path
