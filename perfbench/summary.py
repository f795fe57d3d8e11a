"""Summary statistics and the determinism digest used by the workloads."""

from __future__ import annotations

import hashlib
import json

# A tail percentile is reported only where at least this many samples lie
# beyond it, so one slow outlier cannot set it alone.
TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, sample count), or None when there are too
    few samples for any percentile to have TAIL_BEYOND beyond it.  The value
    is the sample of rank n - TAIL_BEYOND (1-based) in ascending order, which
    is the percentile 100 * (n - TAIL_BEYOND) / n.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND
    return sorted(samples)[rank - 1], 100.0 * rank / n, n


def canonical(doc: object) -> str:
    """One fixed JSON spelling per value, so equal documents hash equally."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(docs: list[object]) -> str:
    """SHA-256 over the canonical JSON of each document, in order."""
    h = hashlib.sha256()
    for doc in docs:
        h.update(canonical(doc).encode())
        h.update(b"\n")
    return h.hexdigest()
