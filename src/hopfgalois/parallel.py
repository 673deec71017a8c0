"""Unused by the library; kept only because perfbench/tracing.py names it
(it goes with ROADMAP item 2)."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def parallel_map(fn, items, threads=1):
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
