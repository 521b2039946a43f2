"""Deterministic parallel mapping.

Work items must be pure functions of their argument (seeds included in the
argument), so results are identical for any thread count; outputs are
collected by input index, never by completion order.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def deterministic_map(fn: Callable[[T], R], items: Sequence[T], threads: int = 1) -> list[R]:
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    # imported here: most runs are serial and never start a pool
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
