"""A thread-safe lru_cache for lazily built shared structures."""

from __future__ import annotations

import functools
import threading


def locked_cache(maxsize: int):
    """functools.lru_cache whose calls hold one lock, so threads asking for
    the same missing key wait for a single build instead of repeating it,
    and every caller gets the one finished result."""
    def decorate(fn):
        cached = functools.lru_cache(maxsize=maxsize)(fn)
        lock = threading.Lock()

        @functools.wraps(fn)
        def wrapper(*args):
            with lock:
                return cached(*args)
        wrapper.cache_info = cached.cache_info
        wrapper.cache_clear = cached.cache_clear
        return wrapper
    return decorate
