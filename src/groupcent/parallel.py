"""Serial stand-in for the retired thread-pool dispatch.

No solver calls this module: every candidate scan is a plain serial loop.
It stays only because the benchmark's tracer (``bench/tracing.py``) lists
``parallel.EvalPool.map`` among its built-in targets and its self-test
expects every built-in target to resolve. Delete it together with that
target at the next change to the benchmark.
"""

from __future__ import annotations


class EvalPool:
    def map(self, fn, items):
        return [fn(x) for x in items]
