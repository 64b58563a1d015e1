"""The fold's bit-identity predicate, and a no-op the perf harness calls.

:func:`partial_states_identical` is what the tests compare folds with:
serial against pooled, chunked against whole-day, numpy against
native.  The fold's thread pool itself is
:func:`~repro.core.engine.execute_plan`'s: each day folds into its own
partial accumulator and the partials merge in day order.
"""

from __future__ import annotations

import numpy as np

from repro.core.accum import PrefixAccumulator

__all__ = ["partial_states_identical", "shutdown_worker_pools"]


def shutdown_worker_pools() -> None:
    """Nothing to retire: the fold keeps no pool between calls.

    Kept only because ``benchmarks/perf/trace.py`` imports and calls it
    around its two-worker fold probe; it goes with that call.
    """


def partial_states_identical(a: PrefixAccumulator, b: PrefixAccumulator) -> bool:
    """True when two accumulators carry bit-identical aggregates.

    Compares the compacted columnar forms column by column — the
    strongest equivalence short of classifying: identical states
    finalize (and therefore classify) identically under any
    configuration.
    """
    state_a, state_b = a.to_state(), b.to_state()
    if state_a.keys() != state_b.keys():
        return False
    for key, value_a in state_a.items():
        value_b = state_b[key]
        if isinstance(value_a, dict):
            if value_a.keys() != value_b.keys():
                return False
            for inner, columns_a in value_a.items():
                if not _columns_equal(columns_a, value_b[inner]):
                    return False
        elif isinstance(value_a, tuple) and value_a and isinstance(
            value_a[0], np.ndarray
        ):
            if not _columns_equal(value_a, value_b):
                return False
        elif value_a != value_b:
            return False
    return True


def _columns_equal(a, b) -> bool:
    if isinstance(a, tuple) and a and isinstance(a[0], np.ndarray):
        return len(a) == len(b) and all(
            np.array_equal(col_a, col_b) for col_a, col_b in zip(a, b)
        )
    return a == b
