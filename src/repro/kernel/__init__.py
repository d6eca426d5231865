"""repro.kernel — the shared text-index substrate.

One :class:`TextKernel` per text: encoded codes, suffix array (+ lazy
LCP), position-utility prefix sums, and Karp-Rabin tables, built once
and injected into every backend (``repro.build(..., kernel=kernel)``),
plus the vectorised batch locate/aggregate path every backend's
``query_batch`` routes through.
"""

from repro.kernel.text_kernel import (
    TextKernel,
    add_build_listener,
    interval_utilities,
    iter_length_buckets,
    record_kernel_builds,
    remove_build_listener,
)

__all__ = [
    "TextKernel",
    "add_build_listener",
    "interval_utilities",
    "iter_length_buckets",
    "record_kernel_builds",
    "remove_build_listener",
]
