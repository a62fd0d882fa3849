"""Explicit I/O cost model for the columnar engine and the KV store.

The paper's system experiments (Figs. 18–22) split query time into CPU and
I/O on a local NVMe SSD.  Our substrate executes the CPU work for real and
*charges* I/O as ``bytes / bandwidth`` (+ per-read latency), accumulating the
totals so benchmarks can report the same stacked breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: NVMe-class defaults: ~2 GB/s effective sequential read, 100 us per I/O
DEFAULT_BANDWIDTH = 2e9
DEFAULT_LATENCY_S = 100e-6


@dataclass
class IOModel:
    """Accumulates simulated read cost."""

    bandwidth_bytes_per_s: float = DEFAULT_BANDWIDTH
    latency_s: float = DEFAULT_LATENCY_S
    bytes_read: int = field(default=0, init=False)
    reads: int = field(default=0, init=False)

    def charge(self, nbytes: int) -> None:
        """Record one read of ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"negative read size {nbytes}")
        self.bytes_read += nbytes
        self.reads += 1

    @property
    def seconds(self) -> float:
        return (self.bytes_read / self.bandwidth_bytes_per_s
                + self.reads * self.latency_s)

    def reset(self) -> None:
        self.bytes_read = 0
        self.reads = 0

