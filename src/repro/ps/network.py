"""Cost models standing in for the paper's testbed hardware.

The paper's cluster: 4 machines, 32 Xeon cores each, 1 Gbps Ethernet.  We
replace the hardware with two explicit cost models:

* :class:`NetworkModel` — time to move bytes between machines (remote) or
  through shared memory to the co-located server shard (local).
* :class:`ComputeModel` — time to score/backprop a batch of triples on one
  worker's cores.

These models are deliberately simple (affine in bytes/flops) — the paper's
claims are about *communication volume*, which we measure exactly; the
models only convert volumes into seconds so results can be reported in the
paper's units.  Defaults approximate the paper's testbed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_positive

#: Wire size of one embedding element (float32).
BYTES_PER_ELEMENT = 4


@dataclass
class CommRecord:
    """Byte/message counts for one pull or push operation.

    ``retransmit_bytes`` annotates how many of the counted bytes were
    wasted on failed/retried attempts (fault injection): those bytes are
    *already included* in ``local_bytes``/``remote_bytes`` — the wire
    carried them — so the field never contributes to :attr:`total_bytes`;
    it exists so reports can split useful traffic from fault overhead.
    """

    local_bytes: int = 0
    remote_bytes: int = 0
    local_messages: int = 0
    remote_messages: int = 0
    retransmit_bytes: int = 0

    def merge(self, other: "CommRecord") -> None:
        self.local_bytes += other.local_bytes
        self.remote_bytes += other.remote_bytes
        self.local_messages += other.local_messages
        self.remote_messages += other.remote_messages
        self.retransmit_bytes += other.retransmit_bytes

    @property
    def total_bytes(self) -> int:
        return self.local_bytes + self.remote_bytes

    @property
    def total_messages(self) -> int:
        return self.local_messages + self.remote_messages

    def copy(self) -> "CommRecord":
        return CommRecord(
            local_bytes=self.local_bytes,
            remote_bytes=self.remote_bytes,
            local_messages=self.local_messages,
            remote_messages=self.remote_messages,
            retransmit_bytes=self.retransmit_bytes,
        )

    def difference(self, baseline: "CommRecord") -> "CommRecord":
        """Traffic accumulated since ``baseline`` (a prior snapshot)."""
        return CommRecord(
            local_bytes=self.local_bytes - baseline.local_bytes,
            remote_bytes=self.remote_bytes - baseline.remote_bytes,
            local_messages=self.local_messages - baseline.local_messages,
            remote_messages=self.remote_messages - baseline.remote_messages,
            retransmit_bytes=self.retransmit_bytes - baseline.retransmit_bytes,
        )


def meter_rows(
    owners: np.ndarray,
    machine: int,
    row_bytes: float,
    remote_factor: float = 1.0,
) -> CommRecord:
    """Traffic for moving one row per entry of ``owners`` to/from ``machine``.

    ``owners`` is the owning machine of each row (one ownership gather,
    made by the caller); rows ``machine`` owns move locally, the rest
    remotely at ``remote_factor`` bytes per byte (a wire codec's ratio),
    one message per contacted shard.  The local/remote split and the
    distinct-shard count both come from one ``np.bincount`` — owner ids
    are dense machine indices, so counting beats sorting.
    """
    counts = np.bincount(owners)
    n_local = int(counts[machine]) if machine < len(counts) else 0
    present = counts > 0
    if machine < len(counts):
        present[machine] = False
    return CommRecord(
        local_bytes=int(n_local * row_bytes),
        remote_bytes=int((len(owners) - n_local) * row_bytes * remote_factor),
        local_messages=1 if n_local else 0,
        remote_messages=int(present.sum()),
    )


@dataclass
class NetworkModel:
    """Affine latency + bandwidth cost model for the cluster fabric.

    Parameters
    ----------
    bandwidth:
        Remote link bandwidth in bytes/second (default 1 Gbps).
    latency:
        Per-remote-message round-trip setup cost in seconds.
    local_bandwidth:
        Shared-memory bandwidth for accesses to the co-located shard.
    local_latency:
        Per-local-access overhead (IPC/shared-memory handshake).
    """

    bandwidth: float = 125e6  # 1 Gbps
    latency: float = 2e-4
    local_bandwidth: float = 12.5e9  # ~100 Gbps shared memory
    local_latency: float = 2e-6

    def __post_init__(self) -> None:
        check_positive("bandwidth", self.bandwidth)
        check_positive("local_bandwidth", self.local_bandwidth)
        if self.latency < 0 or self.local_latency < 0:
            raise ValueError("latencies must be non-negative")

    def cost(self, record: CommRecord) -> float:
        """Seconds to complete the transfers described by ``record``.

        A pure function of ``record``: the model keeps no books.  The
        component whose clock advances by this cost keeps the bytes (a
        :class:`~repro.core.worker.Worker`'s ``comm``, PBG's per-machine
        records, the serving frontend's ``comm_totals``).
        """
        remote = (
            record.remote_messages * self.latency
            + record.remote_bytes / self.bandwidth
        )
        local = (
            record.local_messages * self.local_latency
            + record.local_bytes / self.local_bandwidth
        )
        return remote + local


@dataclass
class ComputeModel:
    """Throughput model for one worker's scoring/backprop compute.

    ``throughput`` is in embedding-element operations per second: scoring a
    triple costs about ``score_factor * dim`` element ops and backprop
    roughly doubles it.  The default is tuned so a 32-core CPU worker
    processes on the order of 10^9 element-ops per second — the right
    ballpark for the paper's testbed and, more importantly, a *fixed*
    constant across all compared systems, so ratios are fair.
    """

    throughput: float = 2e9
    score_factor: float = 3.0

    def __post_init__(self) -> None:
        check_positive("throughput", self.throughput)
        check_positive("score_factor", self.score_factor)

    def batch_time(self, num_scores: int, dim: int, backward: bool = True) -> float:
        """Seconds to score (and optionally backprop) ``num_scores`` triples."""
        ops = self.score_factor * num_scores * dim
        if backward:
            ops *= 2.0
        return ops / self.throughput

    def overhead_time(self, num_items: int, per_item_ops: float = 10.0) -> float:
        """Seconds of bookkeeping proportional to ``num_items`` (e.g.
        prefetch counting, cache table rebuilds)."""
        return num_items * per_item_ops / self.throughput
