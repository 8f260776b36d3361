"""Network cost model for the GAS runtime.

The paper's Figure 8(c) varies the inter-node RTT with PUMBA from 10ms to
100ms; bandwidth is a property of their cluster.  Both are parameters;
defaults approximate a 10GbE cluster.  Message counts and byte volumes
are not modeled here: the runtime measures them off its sync buffers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = ["NetworkModel"]


@dataclass(frozen=True)
class NetworkModel:
    """Latency/bandwidth model for one BSP superstep.

    Attributes
    ----------
    bandwidth_bytes_per_s:
        Aggregate cluster bisection bandwidth.
    rtt_seconds:
        Round-trip latency between any two nodes.
    seconds_per_message:
        Per-message CPU/RPC overhead (serialization, syscalls); this is
        what actually dominates PowerGraph's sync phase on fast LANs, so it
        is what lets replication-factor differences show up as runtime
        differences (Figure 8 b).
    rounds_per_superstep:
        Synchronous message rounds per superstep; GAS pays one gather round
        (mirror -> master) and one apply round (master -> mirror).
    """

    bandwidth_bytes_per_s: float = 1.25e9  # 10 GbE
    rtt_seconds: float = 0.010
    seconds_per_message: float = 2e-6
    rounds_per_superstep: int = 2

    def __post_init__(self) -> None:
        for name, positive in (
            ("bandwidth_bytes_per_s", True),
            ("rtt_seconds", False),
            ("seconds_per_message", False),
            ("rounds_per_superstep", True),
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
                sign = "positive" if positive else "non-negative"
                raise ValueError(f"{name} must be {sign} and finite, got {value}")

    def comm_seconds(self, num_messages: int, volume_bytes: float) -> float:
        """Wall-clock of one sync phase from a *measured* byte volume:
        the runtime counts messages and payload bytes off its buffers
        and prices them here."""
        return (
            volume_bytes / self.bandwidth_bytes_per_s
            + num_messages * self.seconds_per_message
            + self.rounds_per_superstep * self.rtt_seconds
        )

    def with_rtt(self, rtt_seconds: float) -> "NetworkModel":
        """Copy with a different RTT (the Figure 8(c) sweep)."""
        return replace(self, rtt_seconds=rtt_seconds)

    def with_bandwidth(self, bandwidth_bytes_per_s: float) -> "NetworkModel":
        """Copy with a different bisection bandwidth (Figure 8(c)-style
        bandwidth sweeps)."""
        return replace(self, bandwidth_bytes_per_s=bandwidth_bytes_per_s)
