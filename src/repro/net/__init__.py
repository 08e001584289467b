"""A deterministic message-level network simulator.

The paper's distributed experiments ran every FreePastry node on a single
server and injected "a delay of at least 500 microseconds ... to every
message (and reply) transmission"; cost there was dominated by message
count.  This package reproduces that regime deterministically:

* :class:`repro.net.simnet.Network` — synchronous FIFO message delivery
  between named nodes, charging a configurable latency per message and
  counting every message sent;
* :class:`repro.net.simnet.Node` — base class for protocol participants;
* :class:`repro.net.ring.HashRing` — consistent hashing used by the DHT
  store to map logical roles (epoch allocator, epoch controllers,
  transaction controllers, ...) onto physical peers;
* :class:`repro.net.faults.FaultPlan` /
  :class:`repro.net.faults.FaultInjector` — declarative, seeded fault
  schedules (message drops, duplicates, latency spikes, host crashes,
  participant restarts) and the deterministic simnet-side executor;
* :class:`repro.net.clock.LatencyClock` — the seam between charged
  (simulated) latency and wall time:
  :class:`~repro.net.clock.BlockingLatencyClock` blocks the calling
  thread, :class:`~repro.net.clock.AsyncLatencyClock` accrues debt per
  participant, which the asyncio epoch scheduler makes only it wait out.
"""

from repro.net.clock import (
    AsyncLatencyClock,
    BlockingLatencyClock,
    LatencyClock,
)
from repro.net.faults import (
    FaultInjector,
    FaultPlan,
    HostCrash,
    MessageFault,
    ParticipantRestart,
)
from repro.net.ring import HashRing
from repro.net.simnet import Message, Network, Node

__all__ = [
    "AsyncLatencyClock",
    "BlockingLatencyClock",
    "FaultInjector",
    "FaultPlan",
    "HashRing",
    "HostCrash",
    "LatencyClock",
    "Message",
    "MessageFault",
    "Network",
    "Node",
    "ParticipantRestart",
]
