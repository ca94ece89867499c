"""Discrete-event simulation engine.

The kernel of the virtual-time execution backend, and no more than it uses:
an event queue with a virtual clock (microseconds), one-shot events,
timeouts and ``call_at`` callbacks, processes written as generators that
``yield`` events (and can be interrupted), a mailbox channel, and a
host-core resource model with round-robin time slicing and context-switch
overhead (needed to reproduce the paper's resource-manager core-sharing
effects).  There are no composite (all-of / any-of) events, no failed
events and no partial runs: ``Engine.run()`` drains the queue.
"""

from repro.sim.engine import Engine, Event, Timeout, Interrupt
from repro.sim.process import Process
from repro.sim.resources import FifoResource, HostCore, Mailbox

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "Interrupt",
    "Process",
    "FifoResource",
    "HostCore",
    "Mailbox",
]
