"""Discrete-event simulation engine.

The kernel of the virtual-time execution backend: an event queue of bare
callables with a virtual clock (microseconds), ``call_at`` callbacks, and a
host-core resource model with round-robin time slicing and context-switch
overhead (needed to reproduce the paper's resource-manager core-sharing
effects), charged through per-owner callback state machines.  One-shot
events, timeouts, processes written as generators that ``yield`` events
(and can be interrupted) and a mailbox channel between them remain for the
measurement spine's probes and the tests; the virtual backend uses none of
them.  There are no composite (all-of / any-of) events, no failed events
and no partial runs: ``Engine.run()`` drains the queue.
"""

from repro.sim.engine import Engine, Event, Timeout, Interrupt
from repro.sim.process import Process
from repro.sim.resources import HostCore, Mailbox

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "Interrupt",
    "Process",
    "HostCore",
    "Mailbox",
]
