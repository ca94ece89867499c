"""Distributed sweep service: sharded multi-worker DSE campaigns.

There is one campaign entry point, :func:`repro.dse.runner.run_campaign`;
who executes the cells is chosen by three of its arguments:

=============  ==============================================================
``jobs=N``     this process, inline or on a local process pool (the default)
``workers=N``  a fleet coordinated through the campaign directory: N spawned
               workers plus any attached with ``sweep-worker --out DIR``
``server=EP``  the same fleet attached to a ``sweep-server`` over TCP
=============  ==============================================================

This package is the coordination/transport layer behind the last two:
it shards cells across any number of independent worker processes — same
host, many hosts over a shared filesystem, or fleets with *no* shared
mount speaking TCP to a queue server:

* :mod:`repro.dse.distrib.leases` — NFS-safe lease primitives
  (hardlink acquire, mtime heartbeat, owner-checked release,
  rename-arbitrated stale break);
* :mod:`repro.dse.distrib.queue` — the campaign directory's layout, the
  one place its file names are spelled: the manifest (and the lease ttl
  and attempt budget read from it), failure records, heartbeats and the
  stop flag as plain functions;
* :mod:`repro.dse.distrib.store` —
  :class:`~repro.dse.distrib.store.CampaignStore`, the one owner of a
  campaign directory's durable state (canonical journal and completed
  set, result cache, cache pass, fresh-campaign reset, index refresh):
  built by ``run_campaign``, by the server and by ``merge_once``, never
  by a worker;
* :mod:`repro.dse.distrib.transport` — the
  :class:`~repro.dse.distrib.transport.WorkerTransport` interface both
  protocols implement, with the directory protocol's worker side behind
  it (:class:`~repro.dse.distrib.transport.FsTransport`, bit-identical
  on disk) and the shard merge the store folds its shards with;
* :mod:`repro.dse.distrib.net` — the network transport: a
  dependency-free TCP queue server (``dssoc-emulate sweep-server``),
  framed-JSON client with retry/backoff and idempotency tokens, and a
  worker-local result spool for partitions;
* :mod:`repro.dse.distrib.worker` — the transport-agnostic worker loop
  (``dssoc-emulate sweep-worker``);
* :mod:`repro.dse.distrib.coordinator` — the one fleet loop
  ``run_campaign`` runs for ``workers=``/``server=``: spawn, poll, fold,
  liveness, shutdown (``dssoc-emulate sweep --workers N`` and
  ``sweep --server HOST:PORT``);
* :mod:`repro.dse.distrib.status` — live campaign status
  (``dssoc-emulate sweep --status``).

See ``docs/distributed.md`` for the architecture, the lease protocol,
the wire protocol, and the failure matrix.
"""

from repro.dse.distrib.coordinator import merge_once, run_fleet
from repro.dse.distrib.leases import LeaseDir, LeaseInfo
from repro.dse.distrib.queue import (
    DEFAULT_LEASE_TTL_S,
    DistribError,
    default_worker_id,
    load_manifest,
    manifest_cells,
    write_manifest,
)
from repro.dse.distrib.status import campaign_snapshot, render_status, status_line
from repro.dse.distrib.store import CampaignStore
from repro.dse.distrib.transport import (
    ClaimReply,
    FsTransport,
    ShardMerger,
    TransportError,
    WorkerTransport,
)
from repro.dse.distrib.worker import WorkerSummary, run_worker

__all__ = [
    "DEFAULT_LEASE_TTL_S",
    "CampaignStore",
    "ClaimReply",
    "DistribError",
    "FsTransport",
    "LeaseDir",
    "LeaseInfo",
    "ShardMerger",
    "TransportError",
    "WorkerSummary",
    "WorkerTransport",
    "campaign_snapshot",
    "default_worker_id",
    "load_manifest",
    "manifest_cells",
    "merge_once",
    "render_status",
    "run_fleet",
    "run_worker",
    "status_line",
    "write_manifest",
]
