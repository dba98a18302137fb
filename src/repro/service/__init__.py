"""repro.service — the networked checkpoint farm.

Turns the local :mod:`repro.farm` into a shared service:

- :mod:`repro.service.ring` / :mod:`repro.service.shards` — the
  content-addressed block pool spread over N shard roots by consistent
  hashing, with read-repair, scrub, and rebalance;
- :mod:`repro.service.scheduler` — the bounded, fair-share, lease-based
  work queue;
- :mod:`repro.service.protocol` — length-prefixed JSON frames with
  idempotent request ids;
- :mod:`repro.service.server` / :mod:`repro.service.client` /
  :mod:`repro.service.worker` — the asyncio endpoint, the blocking
  client, and the pull-based worker loop;
- :mod:`repro.service.campaign` — the service executor behind the one
  DAG scheduler, bit-identical to ``farm run``.
"""

from repro.service.campaign import ServiceCampaignRunner, run_service_campaign
from repro.service.client import (
    ServiceBusy,
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
    connect,
)
from repro.service.protocol import ProtocolError
from repro.service.ring import HashRing
from repro.service.scheduler import (
    FairShareScheduler,
    LeaseLost,
    QueueFull,
    ServiceJob,
    UnknownJob,
)
from repro.service.server import CheckpointServer, ServerThread, serve
from repro.service.shards import SHARDS_MARKER, ShardedStore, shard_names
from repro.service.worker import ServiceWorker, worker_main

__all__ = [
    "CheckpointServer",
    "FairShareScheduler",
    "HashRing",
    "LeaseLost",
    "ProtocolError",
    "QueueFull",
    "SHARDS_MARKER",
    "ServerThread",
    "ServiceBusy",
    "ServiceCampaignRunner",
    "ServiceClient",
    "ServiceError",
    "ServiceJob",
    "ServiceUnavailable",
    "ServiceWorker",
    "ShardedStore",
    "UnknownJob",
    "connect",
    "run_service_campaign",
    "serve",
    "shard_names",
    "worker_main",
]
