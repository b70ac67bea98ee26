"""Characterization-as-a-service over the five-level cache.

The ROADMAP's top open item: a long-running HTTP service (stdlib
``ThreadingHTTPServer``, no new dependencies) exposing
characterize/HPC/phases/dataset over the existing ``cached_*`` stack,
engineered robustness-first.  Every failure mode has a fixed, tested
policy (the service analogue of the PR 6 cache semantics):

============================  =====================================
condition                     response
============================  =====================================
warm recipe-keyed hit         200 immediately (no queueing)
cold work                     202 + job id, poll/wait endpoints
admission queue full          429 + ``Retry-After`` (bounded memory)
deadline overrun              504; watchdog expires overdue jobs
worker casualty               retried with backoff + jitter
breaker open (repeat crash)   503 + ``Retry-After`` on cold work
cache directory degraded      compute-without-cache, still 200/202
draining (SIGTERM)            503 on new work; in-flight finishes
============================  =====================================

Modules: :mod:`~repro.service.app` (service core + payload builders),
:mod:`~repro.service.routes` (HTTP transport + ``serve``),
:mod:`~repro.service.queue` (bounded admission + watchdog),
:mod:`~repro.service.breaker` (circuit breaker),
:mod:`~repro.service.jobs` (job lifecycle/registry),
:mod:`~repro.service.health` (liveness/readiness bodies).
"""

from .app import (
    CharacterizationService,
    ServiceSettings,
    characterize_payload,
    dataset_payload,
    hpc_payload,
    phases_payload,
)
from .breaker import CircuitBreaker
from .jobs import Job, JobRegistry
from .queue import ServiceQueue
from .routes import ServiceHTTPServer, make_server, serve

__all__ = [
    "CharacterizationService",
    "CircuitBreaker",
    "Job",
    "JobRegistry",
    "ServiceHTTPServer",
    "ServiceQueue",
    "ServiceSettings",
    "characterize_payload",
    "dataset_payload",
    "hpc_payload",
    "make_server",
    "phases_payload",
    "serve",
]
