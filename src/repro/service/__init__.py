"""Meta-telescope-as-a-service: the continuously queryable product.

The paper's Section 9 frames meta-telescope output as *information as
a service*: the value of knowing which /24s are dark lies in being
continuously queryable, not recomputed per question.  This package is
that product surface over the :mod:`repro.core.snapshot` layer:

* :mod:`repro.service.handle` — the atomic-swap
  :class:`SnapshotHandle`: writers publish whole immutable snapshots,
  readers grab the current one with a single attribute read and never
  lock;
* :mod:`repro.service.daemon` — the query engine
  (:class:`MetaTelescopeService`: point / range / AS / geo / diff /
  health, with per-query budgets, load-shed, version-based
  ``ETag``/``If-None-Match`` conditional answers) and the
  stdlib-asyncio HTTP/JSON front end (:class:`ServiceDaemon`), plus
  the :class:`BackgroundFolder` that folds new vantage-days through an
  :class:`~repro.core.online.OnlineMetaTelescope` off the read path
  and publishes fresh snapshots;
* :mod:`repro.service.fleet` — scale-out on one box: the
  :class:`FleetSupervisor` runs N daemon processes on one
  ``SO_REUSEPORT`` port, all serving zero-copy off one memory-mapped
  ``snapshot.fpk`` (publish = atomic file swap + version sentinel),
  restarting dead workers and draining gracefully.

Nothing beyond the standard library is required to serve.
"""

from repro.service.daemon import (
    BackgroundFolder,
    MetaTelescopeService,
    QueryBudget,
    ServiceDaemon,
    run_daemon_in_thread,
)
from repro.service.fleet import FleetSupervisor
from repro.service.handle import SnapshotHandle

__all__ = [
    "BackgroundFolder",
    "FleetSupervisor",
    "MetaTelescopeService",
    "QueryBudget",
    "ServiceDaemon",
    "SnapshotHandle",
    "run_daemon_in_thread",
]
