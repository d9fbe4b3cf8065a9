"""Multi-tenant Apophenia: many token streams, one mining backend.

The paper's system serves one application; the service layer serves many
concurrent application *sessions* from one process without duplicating
executors, memos, or schedulers:

* :class:`SharedJobExecutor` (from :mod:`repro.core.jobs`) -- the shared
  mining scheduler: per-session lanes, a priority/fair schedule, a
  cross-session window memo, and an outstanding-job budget;
* :mod:`repro.service.service` -- :class:`ApopheniaService`: session
  admission, LRU eviction, and per-task routing;
* :mod:`repro.service.replicated` -- :class:`ReplicatedBackend`: each
  session served by N control-replicated node processors sharing one
  per-session ingestion coordinator (Section 5.1), behind the same
  :class:`repro.api.TracingBackend` surface.

The whole layer is decision-neutral by construction: every session's
tbegin/tend stream is byte-identical to running its application alone
(see :mod:`repro.core.jobs` for the argument, and
``tests/test_service.py`` for the property tests).
"""

from repro.core.jobs import SharedJobExecutor
from repro.service.replicated import ReplicatedBackend, ReplicatedSessionHandle
from repro.service.service import ApopheniaService, SessionHandle

__all__ = [
    "ApopheniaService",
    "ReplicatedBackend",
    "ReplicatedSessionHandle",
    "SessionHandle",
    "SharedJobExecutor",
]
