"""Role-based admission control: priority classes as capabilities.

The worker tier treats a submission's priority class as a *request*; at
fleet scale that is an honor system — any client could mark everything
``interactive`` and starve the batch tier.  Following the RBAC model of
Ferraiolo & Kuhn (roles grant operations; subjects act through roles,
never through ad-hoc per-subject grants), the router makes each priority
class an **operation granted to roles**: a submission names a role, the
:class:`AdmissionPolicy` checks that the role holds the requested class,
and a denied submission is refused with :class:`~repro.service.jobs
.AdmissionDeniedError` (HTTP ``403``) before any worker sees it.

The built-in role lattice (override per deployment)::

    operator   -> interactive, batch, background
    user       ->              batch, background
    guest      ->                     background

``default_role`` names the role of submissions that do not identify one.
It defaults to ``operator`` so a single-tenant fleet behaves exactly like
the worker tier (no dormant denials); a multi-tenant deployment passes
``default_role="guest"`` and hands out stronger roles explicitly.
"""

from __future__ import annotations

import re
import threading
from typing import Dict, Iterable, Mapping, Optional, Set, Union

from repro.obs.metrics import MetricsRegistry
from repro.service.jobs import (
    AdmissionDeniedError,
    parse_priority,
    priority_name,
)

#: The built-in role -> granted-priority-class lattice (each class is a
#: capability; higher roles are supersets, per the RBAC hierarchy idea).
DEFAULT_ROLES: Dict[str, tuple] = {
    "operator": ("interactive", "batch", "background"),
    "user": ("batch", "background"),
    "guest": ("background",),
}

#: Folds a role name into a legal metric-name suffix for the per-role
#: submit counters.
_ROLE_SANITIZER = re.compile(r"[^a-z0-9_]")


class AdmissionPolicy:
    """Maps requester roles to the priority classes they may submit.

    ``roles`` maps role name -> iterable of class names (default:
    :data:`DEFAULT_ROLES`); ``default_role`` is assumed when a
    submission carries no role.  Unknown roles are denied outright
    (an unknown principal holds no capabilities).

    The policy's :attr:`metrics` hold the ``repro_fleet_admission_*``
    decision counters and one ``repro_fleet_submits_role_<role>``
    counter per defined role, counting that role's admitted
    submissions — declared here, so a client's role string can never
    create a metric family.
    """

    def __init__(self,
                 roles: Optional[Mapping[str, Iterable[str]]] = None,
                 default_role: str = "operator") -> None:
        source = DEFAULT_ROLES if roles is None else roles
        self._grants: Dict[str, Set[int]] = {
            role.strip().lower(): {parse_priority(name) for name in classes}
            for role, classes in source.items()}
        default_role = default_role.strip().lower()
        if default_role not in self._grants:
            raise ValueError(
                f"default_role {default_role!r} is not a defined role; "
                f"roles are {', '.join(sorted(self._grants))}")
        self._default_role = default_role
        self._lock = threading.Lock()
        self.metrics = MetricsRegistry()
        self._admitted = self.metrics.counter("repro_fleet_admission_admitted")
        self._denied = self.metrics.counter("repro_fleet_admission_denied")
        self._submits = {
            role: self.metrics.counter(
                "repro_fleet_submits_role_" + _ROLE_SANITIZER.sub("_", role))
            for role in self._grants}

    @property
    def default_role(self) -> str:
        return self._default_role

    def roles(self) -> Dict[str, list]:
        """JSON-ready view of the grant table (for ``stats()``)."""
        return {role: sorted(priority_name(p) for p in granted)
                for role, granted in sorted(self._grants.items())}

    def admit(self, role: Optional[str],
              priority: Union[str, int, None]) -> int:
        """Check ``role`` may submit at ``priority``; returns the parsed
        priority number, or raises :class:`AdmissionDeniedError`."""
        parsed = parse_priority(priority)
        role = (self._default_role if role is None
                else str(role).strip().lower())
        granted = self._grants.get(role)
        if granted is None:
            with self._lock:
                self._denied.inc()
            raise AdmissionDeniedError(
                f"unknown role {role!r} holds no priority-class "
                f"capabilities; roles are "
                f"{', '.join(sorted(self._grants))}")
        if parsed not in granted:
            with self._lock:
                self._denied.inc()
            raise AdmissionDeniedError(
                f"role {role!r} is not granted the "
                f"{priority_name(parsed)!r} priority class (granted: "
                f"{', '.join(sorted(priority_name(p) for p in granted))})")
        with self._lock:
            self._admitted.inc()
            self._submits[role].inc()
        return parsed

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return self.metrics.values("repro_fleet_admission_")
