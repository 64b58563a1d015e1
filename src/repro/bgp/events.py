"""Mid-campaign routing events: leaks, hijacks, and their RIB view.

The paper's step 5 consumes daily RIB unions from a Route Views
collector, and its operational sections warn that routing is the one
input the operator cannot freeze: a route leak or an origin hijack
mid-campaign moves destination blocks to a different origin AS — and
with it, to different IXP fabrics — without any change in what the
space truly is.  This module makes such events first-class:

* :class:`RouteEvent` declares one leak/hijack — a more-specific
  announcement by another origin over a window of days;
* :class:`EventedCollector` wraps any collector so the event's
  announcement appears in the affected days' RIB dumps, exactly as a
  collector peer would have recorded it.

The *traffic* side of an event (flows toward the affected prefix being
steered through the leaking AS) lives with the world scenarios in
:mod:`repro.world.scenarios`, next to the other world events.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bgp.rib import Announcement, RoutingTable
from repro.net.ipv4 import Prefix


@dataclass(frozen=True, slots=True)
class RouteEvent:
    """One route leak or origin hijack over a window of days.

    ``kind`` is ``"leak"`` (the legitimate origin's routes propagate
    through an unexpected path) or ``"hijack"`` (another origin
    announces the space).  Either way the collector records an extra
    announcement of ``prefix`` by ``by_asn`` on every day in ``days``.
    """

    prefix: Prefix
    by_asn: int
    days: frozenset[int]
    kind: str = "leak"

    def __post_init__(self) -> None:
        if self.kind not in ("leak", "hijack"):
            raise ValueError(f"unknown route event kind {self.kind!r}")

    def announcement(self) -> Announcement:
        """The extra announcement the collector sees on event days."""
        # Leaked/hijacked more-specifics flap across dumps — they are
        # propagation accidents, not stable policy.
        return Announcement(
            prefix=self.prefix, origin_asn=self.by_asn, stable=False
        )

    def active_on(self, day: int) -> bool:
        """Whether the event is in effect on ``day``."""
        return day in self.days


class EventedCollector:
    """A collector proxy that injects route events into daily RIBs.

    Wraps any object with the ``daily_table`` collector interface; on a
    day an event is active, its announcement joins the union as if a
    peer had exported it.
    """

    def __init__(self, base, events: list[RouteEvent]) -> None:
        self._base = base
        self.events = tuple(events)

    def _extra(self, day: int) -> list[Announcement]:
        return [
            event.announcement()
            for event in self.events
            if event.active_on(day)
        ]

    def daily_table(self, day: int) -> RoutingTable:
        """Union RIB for the day, with active events folded in."""
        base = self._base.daily_table(day)
        extra = self._extra(day)
        if not extra:
            return base
        return RoutingTable([*base.announcements, *extra])
