"""``serve``'s feed over 120 days holds constant resources.

The feed folds micro days from a warm capture cache, as ``serve
--capture-cache`` does, through ``cli._feed_publisher`` itself.  Each
recalled day maps one archive per vantage (one file descriptor each
under CPython 3.11), so a feed that kept every day it served would
hold 18 more descriptors a day and fail near day 56 under the common
1 024 ``RLIMIT_NOFILE``.  After warm-up the open descriptors, the
observatory's retained days and the telescope's routing-cache entries
must not change from one day to the next, and the resident set may not
grow by more than :data:`RSS_GROWTH_BOUND` (without the bound it grew
about 1.25 MiB a day).
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro import cli
from repro.service.daemon import MetaTelescopeService
from repro.world.builder import build_world
from repro.world.capture_cache import CaptureCache
from repro.world.config import micro_config
from repro.world.observe import Observatory

DAYS = 120
#: Distinct simulated days; every other day's cache entries reuse one
#: of them under its own day number (generating 120 days would cost
#: ~16 s, and the resources under test do not depend on the traffic).
GENERATED = 4
WARM_UP = 10
#: Allowed RSS growth from day ``WARM_UP`` to the last day: allocator
#: noise, far below the ~140 MiB an unbounded feed adds over those days.
RSS_GROWTH_BOUND = 8 << 20
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


def resident_bytes() -> int:
    """This process's resident set size, from ``/proc/self/statm``."""
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * PAGE_BYTES


def warm_cache(config, root) -> None:
    """Cache entries for every vantage of days ``0 .. DAYS-1``."""
    cache = CaptureCache(root)
    observatory = Observatory(build_world(config))
    for source in range(GENERATED):
        observation = observatory.day(source)
        views = [
            *observation.ixp_views.values(),
            *observation.telescope_views.values(),
            observation.isp_view,
        ]
        for day in range(source, DAYS, GENERATED):
            for view in views:
                cache.store(
                    cache.key_for(config, day, view.vantage),
                    dataclasses.replace(view, day=day),
                )


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
def test_a_served_feed_holds_constant_resources(tmp_path, monkeypatch, capsys):
    config = dataclasses.replace(micro_config(3), num_days=DAYS)
    warm_cache(config, tmp_path / "cache")
    monkeypatch.setitem(cli._CONFIGS, "micro", lambda seed: config)
    built = {}
    build = cli._build

    def recording_build(args):
        built["world"], built["observatory"], built["telescope"], context = (
            build(args)
        )
        return built["world"], built["observatory"], built["telescope"], context

    monkeypatch.setattr(cli, "_build", recording_build)
    samples = []

    class Sampled(MetaTelescopeService):
        def publish(self, snapshot, *rest, **kwargs):
            published = super().publish(snapshot, *rest, **kwargs)
            samples.append((
                len(os.listdir("/proc/self/fd")),
                sorted(built["observatory"]._days),
                len(built["telescope"]._routing_cache),
                resident_bytes(),
            ))
            return published

    args = cli.build_parser().parse_args([
        "serve", "--scale", "micro", "--days", str(DAYS), "--port", "0",
        "--capture-cache", str(tmp_path / "cache"),
    ])
    cli._feed_publisher(
        args, lambda context, **shared: Sampled(context=context, **shared)
    )
    capsys.readouterr()
    assert len(samples) == DAYS
    descriptors = {fds for fds, _, _, _ in samples[WARM_UP:]}
    assert len(descriptors) == 1, sorted(descriptors)
    retained = {len(days) for _, days, _, _ in samples[WARM_UP:]}
    assert retained == {4}, retained  # the window's three and today's
    assert samples[-1][1] == list(range(DAYS - 4, DAYS))
    routing = {entries for _, _, entries, _ in samples[WARM_UP:]}
    assert len(routing) == 1, sorted(routing)
    growth = samples[-1][3] - samples[WARM_UP][3]
    assert growth < RSS_GROWTH_BOUND, f"RSS grew {growth / 2**20:.1f} MiB"
