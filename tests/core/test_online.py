"""Tests for the online (rolling-window) meta-telescope."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.rib import Announcement, RouteViewsCollector
from repro.core.metatelescope import MetaTelescope
from repro.core.online import QUARANTINE_DAYS as ENGINE_QUARANTINE_DAYS
from repro.core.online import OnlineMetaTelescope
from repro.core.pipeline import PipelineConfig
from repro.core.snapshot import SNAPSHOT_COLUMNS, build_snapshot
from repro.datasets.liveness import LivenessDataset
from repro.net.ipv4 import Prefix, parse_ip
from repro.vantage.archive import ArchiveDayView, export_view

from _factories import ip, make_view

BASE = parse_ip("20.0.0.0") >> 8


def make_online(**overrides):
    collector = RouteViewsCollector(
        [Announcement(Prefix.parse("20.0.0.0/8"), 65001)]
    )
    telescope = MetaTelescope(collector=collector)
    defaults = dict(
        telescope=telescope,
        window_days=3,
        min_stable_days=2,
        use_spoofing_tolerance=False,
    )
    defaults.update(overrides)
    return OnlineMetaTelescope(**defaults)


def make_world_online(world):
    """A 3-day-window online instance over a generated world."""
    telescope = MetaTelescope(
        collector=world.collector,
        liveness=world.datasets.liveness,
        unrouted_baseline=world.unrouted_baseline_blocks,
        config=PipelineConfig(
            volume_threshold_pkts_day=world.config.volume_threshold_pkts_day
        ),
    )
    return OnlineMetaTelescope(
        telescope=telescope, window_days=3, min_stable_days=2
    )


def day_views(day, blocks=(BASE,), sources=()):
    rows = [{"dst_ip": ip(b)} for b in blocks]
    rows.extend(
        {"src_ip": ip(b, 9), "dst_ip": parse_ip("30.0.0.1"), "packets": 5}
        for b in sources
    )
    return [make_view(rows, vantage="V", day=day)]


class TestOnline:
    def test_first_day_not_yet_stable(self):
        online = make_online()
        update = online.update(0, day_views(0))
        # min_stable_days=2 but only one day seen: required is clamped
        # to the days available, so the block serves immediately.
        assert update.serving_size == 1
        assert BASE in online.current_prefixes()

    def test_stability_requirement(self):
        online = make_online(min_stable_days=2)
        online.update(0, day_views(0, blocks=(BASE,)))
        update = online.update(1, day_views(1, blocks=(BASE, BASE + 1)))
        # BASE seen on both days -> served; BASE+1 on one of two -> not.
        assert BASE in online.current_prefixes()
        assert BASE + 1 not in online.current_prefixes()
        assert update.serving_size == 1

    def test_block_becomes_stable(self):
        online = make_online(min_stable_days=2)
        online.update(0, day_views(0, blocks=(BASE, BASE + 1)))
        update = online.update(1, day_views(1, blocks=(BASE, BASE + 1)))
        assert BASE + 1 in online.current_prefixes()
        assert update.serving_size == 2

    def test_source_sighting_removes_block(self):
        online = make_online(min_stable_days=1)
        online.update(0, day_views(0))
        assert BASE in online.current_prefixes()
        update = online.update(1, day_views(1, sources=(BASE,)))
        # The pooled window now contains a source sighting for BASE.
        assert BASE not in online.current_prefixes()
        assert BASE in update.removed_blocks

    def test_window_slides(self):
        online = make_online(window_days=2, min_stable_days=1)
        online.update(0, day_views(0, sources=(BASE,)))
        online.update(1, day_views(1))
        assert BASE not in online.current_prefixes()  # day-0 sighting in window
        online.update(2, day_views(2))
        # The polluted day slid out of the 2-day window.
        assert BASE in online.current_prefixes()
        assert online.days_in_window() == [1, 2]

    def test_churn_reporting(self):
        online = make_online(min_stable_days=1)
        first = online.update(0, day_views(0, blocks=(BASE,)))
        assert first.added_blocks.tolist() == [BASE]
        second = online.update(1, day_views(1, blocks=(BASE + 1,)))
        assert BASE + 1 in second.added_blocks

    def test_validation(self):
        with pytest.raises(ValueError):
            make_online(window_days=0)
        with pytest.raises(ValueError):
            make_online(min_stable_days=5, window_days=3)
        online = make_online()
        with pytest.raises(ValueError):
            online.update(0, [])

    def test_on_world_views(self, integration_world, integration_observatory):
        online = make_world_online(integration_world)
        sizes = []
        for day in range(4):
            views = list(integration_observatory.day(day).ixp_views.values())
            update = online.update(day, views)
            sizes.append(update.serving_size)
        assert sizes[-1] > 0
        assert online.days_in_window() == [1, 2, 3]


class CountingArchiveView(ArchiveDayView):
    """An archive view that counts passes over its column data."""

    chunk_passes = 0

    def iter_chunks(self, chunk_rows=None):
        self.chunk_passes += 1
        return super().iter_chunks(chunk_rows)


class TestWorldDays:
    """Four micro-world days, from memory and from multi-segment archives."""

    #: Per day: serving size, CRC-32 of the serving list, delivered
    #: rows, estimated packets and feed score, recorded at commit
    #: 5dd4f5d with the dense spoofing tolerance and duplicate scorer.
    PINNED = [
        (278, 996502029, 18320, 505292.0, 1.0),
        (217, 1326690775, 16390, 490448.0, 0.9706229269412537),
        (278, 1048652114, 16989, 493974.0, 0.9921746640689336),
        (277, 2016899384, 16360, 487264.0, 0.9864162891164312),
    ]

    def test_serving_quality_and_health_are_unchanged(
        self, world, observatory, tmp_path
    ):
        memory, archived = make_world_online(world), make_world_online(world)
        for day, pinned in enumerate(self.PINNED):
            views = list(observatory.day(day).ixp_views.values())
            stored = []
            for view in views:
                path = tmp_path / f"{view.vantage}-d{day}.fpk"
                export_view(view, path, chunk_rows=500)
                stored.append(
                    CountingArchiveView(
                        vantage=view.vantage,
                        day=day,
                        path=path,
                        sampling_factor=view.sampling_factor,
                    )
                )
            update = memory.update(day, views)
            from_archives = archived.update(day, stored)

            quality = update.quality
            assert (
                update.serving_size,
                zlib.crc32(memory.current_prefixes().tobytes()),
                quality.total_flows,
                quality.estimated_packets,
                quality.score,
            ) == pinned
            assert (quality.duplicate_fraction, quality.invalid_fraction) == (0, 0)
            assert quality.reasons == ()
            assert from_archives.quality == quality
            assert np.array_equal(
                archived.current_prefixes(), memory.current_prefixes()
            )
            # The score sums packets off view.flows, which its duplicate
            # and validity checks load anyway; one chunk pass folds the
            # day, and learning the volume baseline re-reads nothing.
            assert [view.chunk_passes for view in stored] == [1] * len(stored)
        assert archived._volume_history == [row[3] for row in self.PINNED]
        assert archived.health_report().records == memory.health_report().records
        assert memory.health_report().summary() == (
            "4 day(s) processed (4 inferred); serving 277 prefixes, "
            "staleness 0 day(s), 0 quarantined"
        )


# ---------------------------------------------------------------------------
# the engine against a from-scratch, two-inferences-a-day reference
# ---------------------------------------------------------------------------

#: Unrouted (outside 20.0.0.0/8) blocks the spoofing tolerance pools.
UNROUTED = parse_ip("30.0.0.0") >> 8
#: Clean days a block flapping under a degraded feed sits out.
QUARANTINE_DAYS = 2


def reference_telescope():
    return MetaTelescope(
        collector=RouteViewsCollector(
            [Announcement(Prefix.parse("20.0.0.0/8"), 65001)]
        ),
        liveness=[LivenessDataset("probe", np.array([BASE + 1, BASE + 4]))],
        unrouted_baseline=UNROUTED + np.arange(4),
    )


class TwoInferenceReference:
    """The online window the slow way: every folded day is inferred on
    its own views (unrefined), and the window's views are re-folded from
    scratch and inferred (refined) — no accumulator is kept or merged.
    Which days fold comes from the engine's action (feed scoring is
    not under test here)."""

    def __init__(self, telescope, window_days, min_stable_days):
        self.telescope = telescope
        self.window_days = window_days
        self.min_stable_days = min_stable_days
        self.window: list[tuple[int, list]] = []
        self.daily: list[tuple[int, np.ndarray]] = []
        self.quarantine: dict[int, int] = {}
        self.serving: set[int] = set()
        self.result = None

    def infer(self, views, refine):
        return self.telescope.infer_accumulated(
            self.telescope.accumulate(views),
            use_spoofing_tolerance=True,
            refine=refine,
        )

    def step(self, day, views, action):
        """Returns ``(added, removed)`` as sorted lists."""
        if action in ("carried", "skipped"):
            return [], []
        previous = self.daily[-1][1] if self.daily else None
        dark = self.infer(views, refine=False).pipeline.dark_blocks
        self.window = (self.window + [(day, views)])[-self.window_days:]
        self.daily = (self.daily + [(day, dark)])[-self.window_days:]
        if action == "degraded":
            if previous is not None:
                for block in set(dark.tolist()) ^ set(previous.tolist()):
                    self.quarantine[block] = QUARANTINE_DAYS
        else:
            self.quarantine = {
                block: left - 1
                for block, left in self.quarantine.items()
                if left > 1
            }
        self.result = self.infer(
            [view for _, day_views in self.window for view in day_views],
            refine=True,
        )
        required = min(self.min_stable_days, len(self.daily))
        stable = {
            block
            for block in set().union(*(d.tolist() for _, d in self.daily))
            if sum(block in set(d.tolist()) for _, d in self.daily) >= required
        }
        serving = (
            set(self.result.prefixes.tolist()) & stable
        ) - set(self.quarantine)
        added = sorted(serving - self.serving)
        removed = sorted(self.serving - serving)
        self.serving = serving
        return added, removed

    def snapshot(self, day):
        pipeline = self.result.pipeline
        served = np.array(sorted(self.serving), dtype=np.int64)
        return build_snapshot(
            day=day,
            dark=served,
            unclean=pipeline.unclean_blocks,
            gray=pipeline.gray_blocks,
            candidate=np.setdiff1d(pipeline.dark_blocks, served),
            history=self.daily,
        )


#: One flow row: (dst block offset, host, packets, bytes per packet,
#: source: None (an outside sender), a block offset (a sighting inside
#: the telescope's space) or "unrouted" (pollution the tolerance pools)).
FLOW_ROWS = st.tuples(
    st.integers(0, 5),
    st.integers(1, 3),
    st.integers(1, 4),
    st.sampled_from([40, 40, 52, 120]),
    st.one_of(st.none(), st.integers(0, 5), st.just("unrouted")),
)


def drawn_view(vantage, day, rows):
    flows = []
    for block, host, packets, size, source in rows:
        row = {"dst_ip": ip(BASE + block, host), "packets": packets,
               "bytes": packets * size}
        if source == "unrouted":
            row["src_ip"] = ip(UNROUTED + host, 9)
        elif source is not None:
            row["src_ip"] = ip(BASE + source, 9)
        flows.append(row)
    return make_view(flows, vantage=vantage, day=day)


@st.composite
def online_runs(draw):
    policy = draw(st.sampled_from(["strict", "carry"]))
    window_days = draw(st.integers(1, 3))
    min_stable_days = draw(st.integers(1, window_days))
    fewest = 1 if policy == "strict" else 0
    days = draw(
        st.lists(
            st.lists(st.lists(FLOW_ROWS, min_size=1, max_size=10),
                     min_size=fewest, max_size=2),
            min_size=1, max_size=5,
        )
    )
    return policy, window_days, min_stable_days, days


@settings(max_examples=40, deadline=None)
@given(online_runs())
def test_engine_matches_a_from_scratch_window_reference(run):
    policy, window_days, min_stable_days, days = run
    assert ENGINE_QUARANTINE_DAYS == QUARANTINE_DAYS  # the reference mirrors it
    online = OnlineMetaTelescope(
        telescope=reference_telescope(),
        window_days=window_days,
        min_stable_days=min_stable_days,
        policy=policy,
    )
    reference = TwoInferenceReference(
        reference_telescope(), window_days, min_stable_days
    )
    for day, vantages in enumerate(days):
        views = [
            drawn_view(name, day, rows)
            for name, rows in zip(("A", "B"), vantages)
        ]
        update = online.update(day, views)
        added, removed = reference.step(day, views, update.action)
        assert update.added_blocks.tolist() == added
        assert update.removed_blocks.tolist() == removed
        assert online.current_prefixes().tolist() == sorted(reference.serving)
        assert update.quarantined_blocks.tolist() == sorted(reference.quarantine)
        if update.action in ("carried", "skipped"):
            continue
        ours = online.snapshot().arrays()
        theirs = reference.snapshot(day).arrays()
        for name in SNAPSHOT_COLUMNS:
            assert np.array_equal(ours[name], theirs[name]), name
        # A window holding only the new day infers it once.
        scopes = [
            event.scope for event in online.last_run_context().events(["stage"])
        ]
        if len(reference.window) == 1:
            assert scopes == ["window"] * 7
        else:
            assert scopes == ["day"] * 7 + ["window"] * 7
