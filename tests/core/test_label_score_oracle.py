"""Property tests: Table 3's labels and the confidence scores, read off
the accumulator, agree with a naive dict-and-loop reading of the flows.

The oracle walks each generated view row by row with plain ``dict``s
and ``set``s — no numpy grouping, nothing from the engine — so a bug
shared by the fold and its readers cannot hide behind a comparison of
the engine with itself.
"""

import statistics

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.confidence import score_prefixes
from repro.core.pipeline import PipelineConfig
from repro.core.thresholds import label_isp_blocks
from repro.traffic.packets import PROTO_TCP, PROTO_UDP

from _factories import fold, ip, make_view

ISP_BLOCKS = (100, 101, 102, 103)
BLOCKS = ISP_BLOCKS + (200, 201)

rows = st.fixed_dictionaries(
    {
        "src_ip": st.builds(
            ip, st.sampled_from(BLOCKS), st.integers(min_value=1, max_value=3)
        ),
        "dst_ip": st.builds(
            ip, st.sampled_from(BLOCKS), st.integers(min_value=1, max_value=20)
        ),
        "proto": st.sampled_from([PROTO_TCP, PROTO_UDP]),
        "packets": st.integers(min_value=0, max_value=40),
    }
)


@st.composite
def windows(draw):
    """Views of one to three days from one or two vantages; a block
    is often absent on some of the days."""
    days = draw(
        st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3,
                 unique=True)
    )
    views = []
    for vantage in draw(
        st.lists(st.sampled_from("AB"), min_size=1, max_size=2, unique=True)
    ):
        for day in days:
            views.append(
                make_view(
                    draw(st.lists(rows, max_size=15)),
                    vantage=vantage,
                    day=day,
                    sampling_factor=draw(st.sampled_from([1.0, 2.0, 16.0])),
                )
            )
    return views


def rows_of(view):
    flows = view.flows
    return zip(
        flows.src_ip.tolist(), flows.dst_ip.tolist(), flows.packets.tolist()
    )


def naive_labels(views, isp_blocks, cut):
    """Received, active, dark and excluded ISP blocks, by hand."""
    received = set()
    originated = {}
    for view in views:
        for src, dst, packets in rows_of(view):
            if dst >> 8 in isp_blocks:
                received.add(dst >> 8)
            if src >> 8 in isp_blocks:
                originated[src >> 8] = originated.get(src >> 8, 0) + packets
    active = {block for block, sent in originated.items() if sent >= cut}
    weak = set(originated) - active
    return {
        "receiving": sorted(received),
        "active": sorted(active & received),
        "dark": sorted(received - active - weak),
        "excluded": sorted(weak & received),
    }


def naive_observation(views, blocks, saturation_ips):
    seen = {}
    for view in views:
        for _, dst, _ in rows_of(view):
            seen.setdefault(dst >> 8, set()).add(dst)
    return [
        min(len(seen.get(block, ())), saturation_ips) / saturation_ips
        for block in blocks
    ]


def naive_daily_medians(views, blocks):
    """Median over the window's days of each block's estimated packets;
    a day the block saw nothing counts as 0."""
    volume = {view.day: {} for view in views}
    for view in views:
        day = volume[view.day]
        for _, dst, packets in rows_of(view):
            day[dst >> 8] = day.get(dst >> 8, 0.0) + packets * view.sampling_factor
    return [
        statistics.median(day.get(block, 0.0) for day in volume.values())
        for block in blocks
    ]


class TestLabelsMatchTheNaiveReading:
    @given(
        windows(),
        st.sampled_from([1, 10, 40, 10_000]),
        st.sampled_from([None, 1, 4]),
    )
    @settings(max_examples=80, deadline=None)
    def test_label_sets(self, views, cut, chunk_size):
        labels = label_isp_blocks(
            fold(views, chunk_size=chunk_size), list(ISP_BLOCKS), cut
        )
        expected = naive_labels(views, set(ISP_BLOCKS), cut)
        assert labels.receiving_blocks.tolist() == expected["receiving"]
        assert labels.active_blocks.tolist() == expected["active"]
        assert labels.dark_blocks.tolist() == expected["dark"]
        assert labels.excluded_blocks.tolist() == expected["excluded"]


class TestScoresMatchTheNaiveReading:
    @given(
        windows(),
        st.lists(st.sampled_from(BLOCKS + (300,)), min_size=1, unique=True),
        st.sampled_from([5.0, 60.0, 0.0]),
        st.sampled_from([1, 4, 16]),
        st.sampled_from([None, 3]),
    )
    @settings(max_examples=80, deadline=None)
    def test_observation_margin_and_recurrence(
        self, views, dark, threshold, saturation_ips, chunk_size
    ):
        days = sorted({view.day for view in views})
        daily_dark = {day: dark[: 1 + day % len(dark)] for day in days}
        scores = score_prefixes(
            dark,
            fold(views, chunk_size=chunk_size),
            daily_dark,
            config=PipelineConfig(volume_threshold_pkts_day=threshold),
            saturation_ips=saturation_ips,
        )
        blocks = sorted(dark)
        assert scores.blocks.tolist() == blocks
        assert scores.observation.tolist() == naive_observation(
            views, blocks, saturation_ips
        )
        medians = naive_daily_medians(views, blocks)
        assert scores.margin.tolist() == [
            max(0.0, 1.0 - median / threshold) if threshold else 0.0
            for median in medians
        ]
        assert scores.recurrence.tolist() == [
            sum(block in daily_dark[day] for day in days) / len(days)
            for block in blocks
        ]
