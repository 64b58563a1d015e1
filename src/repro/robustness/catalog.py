"""The adversarial scenario catalog.

Each :class:`Scenario` bundles a world-building recipe, the scenario's
ground truth (targeted blocks and/or day-active overrides), and its
:class:`~repro.robustness.envelope.Envelope` of expected degradation.
The catalog covers the adversaries and events the paper's operational
sections worry about:

``padded-evasive``
    A scanner that pads its TCP probes above the 44-byte IBR
    fingerprint (step 2's filter).  Expected: every targeted dark /24
    leaves the inferred set — the *lower* bound on that miss rate is
    what catches a regression weakening the packet-size filter.
``targeted-spoof-flip``
    A spoofing flood impersonating specific dark /24s to flip them
    dark→gray through the source-seen test (the surgical Figure-9
    attack).  Expected: the targeted blocks leave the set, nothing
    else moves.
``epidemic-outbreak``
    A Mirai-style outbreak with logistic infection growth.  Benign but
    violent illumination: coverage and FNR may *improve*; FPR must not.
``route-leak``
    A mid-campaign leak of a dark-heavy /16 toward a backbone AS: the
    blocks move between vantages (routing and traffic alike) while the
    space itself is unchanged.  Expected: near-zero envelope.
``flash-reactivation``
    A provider lights up a dark /16 mid-campaign with production
    traffic.  The blocks become day-active overrides: the classifier
    must stop serving them (high miss rate by design).

Every random choice is drawn from ``config.child_rng("scenario-…")``
streams, so a catalog's ground truth is a pure function of the world
seed — pinned by the seed-stability tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.bgp.events import EventedCollector, RouteEvent
from repro.net.ipv4 import Prefix
from repro.robustness.envelope import Bounds, Envelope, EvaluationSettings
from repro.traffic.epidemic import EpidemicOutbreakActor
from repro.traffic.evasion import PaddedEvasiveScanner
from repro.traffic.scanners import make_sources
from repro.traffic.spoofing import TargetedSpoofFlood
from repro.world.builder import World, build_world
from repro.world.config import WorldConfig
from repro.world.ground_truth import BlockState
from repro.world.scenarios import FlashReactivation, SteeredTrafficMix


@dataclass(frozen=True)
class ScenarioWorld:
    """A built scenario: the (fresh, mutated) world plus ground truth."""

    world: World
    #: Blocks the adversary aims at; scored as the absolute
    #: ``target_miss_rate`` (None: the scenario has no target list).
    target_blocks: np.ndarray | None = None
    #: Blocks that truly became active mid-campaign (flash events);
    #: serving them is a false positive, dropping them is correct.
    active_overrides: np.ndarray | None = None
    detail: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    """One catalog entry: recipe, ground truth and envelope."""

    name: str
    summary: str
    config: WorldConfig
    envelope: Envelope
    builder: Callable[[WorldConfig, EvaluationSettings], ScenarioWorld]

    def build(self, settings: EvaluationSettings) -> ScenarioWorld:
        """Build a fresh world with this scenario applied."""
        return self.builder(self.config, settings)


# -- shared ingredients ------------------------------------------------


def _dark_pool(world: World) -> np.ndarray:
    """Plain-dark /24s — adversary targets never include telescope
    space, so telescope coverage stays a clean scenario metric."""
    return world.index.blocks_in_state(BlockState.DARK)


def _active_pool(world: World) -> tuple[np.ndarray, np.ndarray]:
    active = world.index.truly_active_blocks()
    return active, world.index.asn_of(active)


def _attacker_asns(world: World) -> np.ndarray:
    attackers = np.array(
        [a.asn for a in world.registry if not a.spoof_filtered],
        dtype=np.int32,
    )
    if len(attackers) == 0:
        attackers = np.array(
            [next(iter(world.registry)).asn], dtype=np.int32
        )
    return attackers


def _source_arrays(sources) -> tuple[np.ndarray, np.ndarray]:
    ips = np.array([s.ip for s in sources], dtype=np.uint32)
    asns = np.array([s.asn for s in sources], dtype=np.int32)
    return ips, asns


def _sample_blocks(
    pool: np.ndarray, count: int, rng: np.random.Generator
) -> np.ndarray:
    count = min(count, len(pool))
    if count <= 0:
        raise ValueError("scenario needs a non-empty block pool")
    return np.sort(rng.choice(pool, size=count, replace=False))


def _top_slash16(blocks: np.ndarray) -> int:
    """The /16 index holding the most of ``blocks``."""
    anchors, counts = np.unique(blocks >> 8, return_counts=True)
    return int(anchors[np.argmax(counts)])


# -- scenario builders -------------------------------------------------


def build_padded_evasive(
    config: WorldConfig, settings: EvaluationSettings
) -> ScenarioWorld:
    """A padded scanner sweeping a sample of the dark space."""
    world = build_world(config)
    rng = config.child_rng("scenario-padded-evasive")
    dark = _dark_pool(world)
    targets = _sample_blocks(dark, max(8, min(96, len(dark) // 4)), rng)
    active, active_asns = _active_pool(world)
    sources = make_sources(active, active_asns, 24, rng)
    world.mix.add(
        PaddedEvasiveScanner(
            sources=sources,
            target_blocks=targets,
            pkts_per_block_day=140.0,
        )
    )
    return ScenarioWorld(
        world=world,
        target_blocks=targets,
        detail={"targets": len(targets), "sources": len(sources)},
    )


def build_targeted_spoof_flip(
    config: WorldConfig, settings: EvaluationSettings
) -> ScenarioWorld:
    """A spoofing flood impersonating a sample of dark /24s."""
    world = build_world(config)
    rng = config.child_rng("scenario-targeted-spoof")
    dark = _dark_pool(world)
    targets = _sample_blocks(dark, max(8, min(64, len(dark) // 6)), rng)
    active, active_asns = _active_pool(world)
    victim_ips, victim_asns = _source_arrays(
        make_sources(active, active_asns, 40, rng)
    )
    world.mix.add(
        TargetedSpoofFlood(
            target_blocks=targets,
            attacker_asns=_attacker_asns(world),
            victim_ips=victim_ips,
            victim_asns=victim_asns,
            pkts_per_block_day=400,
        )
    )
    return ScenarioWorld(
        world=world,
        target_blocks=targets,
        detail={"targets": len(targets)},
    )


def build_epidemic_outbreak(
    config: WorldConfig, settings: EvaluationSettings
) -> ScenarioWorld:
    """A Mirai-style outbreak spraying the whole allocated universe."""
    world = build_world(config)
    rng = config.child_rng("scenario-epidemic")
    active, active_asns = _active_pool(world)
    pool_size = max(40, min(400, len(active) // 3))
    bots = make_sources(active, active_asns, pool_size, rng)
    world.mix.add(
        EpidemicOutbreakActor(
            bot_pool=bots,
            target_blocks=world.index.blocks,
            pkts_per_bot_day=120.0,
            midpoint_day=max(1.0, settings.days / 2.0 - 0.5),
        )
    )
    return ScenarioWorld(world=world, detail={"bot_pool": pool_size})


def build_route_leak(
    config: WorldConfig, settings: EvaluationSettings
) -> ScenarioWorld:
    """A mid-campaign leak of the darkest /16 toward a backbone AS."""
    world = build_world(config)
    anchor = _top_slash16(_dark_pool(world))
    prefix = Prefix.from_ip(anchor << 16, 16)
    leaker = next(
        a.asn for a in world.registry if a.name.startswith("Backbone")
    )
    event = RouteEvent(
        prefix=prefix,
        by_asn=leaker,
        days=frozenset({settings.days // 2}),
        kind="leak",
    )
    world.collector = EventedCollector(world.collector, [event])
    world.mix = SteeredTrafficMix(base=world.mix, event=event)
    return ScenarioWorld(
        world=world,
        detail={
            "prefix": str(prefix),
            "leaker_asn": leaker,
            "event_days": sorted(event.days),
        },
    )


def build_flash_reactivation(
    config: WorldConfig, settings: EvaluationSettings
) -> ScenarioWorld:
    """A provider lights up the darkest /16 mid-campaign."""
    world = build_world(config)
    rng = config.child_rng("scenario-flash")
    dark = _dark_pool(world)
    anchor = _top_slash16(dark)
    blocks = dark[(dark >> 8) == anchor][:256]
    active, active_asns = _active_pool(world)
    remote_ips, remote_asns = _source_arrays(
        make_sources(active, active_asns, 60, rng)
    )
    start_day = max(1, settings.days // 2)
    world.mix.add(
        FlashReactivation(
            blocks=blocks,
            asns=world.index.asn_of(blocks),
            remote_ips=remote_ips,
            remote_asns=remote_asns,
            inbound_pkts_per_day=5000.0,
            start_day=start_day,
        )
    )
    return ScenarioWorld(
        world=world,
        target_blocks=blocks,
        active_overrides=blocks,
        detail={"blocks": len(blocks), "start_day": start_day},
    )


# -- the standard catalog ----------------------------------------------


def standard_catalog(config: WorldConfig) -> list[Scenario]:
    """The five standard scenarios, bound to one world config.

    Envelope bounds are calibrated at micro scale (seed 7) with margin
    for seed drift; re-run ``python -m repro scenarios run`` after any
    pipeline change and re-centre when a change *intentionally* moves a
    metric.
    """
    return [
        Scenario(
            name="padded-evasive",
            summary="scanner pads TCP probes above the 44-byte fingerprint",
            config=config,
            envelope=Envelope(
                fpr_delta=Bounds(-0.02, 0.03),
                fnr_delta=Bounds(0.0, 0.45),
                coverage_delta=Bounds(-0.22, 0.18),
                # The regression tooth: a healthy size filter evicts
                # (nearly) every padded block from the inferred set.
                target_miss_rate=Bounds(0.90, 1.0),
            ),
            builder=build_padded_evasive,
        ),
        Scenario(
            name="targeted-spoof-flip",
            summary="spoof flood flips chosen dark /24s into the graynet",
            config=config,
            envelope=Envelope(
                fpr_delta=Bounds(-0.02, 0.03),
                fnr_delta=Bounds(0.0, 0.35),
                coverage_delta=Bounds(-0.18, 0.18),
                target_miss_rate=Bounds(0.85, 1.0),
            ),
            builder=build_targeted_spoof_flip,
        ),
        Scenario(
            name="epidemic-outbreak",
            summary="Mirai-style outbreak multiplies IBR with an S-curve",
            config=config,
            envelope=Envelope(
                fpr_delta=Bounds(-0.02, 0.03),
                fnr_delta=Bounds(-0.25, 0.10),
                coverage_delta=Bounds(-0.10, 0.25),
            ),
            builder=build_epidemic_outbreak,
        ),
        Scenario(
            name="route-leak",
            summary="mid-campaign leak moves a dark /16 between vantages",
            config=config,
            envelope=Envelope(
                fpr_delta=Bounds(-0.02, 0.03),
                fnr_delta=Bounds(-0.10, 0.12),
                coverage_delta=Bounds(-0.15, 0.15),
            ),
            builder=build_route_leak,
        ),
        Scenario(
            name="flash-reactivation",
            summary="provider lights up a dark /16 mid-campaign",
            config=config,
            envelope=Envelope(
                fpr_delta=Bounds(-0.02, 0.12),
                fnr_delta=Bounds(-0.10, 0.15),
                coverage_delta=Bounds(-0.15, 0.18),
                target_miss_rate=Bounds(0.70, 1.0),
            ),
            builder=build_flash_reactivation,
        ),
    ]
