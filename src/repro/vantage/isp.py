"""ISP border-router NetFlow vantage.

The paper calibrates its dark/active fingerprint (Table 3) on NetFlow
from the ISP that hosts the TUS1 telescope: the ISP's space contains
both genuinely dark subnets (including the telescope) and active ones,
and the border routers see *both directions* of the ISP's traffic —
which is what makes labelling possible (a /24 that receives traffic
but never sends any all week is dark).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.traffic.flows import FlowTable
from repro.vantage.sampling import VantageDayView


@dataclass(slots=True)
class IspVantage:
    """Border capture of everything entering or leaving the ISP."""

    code: str
    asn: int
    blocks: np.ndarray

    def __post_init__(self) -> None:
        self.blocks = np.unique(np.asarray(self.blocks, dtype=np.int64))
        if len(self.blocks) == 0:
            raise ValueError(f"ISP {self.code} owns no blocks")

    def capture(self, flows: FlowTable, day: int) -> VantageDayView:
        """Unsampled view of one day, both directions.

        Only flows that physically traverse the border are captured:
        inbound traffic to the ISP's space plus traffic the ISP itself
        emits.  Packets that merely *claim* an ISP source (spoofed
        elsewhere) never cross this border, and the border routers
        drop inbound packets carrying internal sources (uRPF) — so
        neither pollutes the origination statistics the labelling
        relies on.
        """
        dst_in = np.isin(flows.dst_blocks(), self.blocks)
        src_in = np.isin(flows.src_blocks(), self.blocks)
        emitted = flows.sender_asn == self.asn
        martian = src_in & ~emitted
        return VantageDayView(
            vantage=self.code,
            day=day,
            flows=flows.filter((dst_in | emitted) & ~martian),
            sampling_factor=1.0,
        )

    def inbound(self, view: VantageDayView) -> FlowTable:
        """Rows destined to the ISP's space."""
        return view.flows.filter(np.isin(view.flows.dst_blocks(), self.blocks))

    def outbound(self, view: VantageDayView) -> FlowTable:
        """Rows originated from the ISP's space."""
        return view.flows.filter(np.isin(view.flows.src_blocks(), self.blocks))
