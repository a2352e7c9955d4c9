"""The Ethernet device driver module.

ETH owns the NIC.  On receive it runs the incremental demultiplexer at
interrupt level — charging the interrupt and demux cycles to the path the
packet resolves to (or to the driver's domain for drops) — and enqueues the
frame on the path's input queue.  This early classification is the paper's
whole SYN-defence story: a flooded SYN is recognized and dropped for the
cost of an interrupt plus a few demux calls, before any path resources are
committed.

On transmit it serializes frames onto the wire through the NIC.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.sim.cpu import Cycles, Interrupt
from repro.core.demux import DROP, Demultiplexer, DemuxResult, TO_PATH
from repro.core.path import FORWARD, PathWork, Stage
from repro.kernel.errors import InvalidOperationError
from repro.modules.base import Module, OpenResult
from repro.net.link import NIC
from repro.net.packet import ETHERTYPE_ARP, ETHERTYPE_IP, EthFrame


class OutFrame:
    """A fully-resolved outbound frame handed to ETH by IP or ARP."""

    __slots__ = ("dst_mac", "ethertype", "payload")

    def __init__(self, dst_mac, ethertype: int, payload: Any):
        self.dst_mac = dst_mac
        self.ethertype = ethertype
        self.payload = payload


class EthModule(Module):
    """Driver for the DE500 Ethernet adapter of the testbed."""

    interfaces = frozenset({"aio"})

    def __init__(self, kernel, name, pd):
        super().__init__(kernel, name, pd)
        self.nic: Optional[NIC] = None
        self.demultiplexer: Optional[Demultiplexer] = None
        self.rx_frames = 0
        self.tx_frames = 0
        self.drops: Dict[str, int] = {}
        self.queue_overflows = 0
        # Per-ethertype dispatch table (ethertype -> target module name or
        # an interned drop result), rebuilt when the graph grows; replaces
        # the per-frame ``"x" in self.graph`` membership probes.  Modules
        # are only ever added to a graph, so the size is a valid version.
        self._demux_table: Dict[int, object] = {}
        self._demux_gen = -1
        self._fwd = DemuxResult.forward("", None)
        #: Drop reason -> interned ``eth-drop:<reason>`` interrupt label.
        self._drop_labels: Dict[str, str] = {}
        # Per-frame path work has a fixed cost: one instruction each way.
        self._rx_cycles = Cycles(self.costs.eth_rx + self.acct(1))
        self._tx_cycles = Cycles(self.costs.eth_tx + self.acct(1))

    # ------------------------------------------------------------------
    # Device binding
    # ------------------------------------------------------------------
    def bind(self, nic: NIC, demultiplexer: Demultiplexer) -> None:
        self.nic = nic
        self.demultiplexer = demultiplexer
        nic.on_receive = self.on_frame

    # ------------------------------------------------------------------
    # Receive: interrupt + demux
    # ------------------------------------------------------------------
    def on_frame(self, frame: EthFrame) -> None:
        """NIC receive callback (runs at engine-event time)."""
        self.rx_frames += 1
        costs = self.costs
        result = self.demultiplexer.classify(self, frame)
        demux_cycles = result.demux_cycles(self.kernel)
        if result.kind == DROP:
            reason = result.reason
            drops = self.drops
            drops[reason] = drops.get(reason, 0) + 1
            label = self._drop_labels.get(reason)
            if label is None:
                label = self._drop_labels[reason] = f"eth-drop:{reason}"
            # Drop work is charged to the driver's domain: no path exists
            # (or deserves) to pay for it.
            self.kernel.cpu.post_interrupt(Interrupt(
                [(self.pd, costs.eth_rx_interrupt + demux_cycles)],
                label=label))
            return
        path = result.path

        def enqueue() -> None:
            if path.destroyed:
                self.drops["dead-path"] = self.drops.get("dead-path", 0) + 1
                return
            # ETH's stage is the path's first (checked in ``attach``).
            if not path.enqueue(PathWork(path.stages[0], FORWARD, frame)):
                self.queue_overflows += 1

        self.kernel.cpu.post_interrupt(Interrupt(
            [(path, costs.eth_rx_interrupt + demux_cycles)],
            on_complete=enqueue, label="eth-rx"))

    def demux(self, frame: EthFrame) -> DemuxResult:
        if self._demux_gen != len(self.graph._modules):
            self._rebuild_demux_table()
        target = self._demux_table.get(frame.ethertype)
        if target.__class__ is str:
            return self._fwd.refit(target, frame.payload)
        if target is None:
            return DemuxResult.drop("ethertype")
        return target  # interned drop

    def _rebuild_demux_table(self) -> None:
        graph = self.graph
        self._demux_table = {
            ETHERTYPE_ARP: ("arp" if "arp" in graph
                            else DemuxResult.drop("no-arp")),
            ETHERTYPE_IP: ("ip" if "ip" in graph
                           else DemuxResult.drop("no-ip")),
        }
        self._demux_gen = len(graph._modules)

    # ------------------------------------------------------------------
    # Path membership
    # ------------------------------------------------------------------
    def open(self, path, attrs, origin):
        # ETH is the network end of every path; it never extends further.
        return OpenResult(self.make_stage(path), ())

    def attach(self, stage: Stage) -> None:
        # ``on_frame`` hands each received frame to the path's first stage.
        if stage.index != 0:
            raise InvalidOperationError(
                f"{self.name} is not the network end of {stage.path.name}")

    # ------------------------------------------------------------------
    # Path processing
    # ------------------------------------------------------------------
    def forward(self, stage: Stage, frame: EthFrame) -> Generator:
        """Inbound frame on a path thread: strip and pass up."""
        yield self._rx_cycles
        result = yield from stage.send_forward(frame.payload)
        return result

    def backward(self, stage: Stage, out: OutFrame) -> Generator:
        """Outbound: frame the payload and hand it to the NIC."""
        yield self._tx_cycles
        self.tx_frames += 1
        frame = EthFrame(self.nic.mac, out.dst_mac, out.ethertype,
                         out.payload)
        self.nic.send(frame)
        return True
