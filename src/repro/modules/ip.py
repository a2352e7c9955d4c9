"""The IP module.

IP's routing table lives in its module state, allocated from its protection
domain's heap — it is the paper's canonical example of a resource that
"cannot be directly associated with any individual IP flow" and so is
charged to the domain running the module.  Inbound, IP validates the
destination and demuxes to the transport; outbound, it routes, resolves the
next-hop MAC through ARP, and frames the datagram for ETH.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.sim.cpu import Cycles
from repro.core.demux import DemuxResult
from repro.core.path import Stage
from repro.modules.base import Module, OpenResult
from repro.modules.eth import OutFrame
from repro.net.addressing import Subnet
from repro.net.packet import ETHERTYPE_IP, IPDatagram, IPPROTO_TCP

ROUTE_ENTRY_BYTES = 64


class IpModule(Module):
    """IPv4 (no fragmentation: MSS < MTU throughout the testbed)."""

    interfaces = frozenset({"aio"})

    def __init__(self, kernel, name, pd, local_ip: str):
        super().__init__(kernel, name, pd)
        self.local_ip = local_ip
        #: (subnet, on_link) routing entries; the heap allocation below
        #: charges the table to this module's protection domain.
        self.routes: List[Tuple[Subnet, bool]] = []
        self._route_allocs = []
        self.rx_datagrams = 0
        self.tx_datagrams = 0
        self.drops = 0
        # Per-protocol dispatch table (proto -> transport module name or an
        # interned drop result); same pattern as EthModule's ethertype
        # table — graph size versions the cache.
        self._demux_table: Dict[int, object] = {}
        self._demux_gen = -1
        self._fwd = DemuxResult.forward("", None)
        self._rx_cycles = Cycles(self.costs.ip_rx + self.acct(1))
        self._tx_cycles = Cycles(self.costs.ip_tx + self.acct(1))
        # The ARP module, found on first transmit: a graph only grows and
        # never replaces a module, so the lookup cannot go stale.
        self._arp = None

    def init_module(self) -> Generator:
        # Everything in the testbed is on-link; a default route models the
        # rest of the Internet behind the hub.
        self.add_route(Subnet("0.0.0.0/0"), on_link=True)
        return
        yield  # pragma: no cover

    def add_route(self, subnet: Subnet, on_link: bool = True) -> None:
        """Install a route; the entry is charged to IP's domain heap."""
        alloc = self.pd.heap_alloc(ROUTE_ENTRY_BYTES, label=f"route {subnet.cidr}",
                                   allocator=self.kernel.allocator)
        self._route_allocs.append(alloc)
        self.routes.append((subnet, on_link))

    def route(self, dst_ip: str) -> Optional[Tuple[Subnet, bool]]:
        best = None
        for subnet, on_link in self.routes:
            if subnet.contains(dst_ip):
                if best is None or subnet.prefix_len > best[0].prefix_len:
                    best = (subnet, on_link)
        return best

    # ------------------------------------------------------------------
    # Path membership
    # ------------------------------------------------------------------
    def open(self, path, attrs, origin):
        # Paths always reach IP from a transport (or from IP's own side
        # protocols) and extend toward the device — never back up into a
        # different transport.
        from repro.modules.base import OpenResult
        stage = self.make_stage(path)
        extend = ["eth"] if (origin is None or origin.name != "eth") \
            and "eth" in self.graph else []
        return OpenResult(stage, extend)

    # ------------------------------------------------------------------
    # Demux
    # ------------------------------------------------------------------
    def demux(self, dgram: IPDatagram) -> DemuxResult:
        if dgram.dst_ip != self.local_ip:
            return DemuxResult.drop("ip-not-local")
        if self._demux_gen != len(self.graph._modules):
            self._rebuild_demux_table()
        target = self._demux_table.get(dgram.proto)
        if target.__class__ is str:
            return self._fwd.refit(target, dgram)
        if target is None:
            return DemuxResult.drop("ip-proto")
        return target  # interned drop

    def _rebuild_demux_table(self) -> None:
        graph = self.graph
        drop = DemuxResult.drop("ip-proto")
        self._demux_table = {
            IPPROTO_TCP: "tcp" if "tcp" in graph else drop,
            1: "icmp" if "icmp" in graph else drop,   # IPPROTO_ICMP
            17: "udp" if "udp" in graph else drop,    # IPPROTO_UDP
        }
        self._demux_gen = len(graph._modules)

    # ------------------------------------------------------------------
    # Path processing
    # ------------------------------------------------------------------
    def forward(self, stage: Stage, dgram: IPDatagram) -> Generator:
        yield self._rx_cycles
        if dgram.dst_ip != self.local_ip:
            self.drops += 1
            return False
        self.rx_datagrams += 1
        result = yield from stage.send_forward(dgram)
        return result

    def backward(self, stage: Stage, msg: Tuple) -> Generator:
        """Outbound: ``(dst_ip, payload)`` or ``(dst_ip, payload, proto)``
        — TCP by default, ICMP and others by explicit protocol number."""
        if len(msg) == 3:
            dst_ip, segment, proto = msg
        else:
            dst_ip, segment = msg
            proto = IPPROTO_TCP
        yield self._tx_cycles
        if self.route(dst_ip) is None:
            self.drops += 1
            return False
        arp = self._arp
        if arp is None and "arp" in self.graph:
            arp = self._arp = self.graph.find("arp")
        dst_mac = arp.lookup(dst_ip) if arp is not None else None
        if dst_mac is None:
            self.drops += 1
            return False
        self.tx_datagrams += 1
        dgram = IPDatagram(self.local_ip, dst_ip, proto, segment)
        result = yield from stage.send_backward(
            OutFrame(dst_mac, ETHERTYPE_IP, dgram))
        return result

    def destroy_stage(self, stage: Stage) -> None:
        pass
