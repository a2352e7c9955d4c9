"""The SYN attacker (paper section 4.1.2).

"A SYN Attacker sends a SYN request to the server at a rate of 1000 every
second."  The attacker machine sits on the hub (Figure 7) and sprays raw
SYN segments with rotating spoofed source addresses drawn from the
untrusted subnet; it never completes a handshake, so every accepted SYN
leaves a half-open connection on the server until the SYN-ACK retry budget
expires.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sim.clock import TICKS_PER_SECOND
from repro.sim.costs import CostModel
from repro.sim.engine import Simulator
from repro.net.addressing import MacAddr, Subnet
from repro.net.link import NIC
from repro.net.packet import (
    ETHERTYPE_IP,
    EthFrame,
    FLAG_SYN,
    IPDatagram,
    IPPROTO_TCP,
    TCPSegment,
)


class SynAttacker:
    """Raw SYN flood source with spoofed addresses."""

    def __init__(self, sim: Simulator, server_ip: str, server_mac: MacAddr,
                 spoof_subnet: Subnet, rate_per_second: int = 1000,
                 target_port: int = 80,
                 costs: Optional[CostModel] = None,
                 ramp_to: Optional[int] = None,
                 ramp_seconds: float = 0.0,
                 spoof_hosts: int = 4094):
        if rate_per_second <= 0:
            raise ValueError("rate must be positive")
        if ramp_to is not None and ramp_to <= 0:
            raise ValueError(f"ramp_to must be positive: {ramp_to}")
        max_hosts = (1 << (32 - spoof_subnet.prefix_len)) - 2
        if not 1 <= spoof_hosts <= max_hosts:
            raise ValueError(
                f"spoof_hosts must be in 1..{max_hosts} for "
                f"{spoof_subnet.cidr}: {spoof_hosts}")
        self.sim = sim
        self.server_ip = server_ip
        self.server_mac = server_mac
        self.spoof_subnet = spoof_subnet
        self.rate = rate_per_second
        self.target_port = target_port
        self.nic = NIC(sim, label="syn-attacker")
        self.sent = 0
        self._running = False
        self._interval = TICKS_PER_SECOND // rate_per_second
        self._spoof_index = 0
        self.spoof_hosts = spoof_hosts
        #: Spoofed source per host offset, built on first use.
        self._sources: Dict[int, str] = {}
        #: Ramping flood: the rate climbs linearly from ``rate_per_second``
        #: to ``ramp_to`` over ``ramp_seconds`` after :meth:`start` — the
        #: adaptive-defense scenario, where no static tuning fits both the
        #: quiet start and the saturated end.
        self.ramp_to = ramp_to
        self._ramp_ticks = int(ramp_seconds * TICKS_PER_SECOND)
        self._start_tick: Optional[int] = None
        self._ramping = ramp_to is not None and self._ramp_ticks > 0

    def current_rate(self) -> int:
        """The instantaneous send rate, including any ramp."""
        if not self._ramping or self._start_tick is None:
            return self.rate
        elapsed = self.sim.now - self._start_tick
        if elapsed >= self._ramp_ticks:
            return self.ramp_to
        return self.rate + (self.ramp_to - self.rate) * elapsed \
            // self._ramp_ticks

    def attach(self, medium) -> None:
        medium.attach(self.nic)

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._start_tick = self.sim.now
        self.sim.schedule(self._interval, self._fire)

    def stop(self) -> None:
        self._running = False

    def _fire(self) -> None:
        if not self._running:
            return
        self._spoof_index = index = self._spoof_index + 1
        # Rotate through the spoofed hosts and the whole port space.
        host = 1 + index % self.spoof_hosts
        src_ip = self._sources.get(host)
        if src_ip is None:
            src_ip = self._sources[host] = next(
                self.spoof_subnet.hosts(1, start=host))
        seg = TCPSegment(1024 + index % 60_000, self.target_port, 0, 0,
                         FLAG_SYN)
        dgram = IPDatagram(src_ip, self.server_ip, IPPROTO_TCP, seg)
        nic = self.nic
        nic.send(EthFrame(nic.mac, self.server_mac, ETHERTYPE_IP, dgram))
        self.sent += 1
        # Without a ramp the rate never changes: reuse the start interval.
        interval = (TICKS_PER_SECOND // self.current_rate() if self._ramping
                    else self._interval)
        self.sim.schedule(max(1, interval), self._fire)
