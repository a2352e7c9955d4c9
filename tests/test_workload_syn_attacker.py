"""Unit tests for the SYN flood source: addresses, pacing, arguments."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.addressing import MacAddr, Subnet
from repro.sim.clock import TICKS_PER_SECOND
from repro.sim.engine import Simulator
from repro.workload.syn_attacker import SynAttacker


class Recorder:
    """A medium that keeps every frame with its send tick and rate."""

    def __init__(self, sim):
        self.sim = sim
        self.sent = []          # (tick, frame, attacker rate at that tick)
        self.attacker = None

    def attach(self, nic):
        nic.medium = self

    def transmit(self, frame, sender):
        self.sent.append((self.sim.now, frame,
                          self.attacker.current_rate()))


def flood(spoof_hosts, rate, frames, cidr="10.9.0.0/16", **kw):
    sim = Simulator()
    attacker = SynAttacker(sim, "10.0.0.1", MacAddr("server"), Subnet(cidr),
                           rate_per_second=rate, spoof_hosts=spoof_hosts,
                           **kw)
    medium = Recorder(sim)
    medium.attacker = attacker
    attacker.attach(medium)
    attacker.start()
    while len(medium.sent) < frames and sim.step():
        pass
    attacker.stop()
    return attacker, medium.sent[:frames]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=40),
       st.sampled_from(["10.9.0.0/16", "10.1.64.0/18", "192.168.7.0/26"]))
def test_sources_follow_the_hosts_reference_for_two_rotations(hosts, cidr):
    _, sent = flood(hosts, 5000, 2 * hosts + 1, cidr=cidr)
    subnet = Subnet(cidr)
    for k, (_, frame, _) in enumerate(sent, start=1):
        expected = next(subnet.hosts(1, start=1 + k % hosts))
        assert frame.payload.src_ip == expected
        assert frame.payload.payload.src_port == 1024 + k % 60_000


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=50_000),
       st.one_of(st.none(), st.integers(min_value=1, max_value=50_000)),
       st.sampled_from([0.0, 0.001, 0.01]))
def test_intervals_follow_the_current_rate(rate, ramp_to, ramp_seconds):
    _, sent = flood(10, rate, 60, ramp_to=ramp_to, ramp_seconds=ramp_seconds)
    for (t0, _, rate0), (t1, _, _) in zip(sent, sent[1:]):
        assert t1 - t0 == max(1, TICKS_PER_SECOND // rate0)


def test_ramp_reaches_its_target_rate():
    _, sent = flood(10, 1000, 400, ramp_to=50_000, ramp_seconds=0.01)
    rates = [rate for _, _, rate in sent]
    assert rates == sorted(rates)
    assert rates[0] < 50_000 == rates[-1]


@pytest.mark.parametrize("cidr,hosts", [
    ("10.9.0.0/24", 4094),      # the default spoof_hosts
    ("10.9.0.0/24", 255),
    ("10.9.0.0/16", 65535),
    ("10.9.0.0/16", 0),
    ("10.9.0.0/16", -3),
    ("10.9.0.1/32", 1),
])
def test_spoof_hosts_outside_the_subnet_rejected(cidr, hosts):
    with pytest.raises(ValueError):
        SynAttacker(Simulator(), "10.0.0.1", MacAddr(), Subnet(cidr),
                    spoof_hosts=hosts)


@pytest.mark.parametrize("cidr,hosts", [("10.9.0.0/24", 254),
                                        ("10.9.0.0/16", 65534),
                                        ("10.9.0.0/30", 2)])
def test_largest_spoof_range_stays_inside_the_subnet(cidr, hosts):
    subnet = Subnet(cidr)
    _, sent = flood(hosts, 20_000, hosts, cidr=cidr)
    sources = {frame.payload.src_ip for _, frame, _ in sent}
    assert len(sources) == hosts
    assert all(subnet.contains(ip) for ip in sources)


@pytest.mark.parametrize("ramp_to", [0, -100])
def test_non_positive_ramp_target_rejected(ramp_to):
    with pytest.raises(ValueError):
        SynAttacker(Simulator(), "10.0.0.1", MacAddr(), Subnet("10.9.0.0/16"),
                    ramp_to=ramp_to, ramp_seconds=1.0)
