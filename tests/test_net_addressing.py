"""Unit tests for IP/MAC addressing and subnets."""

import pytest
from hypothesis import given, strategies as st

from repro.net import addressing
from repro.net.addressing import MacAddr, Subnet, int_to_ip, ip_to_int


def test_ip_round_trip():
    for addr in ("0.0.0.0", "10.1.2.3", "192.168.0.1", "255.255.255.255"):
        assert int_to_ip(ip_to_int(addr)) == addr


def test_bad_addresses_rejected():
    for bad in ("1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d"):
        with pytest.raises(ValueError):
            ip_to_int(bad)
    with pytest.raises(ValueError):
        int_to_ip(-1)
    with pytest.raises(ValueError):
        int_to_ip(2 ** 32)


def test_subnet_membership():
    trusted = Subnet("10.1.0.0/16")
    assert trusted.contains("10.1.0.1")
    assert trusted.contains("10.1.255.254")
    assert not trusted.contains("10.2.0.1")
    assert "10.1.7.7" in trusted


def test_zero_prefix_matches_everything():
    everything = Subnet("0.0.0.0/0")
    assert everything.contains("1.2.3.4")
    assert everything.contains("255.0.0.1")


def test_subnet_hosts_generator():
    net = Subnet("192.168.5.0/24")
    hosts = list(net.hosts(3))
    assert hosts == ["192.168.5.1", "192.168.5.2", "192.168.5.3"]
    assert all(net.contains(h) for h in hosts)


def test_bad_cidr_rejected():
    for bad in ("10.0.0.0", "10.0.0.0/33", "10.0.0.0/-1"):
        with pytest.raises(ValueError):
            Subnet(bad)


def test_mac_addresses_unique_and_hashable():
    a, b = MacAddr("a"), MacAddr("b")
    assert a != b
    assert len({a, b, a}) == 2


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_ip_int_round_trip_property(value):
    assert ip_to_int(int_to_ip(value)) == value


# ----------------------------------------------------------------------
# Memoized membership: always the arithmetic answer, memo or not
# ----------------------------------------------------------------------
def _reference_contains(net, addr):
    return (ip_to_int(addr) & net.mask) == net.base


_addresses = st.integers(min_value=0, max_value=2 ** 32 - 1).map(int_to_ip)
_cidrs = st.tuples(st.integers(min_value=0, max_value=2 ** 32 - 1),
                   st.integers(min_value=0, max_value=32)).map(
    lambda t: f"{int_to_ip(t[0])}/{t[1]}")


@given(_cidrs, st.lists(_addresses, min_size=1, max_size=40))
def test_contains_matches_reference_while_memo_fills(cidr, addrs):
    net = Subnet(cidr)
    for addr in addrs + addrs:          # second pass answers from the memo
        assert net.contains(addr) == _reference_contains(net, addr)


@given(st.lists(_addresses, min_size=1, max_size=40))
def test_contains_matches_reference_past_memo_cap(addrs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(addressing, "CONTAINS_MEMO_CAP", 8)
        net = Subnet("10.9.0.0/16")
        for i in range(1, 9):           # fill the memo to its cap
            net.contains(f"10.9.0.{i}")
        assert len(net._memo) == 8
        for addr in addrs + addrs:
            assert net.contains(addr) == _reference_contains(net, addr)
        assert len(net._memo) == 8


def test_memo_is_per_instance():
    a, b = Subnet("10.1.0.0/16"), Subnet("10.1.0.0/16")
    a.contains("10.1.2.3")
    assert "10.1.2.3" in a._memo
    assert b._memo == {}


@pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "256.0.0.1",
                                 "a.b.c.d", ""])
def test_malformed_address_raises_on_every_call(bad):
    net = Subnet("10.1.0.0/16")
    for _ in range(3):
        with pytest.raises(ValueError):
            net.contains(bad)
    assert bad not in net._memo


# ----------------------------------------------------------------------
# hosts() never leaves the prefix
# ----------------------------------------------------------------------
def test_hosts_covers_the_whole_prefix():
    net = Subnet("10.9.0.0/30")
    assert list(net.hosts(4, start=0)) == [
        "10.9.0.0", "10.9.0.1", "10.9.0.2", "10.9.0.3"]


@pytest.mark.parametrize("count,start", [(1, 256), (2, 255), (300, 1),
                                         (1, -1), (-1, 1)])
def test_hosts_outside_the_prefix_raise(count, start):
    net = Subnet("10.9.0.0/24")
    with pytest.raises(ValueError):
        net.hosts(count, start=start)
