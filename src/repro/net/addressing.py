"""IP and MAC addressing helpers.

The SYN-flood policy distinguishes a *trusted* and an *untrusted* part of
the Internet (paper section 4.4.1); :class:`Subnet` is the prefix-matching
primitive that policy is written against.
"""

from __future__ import annotations

from typing import Dict, Iterator

#: Most addresses one :class:`Subnet` remembers membership for.  A flood
#: rotates through a few thousand spoofed sources, so the memo holds all
#: of them; a sweep over more distinct addresses than this parses the
#: rest on every call instead of growing without bound.  A constant, not
#: an option: it changes host time only, never an answer.
CONTAINS_MEMO_CAP = 65536


def ip_to_int(addr: str) -> int:
    """Dotted-quad string to 32-bit integer."""
    parts = addr.split(".")
    if len(parts) != 4:
        raise ValueError(f"bad IPv4 address: {addr!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"bad IPv4 address: {addr!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """32-bit integer to dotted-quad string."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"IPv4 value out of range: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


class Subnet:
    """An IPv4 prefix, e.g. ``Subnet("10.1.0.0/16")``."""

    def __init__(self, cidr: str):
        try:
            base, prefix_s = cidr.split("/")
        except ValueError:
            raise ValueError(f"bad CIDR: {cidr!r}") from None
        self.prefix_len = int(prefix_s)
        if not 0 <= self.prefix_len <= 32:
            raise ValueError(f"bad prefix length in {cidr!r}")
        self.mask = 0 if self.prefix_len == 0 else (
            0xFFFFFFFF << (32 - self.prefix_len)) & 0xFFFFFFFF
        self.base = ip_to_int(base) & self.mask
        self.cidr = cidr
        #: Address string -> membership, filled by :meth:`contains` up to
        #: :data:`CONTAINS_MEMO_CAP` entries.  Per instance: one Subnet
        #: (``TRUSTED_SUBNET``) is shared by every run in a process.
        self._memo: Dict[str, bool] = {}

    def contains(self, addr: str) -> bool:
        memo = self._memo
        hit = memo.get(addr)
        if hit is None:
            # A malformed address raises here and is never memoized.
            hit = (ip_to_int(addr) & self.mask) == self.base
            if len(memo) < CONTAINS_MEMO_CAP:
                memo[addr] = hit
        return hit

    def hosts(self, count: int, start: int = 1) -> Iterator[str]:
        """Iterate over ``count`` addresses from offset ``start`` on.

        Raises ``ValueError`` unless the whole range lies inside the
        prefix.
        """
        end = start + count
        if start < 0 or count < 0 or end > 1 << (32 - self.prefix_len):
            raise ValueError(
                f"hosts({count}, start={start}) leaves {self.cidr}")
        base = self.base
        return (int_to_ip(base + i) for i in range(start, end))

    def __contains__(self, addr: str) -> bool:
        return self.contains(addr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Subnet({self.cidr!r})"


class MacAddr:
    """A link-layer address; simulation-local, so just a small integer."""

    _next = 1

    def __init__(self, label: str = ""):
        self.value = MacAddr._next
        MacAddr._next += 1
        self.label = label or f"mac-{self.value}"

    def __hash__(self) -> int:
        return self.value

    def __eq__(self, other) -> bool:
        return isinstance(other, MacAddr) and other.value == self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.label}>"


#: The broadcast link-layer address.
BROADCAST = MacAddr("broadcast")
