"""Real packets for the router models.

:class:`PacketFactory` mints :class:`~repro.ip.packet.IPv4Packet`
objects, with addresses that the routing table resolves back to the
intended output port, for the full router and Click models.  The
destination and size of each packet come from a
:class:`~repro.traffic.model.TrafficModel`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ip.addr import ADDR_BITS
from repro.ip.packet import IPv4Packet
from repro.traffic.model import TrafficModel


class PacketFactory:
    """Mints IPv4 packets whose destination address maps to a port.

    The address space is carved into ``num_ports`` equal blocks (matching
    :meth:`repro.ip.lookup.RoutingTable.uniform_split`), so a packet
    destined for output ``j`` gets a random address inside block ``j``
    and the Lookup Processor genuinely resolves it.
    """

    def __init__(self, num_ports: int, rng: np.random.Generator):
        if num_ports < 1 or (num_ports & (num_ports - 1)):
            raise ValueError("num_ports must be a power of two")
        self.n = num_ports
        self.rng = rng
        self._bits = num_ports.bit_length() - 1
        self._ident = 0

    def make(self, input_port: int, output_port: int, size_bytes: int) -> IPv4Packet:
        if not 0 <= output_port < self.n:
            raise ValueError("output port out of range")
        host_bits = ADDR_BITS - self._bits
        dst = (output_port << host_bits) | int(self.rng.integers(0, 1 << host_bits))
        src = int(self.rng.integers(0, 1 << ADDR_BITS))
        self._ident += 1
        pkt = IPv4Packet.synthesize(
            src=src, dst=dst, size_bytes=size_bytes, ident=self._ident
        )
        pkt.input_port = input_port
        pkt.output_port = output_port
        return pkt

    def from_workload(self, model: TrafficModel, port: int) -> Optional[IPv4Packet]:
        """The next packet ``model`` offers at ``port`` (None for no arrival)."""
        drawn = model.next_packet(port)
        if drawn is None:
            return None
        dest, nbytes = drawn
        return self.make(port, dest, nbytes)
