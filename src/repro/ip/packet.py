"""IPv4 packets serialized as 32-bit words.

The Raw static network moves 32-bit words, so the packet representation
is word-oriented: a 5-word IPv4 header (no options on the fast path)
followed by payload words.  ``to_words``/``from_words`` round-trip, the
checksum helpers implement verification and the incremental TTL patch,
and ``synthesize`` builds deterministic test/benchmark packets of any
size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import IntEnum
from typing import List, Sequence, Tuple

import numpy as np

from repro.ip.checksum import incremental_update, internet_checksum, verify_checksum

#: IPv4 header without options, in 32-bit words.
HEADER_WORDS_IPV4 = 5
HEADER_BYTES_IPV4 = HEADER_WORDS_IPV4 * 4
MAX_TOTAL_LENGTH = 0xFFFF

#: Word ``i`` of a synthesized payload is ``ident * 2654435761 + i *
#: 0x9E3779B9`` mod 2**32; this holds the second term for every word
#: index, so one wrapping ``uint32`` add builds a whole payload.
_PAYLOAD_STEPS = (
    np.arange(MAX_TOTAL_LENGTH // 4, dtype=np.uint64) * 0x9E3779B9 & 0xFFFFFFFF
).astype(np.uint32)
_PAYLOAD_STEPS.flags.writeable = False


class PacketField(IntEnum):
    """Word indices of header fields (for the tile programs' bit games)."""

    VERSION_IHL_TOS_LEN = 0
    IDENT_FLAGS_FRAG = 1
    TTL_PROTO_CSUM = 2
    SRC = 3
    DST = 4


@dataclass
class IPv4Packet:
    """A mutable IPv4 packet. All multi-byte fields are host integers."""

    src: int
    dst: int
    ttl: int = 64
    protocol: int = 17  # UDP-ish; the router never looks past L3
    ident: int = 0
    tos: int = 0
    flags: int = 0
    frag_offset: int = 0
    checksum: int = 0
    payload: Tuple[int, ...] = ()
    #: metadata stamped by the harness, not serialized:
    arrival_cycle: int = -1
    departure_cycle: int = -1
    input_port: int = -1
    output_port: int = -1

    # ------------------------------------------------------------------
    @property
    def total_length(self) -> int:
        return HEADER_BYTES_IPV4 + 4 * len(self.payload)

    @property
    def total_words(self) -> int:
        return HEADER_WORDS_IPV4 + len(self.payload)

    def header_halfwords(self, zero_checksum: bool = False) -> List[int]:
        """The ten 16-bit header fields, in wire order."""
        version_ihl = (4 << 4) | 5
        return [
            (version_ihl << 8) | self.tos,
            self.total_length,
            self.ident,
            (self.flags << 13) | self.frag_offset,
            (self.ttl << 8) | self.protocol,
            0 if zero_checksum else self.checksum,
            (self.src >> 16) & 0xFFFF,
            self.src & 0xFFFF,
            (self.dst >> 16) & 0xFFFF,
            self.dst & 0xFFFF,
        ]

    def fill_checksum(self) -> "IPv4Packet":
        """Compute and store the header checksum; returns self."""
        self.checksum = internet_checksum(self.header_halfwords(zero_checksum=True))
        return self

    def checksum_ok(self) -> bool:
        return verify_checksum(self.header_halfwords())

    def decrement_ttl(self) -> None:
        """TTL-1 with the RFC 1624 incremental checksum patch."""
        if self.ttl <= 0:
            raise ValueError("TTL already zero; packet should have been dropped")
        old = (self.ttl << 8) | self.protocol
        self.ttl -= 1
        new = (self.ttl << 8) | self.protocol
        self.checksum = incremental_update(self.checksum, old, new)

    # ------------------------------------------------------------------
    def to_words(self) -> List[int]:
        """Serialize to 32-bit words (header then payload)."""
        hw = self.header_halfwords()
        header = [
            (hw[0] << 16) | hw[1],
            (hw[2] << 16) | hw[3],
            (hw[4] << 16) | hw[5],
            (hw[6] << 16) | hw[7],
            (hw[8] << 16) | hw[9],
        ]
        return header + list(self.payload)

    @classmethod
    def from_words(cls, words: Sequence[int]) -> "IPv4Packet":
        """Parse a word sequence produced by :meth:`to_words`."""
        if len(words) < HEADER_WORDS_IPV4:
            raise ValueError("truncated IPv4 header")
        w = list(words)
        version = (w[0] >> 28) & 0xF
        if version != 4:
            raise ValueError(f"not an IPv4 packet (version={version})")
        ihl = (w[0] >> 24) & 0xF
        if ihl != 5:
            raise ValueError("IP options are not supported on the fast path")
        total_length = w[0] & 0xFFFF
        expected_words = (total_length + 3) // 4
        if expected_words != len(w):
            raise ValueError(
                f"length field says {expected_words} words, got {len(w)}"
            )
        pkt = cls(
            tos=(w[0] >> 16) & 0xFF,
            ident=(w[1] >> 16) & 0xFFFF,
            flags=(w[1] >> 13) & 0x7,
            frag_offset=w[1] & 0x1FFF,
            ttl=(w[2] >> 24) & 0xFF,
            protocol=(w[2] >> 16) & 0xFF,
            checksum=w[2] & 0xFFFF,
            src=w[3],
            dst=w[4],
            payload=tuple(w[HEADER_WORDS_IPV4:]),
        )
        return pkt

    # ------------------------------------------------------------------
    @classmethod
    def synthesize(
        cls,
        src: int,
        dst: int,
        size_bytes: int,
        ident: int = 0,
        ttl: int = 64,
    ) -> "IPv4Packet":
        """Build a checksummed packet of ``size_bytes`` (word-aligned).

        Payload words carry a deterministic pattern derived from
        ``ident`` so that egress reassembly and in-fabric computation can
        be verified end to end.
        """
        if size_bytes < HEADER_BYTES_IPV4:
            raise ValueError(f"packet must be >= {HEADER_BYTES_IPV4} bytes")
        if size_bytes % 4:
            raise ValueError("packet size must be word-aligned")
        if size_bytes > MAX_TOTAL_LENGTH:
            raise ValueError("packet exceeds IPv4 maximum length")
        n_payload = size_bytes // 4 - HEADER_WORDS_IPV4
        base = np.uint32(ident * 2654435761 & 0xFFFFFFFF)
        payload = tuple((base + _PAYLOAD_STEPS[:n_payload]).tolist())
        pkt = cls(src=src, dst=dst, ttl=ttl, ident=ident & 0xFFFF, payload=payload)
        return pkt.fill_checksum()

    def copy(self) -> "IPv4Packet":
        return replace(self)
