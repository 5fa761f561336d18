"""Message types carried by the wireless channels.

The paper's network discipline (Section 4): invalidation reports have the
highest priority, checking requests and validity reports come next, and
all other traffic (data requests, data items) is served first-come
first-served at the lowest priority.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

#: Destination constant for messages addressed to every listener in the cell.
BROADCAST = -1


class MessageKind(enum.Enum):
    """What a message carries; determines its priority class."""

    INVALIDATION_REPORT = "ir"
    CHECK_REQUEST = "check_request"      # client -> server cache check upload
    VALIDITY_REPORT = "validity_report"  # server -> client check response
    TLB_UPLOAD = "tlb_upload"            # client -> server last-heard timestamp
    IR_NACK = "ir_nack"                  # client -> server missed-report hint
    DATA_REQUEST = "data_request"        # client -> server item fetch
    DATA_ITEM = "data_item"              # server -> client item contents


#: Priority class per kind (lower = served first), per the paper's model.
PRIORITY_IR = 0
PRIORITY_CHECK = 1
PRIORITY_DATA = 2

KIND_PRIORITY = {
    MessageKind.INVALIDATION_REPORT: PRIORITY_IR,
    MessageKind.CHECK_REQUEST: PRIORITY_CHECK,
    MessageKind.VALIDITY_REPORT: PRIORITY_CHECK,
    MessageKind.TLB_UPLOAD: PRIORITY_CHECK,
    MessageKind.IR_NACK: PRIORITY_CHECK,
    MessageKind.DATA_REQUEST: PRIORITY_DATA,
    MessageKind.DATA_ITEM: PRIORITY_DATA,
}


@dataclass
class Message:
    """A transmission on a wireless channel.

    Parameters
    ----------
    kind:
        The :class:`MessageKind`; also selects the priority class.
    size_bits:
        Wire size.  Transmission takes ``size_bits / bandwidth`` seconds.
    src:
        Sender id (server is ``SERVER_ID``; clients are their index).
    dest:
        Receiver id or :data:`BROADCAST`.
    payload:
        Arbitrary model object (a report, an item id, ...).
    """

    kind: MessageKind
    size_bits: float
    src: int
    dest: int
    payload: Any = None
    #: True on the copy a receiver gets when the frame arrived damaged
    #: (fault injection); the payload is then undecodable and must be
    #: ignored.  Always False on the sender's original.
    corrupted: bool = False
    #: For a broadcast whose payload only concerns known clients (a
    #: coalesced data response): the ids whose radios must decode it.
    #: ``None`` means a true broadcast for every listener.  Read at
    #: delivery time, so a coalescing server may keep growing the set
    #: while the message is queued or on the air.
    recipients: Optional[set] = field(default=None, repr=False)
    #: Bits still to transmit; managed by the channel (preemptive resume).
    remaining_bits: float = field(default=0.0, repr=False)

    def __post_init__(self):
        if self.size_bits < 0:
            raise ValueError(f"negative message size {self.size_bits}")
        self.remaining_bits = float(self.size_bits)

    @property
    def priority(self) -> int:
        """Priority class of this message (lower served first)."""
        return KIND_PRIORITY[self.kind]


#: Conventional id for the (single) server in a cell.
SERVER_ID = -2
