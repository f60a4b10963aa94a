"""Message types carried on the middleware bus.

Messages mirror ROS messages at the level RoboRun cares about: a header with
a timestamp, a sequence number and the name of the publishing node, plus an
arbitrary typed payload.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Generic, TypeVar

PayloadT = TypeVar("PayloadT")

_sequence_counter = itertools.count()


@dataclass(frozen=True, slots=True)
class Header:
    """Metadata attached to every message.

    Attributes:
        stamp: simulated time at which the payload was produced.
        frame_id: name of the producing node (used for breakdown attribution).
        seq: globally unique, monotonically increasing sequence number.
    """

    stamp: float
    frame_id: str
    seq: int = field(default_factory=lambda: next(_sequence_counter))


@dataclass(frozen=True, slots=True)
class Message(Generic[PayloadT]):
    """A header plus an arbitrary payload.

    Payloads are treated as immutable by convention: the bus hands the same
    object to every subscriber, so mutating a received payload would leak
    state across pipeline stages.
    """

    header: Header
    payload: PayloadT

    @staticmethod
    def create(payload: Any, stamp: float, frame_id: str) -> "Message[Any]":
        """Convenience constructor building the header inline."""
        return Message(Header(stamp=stamp, frame_id=frame_id), payload)
