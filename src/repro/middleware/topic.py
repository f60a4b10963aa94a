"""Topics and the topic bus.

A :class:`Topic` is a named, typed channel with a bounded history; a
:class:`TopicBus` is the registry connecting publishers to subscribers.  The
bus is deliberately synchronous and single-process: publishing a message
enqueues subscriber callbacks on the executor, which dispatches them in
publication order.  Communication latency is not "free" though — the mission
simulator charges a configurable serialisation cost per message through the
compute model, which is how the "comm" bars of Figure 11 arise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.middleware.message import Message

SubscriberCallback = Callable[[Message[Any]], None]


@dataclass(frozen=True, slots=True)
class TopicNamespace:
    """A prefix under which one participant's topics and node names live.

    The single-drone stack publishes on bare topic names (``/sense/scan``);
    a fleet runs N copies of the same graph on one shared bus, so each
    drone's topics are prefixed with its namespace (``/drone/0/sense/scan``).
    The **root namespace** (empty prefix, the default) resolves every base
    name to itself, which is what keeps the N=1 stack bit-identical to the
    pre-fleet one.

    Attributes:
        prefix: ``""`` for the root namespace, else a ``/``-led,
            non-``/``-terminated path segment such as ``/drone/3``.
    """

    prefix: str = ""

    def __post_init__(self) -> None:
        if self.prefix:
            if not self.prefix.startswith("/") or self.prefix.endswith("/"):
                raise ValueError(
                    "namespace prefix must start with '/' and not end with one: "
                    f"{self.prefix!r}"
                )

    @classmethod
    def for_drone(cls, drone_id: int) -> "TopicNamespace":
        """The canonical per-drone namespace, ``/drone/<id>``."""
        if drone_id < 0:
            raise ValueError("drone id cannot be negative")
        return cls(prefix=f"/drone/{int(drone_id)}")

    @property
    def is_root(self) -> bool:
        """True for the legacy single-drone namespace (empty prefix)."""
        return not self.prefix

    def topic(self, base: str) -> str:
        """Resolve a base topic name (``/sense/scan``) inside this namespace."""
        if not base.startswith("/"):
            raise ValueError(f"base topic names must start with '/': {base!r}")
        return self.prefix + base

    def node(self, base: str) -> str:
        """Resolve a base node name (``sense``) inside this namespace.

        Root keeps the bare name; a drone namespace yields ``drone/<id>/sense``
        so frame ids in a shared dispatch log identify the publisher.
        """
        if not base:
            raise ValueError("base node name must be non-empty")
        if self.is_root:
            return base
        return f"{self.prefix[1:]}/{base}"


class Topic:
    """A named channel with subscribers and a bounded message history."""

    def __init__(self, name: str, history_depth: int = 16, latched: bool = False) -> None:
        if not name or not name.startswith("/"):
            raise ValueError(f"topic names must be non-empty and start with '/': {name!r}")
        if history_depth < 1:
            raise ValueError("history depth must be at least 1")
        self.name = name
        self.latched = latched
        self._history: Deque[Message[Any]] = deque(maxlen=history_depth)
        self._subscribers: List[SubscriberCallback] = []
        self._publish_count = 0

    # ------------------------------------------------------------------
    # Publication / subscription
    # ------------------------------------------------------------------
    def subscribe(self, callback: SubscriberCallback) -> None:
        """Register a callback invoked for every future message.

        For latched topics the most recent message (if any) is delivered
        immediately, mirroring ROS latched publishers.
        """
        self._subscribers.append(callback)
        if self.latched and self._history:
            callback(self._history[-1])

    def publish(self, message: Message[Any]) -> List[SubscriberCallback]:
        """Record the message and return the callbacks that should receive it.

        Dispatch itself is owned by the :class:`~repro.middleware.executor.
        Executor` so that callback ordering is centralised; the topic only
        answers "who is interested".
        """
        self._history.append(message)
        self._publish_count += 1
        return list(self._subscribers)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def latest(self) -> Optional[Message[Any]]:
        """The most recently published message, or ``None``."""
        return self._history[-1] if self._history else None

    @property
    def publish_count(self) -> int:
        """Total messages ever published on the topic."""
        return self._publish_count

    def history(self) -> List[Message[Any]]:
        """A copy of the retained message history (oldest first)."""
        return list(self._history)


@dataclass
class TopicBus:
    """Registry of topics keyed by name."""

    _topics: Dict[str, Topic] = field(default_factory=dict)

    def topic(self, name: str, history_depth: int = 16, latched: bool = False) -> Topic:
        """Return the named topic, creating it on first use.

        The latched flag and history depth are fixed by the first creator;
        later callers receive the existing topic unchanged.
        """
        existing = self._topics.get(name)
        if existing is not None:
            return existing
        created = Topic(name, history_depth=history_depth, latched=latched)
        self._topics[name] = created
        return created

    def __contains__(self, name: str) -> bool:
        return name in self._topics

    def names(self) -> List[str]:
        """Names of every registered topic, sorted."""
        return sorted(self._topics.keys())
