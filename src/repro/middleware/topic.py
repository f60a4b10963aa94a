"""Topics and the topic bus.

A :class:`Topic` is a named channel with its subscribers; a
:class:`TopicBus` is the registry connecting publishers to subscribers.  The
bus is deliberately synchronous and single-process: publishing a message
enqueues subscriber callbacks on the executor, which dispatches them in
publication order.  Communication latency is not "free" though — the mission
simulator charges a configurable serialisation cost per message through the
compute model, which is how the "comm" bars of Figure 11 arise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

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
    """A named channel with subscribers and a publication count."""

    def __init__(self, name: str) -> None:
        if not name or not name.startswith("/"):
            raise ValueError(f"topic names must be non-empty and start with '/': {name!r}")
        self.name = name
        self._subscribers: List[SubscriberCallback] = []
        self._publish_count = 0

    # ------------------------------------------------------------------
    # Publication / subscription
    # ------------------------------------------------------------------
    def subscribe(self, callback: SubscriberCallback) -> None:
        """Register a callback invoked for every future message."""
        self._subscribers.append(callback)

    def publish(self) -> List[SubscriberCallback]:
        """Count one publication and return the callbacks that should receive it.

        Dispatch itself is owned by the :class:`~repro.middleware.executor.
        Executor` so that callback ordering is centralised; the topic only
        answers "who is interested".
        """
        self._publish_count += 1
        return list(self._subscribers)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def publish_count(self) -> int:
        """Total messages ever published on the topic."""
        return self._publish_count


@dataclass
class TopicBus:
    """Registry of topics keyed by name."""

    _topics: Dict[str, Topic] = field(default_factory=dict)

    def topic(self, name: str) -> Topic:
        """Return the named topic, creating it on first use."""
        existing = self._topics.get(name)
        if existing is not None:
            return existing
        created = Topic(name)
        self._topics[name] = created
        return created

    def names(self) -> List[str]:
        """Names of every registered topic, sorted."""
        return sorted(self._topics.keys())
