"""Topic and node names, resolved per participant.

The dispatch log names each delivery of the decision pipeline by its topic
and publishing node, as the paper's ROS graph does.  A
:class:`TopicNamespace` resolves those base names for one drone, so a
fleet's pipelines can share one log without crosstalk.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class TopicNamespace:
    """A prefix under which one participant's topics and node names live.

    The single-drone stack logs bare topic names (``/sense/scan``); a fleet
    runs N copies of the same pipeline into one shared dispatch log, so each
    drone's entries are prefixed with its namespace (``/drone/0/sense/scan``).
    The **root namespace** (empty prefix, the default) resolves every base
    name to itself, which is what keeps the N=1 log identical to a
    single-drone mission's.

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
        so node names in a shared dispatch log identify the publisher.
        """
        if not base:
            raise ValueError("base node name must be non-empty")
        if self.is_root:
            return base
        return f"{self.prefix[1:]}/{base}"
