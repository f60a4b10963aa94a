"""Nodes: named participants on the middleware bus.

A node corresponds to one ROS node in the paper's stack — the point-cloud
kernel, OctoMap, the planner, the smoother, the controller and the RoboRun
governor are each hosted in a node.  Nodes publish and subscribe through the
executor; the node's name is the frame id stamped on what it publishes.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.middleware.executor import Executor
from repro.middleware.message import Message


class Node:
    """A named publisher/subscriber on one executor."""

    def __init__(self, name: str, executor: Executor) -> None:
        if not name:
            raise ValueError("node name must be non-empty")
        self.name = name
        self.executor = executor

    def publish(self, topic_name: str, payload: Any) -> Message[Any]:
        """Publish a payload on a topic, stamped with this node's name."""
        return self.executor.publish(topic_name, payload, frame_id=self.name)

    def subscribe(
        self, topic_name: str, callback: Callable[[Message[Any]], None]
    ) -> None:
        """Subscribe a callback to a topic."""
        self.executor.subscribe(topic_name, callback)

    def __repr__(self) -> str:
        return f"Node(name={self.name!r})"
