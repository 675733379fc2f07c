"""Timed partition windows and churn traces for the gossip substrate.

Both axes are compact strings so they travel through scenario files, CLI
flags, and the run store's content addresses unchanged:

* ``partition`` — ``"none"``, or ``;``-separated windows of the form
  ``"START-END:G0|G1|..."`` where ``START``/``END`` are inclusive round
  indices and each group ``G`` is a comma-separated list of node indices.
  Nodes not listed in any group form one implicit remainder group, so
  ``"2-4:0,1"`` over five nodes splits ``{0,1}`` from ``{2,3,4}`` for rounds
  2-4.  A single round uses ``"3-3:..."`` (or just ``"3:..."``).
* ``churn`` — ``"none"``, or ``;``-separated events ``"ROUND:-IDX"`` (node
  ``IDX`` departs before round ``ROUND``) and ``"ROUND:+IDX"`` (it arrives or
  rejoins).  Events apply in round order; the trace must never take the last
  node offline.

:class:`NetSchedule` replays both into per-round state: which nodes are
online and which reachability groups the partition imposes.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "NetSchedule",
    "parse_partition",
    "parse_churn",
]


@dataclass(frozen=True)
class PartitionWindow:
    """One timed split: rounds ``start``..``end`` (inclusive) see ``groups``."""

    start: int
    end: int
    groups: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ChurnEvent:
    """A node arrival (``online=True``) or departure taking effect at ``round_index``."""

    round_index: int
    node_index: int
    online: bool


def parse_partition(spec: str, num_nodes: int) -> tuple[PartitionWindow, ...]:
    """Parse a ``partition`` axis string (see module docstring for the grammar)."""
    text = (spec or "none").strip()
    if text in ("", "none"):
        return ()
    if num_nodes < 2:
        raise ValueError("a partition needs at least two nodes to split")
    windows: list[PartitionWindow] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        window_part, sep, groups_part = chunk.partition(":")
        if not sep or not groups_part.strip():
            raise ValueError(
                f"invalid partition window {chunk!r}: expected 'START-END:G0|G1|...'"
            )
        start_text, dash, end_text = window_part.partition("-")
        try:
            start = int(start_text)
            end = int(end_text) if dash else start
        except ValueError:
            raise ValueError(
                f"invalid partition window {chunk!r}: round bounds must be integers"
            ) from None
        if start < 0 or end < start:
            raise ValueError(
                f"invalid partition window {chunk!r}: need 0 <= start <= end"
            )
        groups: list[tuple[int, ...]] = []
        listed: set[int] = set()
        for group_text in groups_part.split("|"):
            members = _parse_indices(group_text, num_nodes, context=chunk)
            if not members:
                raise ValueError(f"invalid partition window {chunk!r}: empty group")
            overlap = listed & set(members)
            if overlap:
                raise ValueError(
                    f"invalid partition window {chunk!r}: node(s) "
                    f"{sorted(overlap)} appear in more than one group"
                )
            listed.update(members)
            groups.append(members)
        remainder = tuple(i for i in range(num_nodes) if i not in listed)
        if remainder:
            groups.append(remainder)
        if len(groups) < 2:
            raise ValueError(
                f"invalid partition window {chunk!r}: the groups cover every node "
                "— a split needs at least two sides"
            )
        windows.append(PartitionWindow(start=start, end=end, groups=tuple(groups)))
    windows.sort(key=lambda w: (w.start, w.end))
    for left, right in zip(windows, windows[1:]):
        if right.start <= left.end:
            raise ValueError(
                f"partition windows overlap: rounds {left.start}-{left.end} and "
                f"{right.start}-{right.end}"
            )
    return tuple(windows)


def parse_churn(spec: str, num_nodes: int) -> tuple[ChurnEvent, ...]:
    """Parse a ``churn`` axis string (see module docstring for the grammar)."""
    text = (spec or "none").strip()
    if text in ("", "none"):
        return ()
    events: list[ChurnEvent] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        round_text, sep, node_text = chunk.partition(":")
        node_text = node_text.strip()
        if not sep or not node_text or node_text[0] not in "+-":
            raise ValueError(
                f"invalid churn event {chunk!r}: expected 'ROUND:-IDX' or 'ROUND:+IDX'"
            )
        try:
            round_index = int(round_text)
            node_index = int(node_text[1:])
        except ValueError:
            raise ValueError(
                f"invalid churn event {chunk!r}: round and node index must be integers"
            ) from None
        if round_index < 0:
            raise ValueError(f"invalid churn event {chunk!r}: round must be >= 0")
        if not (0 <= node_index < num_nodes):
            raise ValueError(
                f"invalid churn event {chunk!r}: node index must lie in "
                f"[0, {num_nodes})"
            )
        events.append(
            ChurnEvent(
                round_index=round_index,
                node_index=node_index,
                online=(node_text[0] == "+"),
            )
        )
    events.sort(key=lambda e: (e.round_index, e.node_index, e.online))
    # Replaying the whole trace up front catches the one irrecoverable
    # mistake — every node offline at once — at validation time, not mid-run.
    online = set(range(num_nodes))
    for event in events:
        if event.online:
            online.add(event.node_index)
        else:
            online.discard(event.node_index)
        if not online:
            raise ValueError(
                f"churn trace takes every node offline at round {event.round_index}"
            )
    return tuple(events)


def _parse_indices(text: str, num_nodes: int, *, context: str) -> tuple[int, ...]:
    members: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            index = int(token)
        except ValueError:
            raise ValueError(
                f"invalid partition window {context!r}: node index {token!r} "
                "is not an integer"
            ) from None
        if not (0 <= index < num_nodes):
            raise ValueError(
                f"invalid partition window {context!r}: node index {index} must "
                f"lie in [0, {num_nodes})"
            )
        members.append(index)
    return tuple(sorted(set(members)))


class NetSchedule:
    """Per-round online/partition state replayed from the parsed axes."""

    def __init__(
        self,
        num_nodes: int,
        partition: tuple[PartitionWindow, ...] = (),
        churn: tuple[ChurnEvent, ...] = (),
    ) -> None:
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        self.num_nodes = int(num_nodes)
        self.partition = tuple(partition)
        self.churn = tuple(churn)

    @classmethod
    def parse(cls, num_nodes: int, partition: str, churn: str) -> "NetSchedule":
        """Build a schedule straight from the two axis strings."""
        return cls(
            num_nodes,
            partition=parse_partition(partition, num_nodes),
            churn=parse_churn(churn, num_nodes),
        )

    def online_at(self, round_index: int) -> tuple[int, ...]:
        """Node indices online during ``round_index`` (events apply at their round)."""
        online = set(range(self.num_nodes))
        for event in self.churn:
            if event.round_index > round_index:
                break
            if event.online:
                online.add(event.node_index)
            else:
                online.discard(event.node_index)
        return tuple(sorted(online))

    def window_at(self, round_index: int) -> PartitionWindow | None:
        """The active partition window, if any."""
        for window in self.partition:
            if window.start <= round_index <= window.end:
                return window
        return None

    def groups_at(self, round_index: int) -> tuple[tuple[int, ...], ...]:
        """Reachability groups for ``round_index`` (one group when unpartitioned)."""
        window = self.window_at(round_index)
        if window is None:
            return (tuple(range(self.num_nodes)),)
        return window.groups

    def partition_active(self, round_index: int) -> bool:
        """Whether a partition window covers ``round_index``."""
        return self.window_at(round_index) is not None
