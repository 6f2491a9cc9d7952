"""Where did the time go: total and self time per span group of a trace.

The self time of a span is its duration minus the part covered by its
direct child spans on the same thread (same ``pid``/``tid``).  Summed over
a group of spans — by name or by category — self times never double-count
nested work, so the groups' self times add up to the traced wall time of
each thread::

    python -m repro.obs profile trace.json [--by name|cat]

prints, per group, the span count, the total (inclusive) seconds, the self
seconds and the self share, largest self time first.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, NamedTuple, Tuple


class ProfileRow(NamedTuple):
    key: str
    count: int
    total_us: int
    self_us: int


def self_times(events: List[dict]) -> List[int]:
    """Self time in microseconds of each complete (``"X"``) event.

    Returns one value per event of ``events`` in input order; events of
    any other phase get 0.  Spans nest only within one pid/tid.  Events are
    recorded in completion order, so of two spans with the same interval
    the later one encloses the earlier.
    """
    own = [event["dur"] if event.get("ph") == "X" else 0 for event in events]
    threads: Dict[Tuple[int, int], List[int]] = defaultdict(list)
    for index, event in enumerate(events):
        if event.get("ph") == "X":
            threads[(event["pid"], event["tid"])].append(index)
    for indices in threads.values():
        indices.sort(key=lambda i: (events[i]["ts"], -events[i]["dur"], -i))
        stack: List[Tuple[int, int]] = []       # (event index, end time)
        for i in indices:
            start = events[i]["ts"]
            end = start + events[i]["dur"]
            while stack and start >= stack[-1][1]:
                stack.pop()
            if stack:
                parent, parent_end = stack[-1]
                own[parent] -= min(end, parent_end) - start
            stack.append((i, end))
    return own


def profile(events: List[dict], by: str = "name") -> List[ProfileRow]:
    """Group the complete events of a trace by ``by`` (``"name"`` or
    ``"cat"``); rows are sorted by self time, largest first."""
    if by not in ("name", "cat"):
        raise ValueError(f"cannot group spans by {by!r}")
    rows: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
    for event, own in zip(events, self_times(events)):
        if event.get("ph") != "X":
            continue
        row = rows[event[by]]
        row[0] += 1
        row[1] += event["dur"]
        row[2] += own
    return sorted((ProfileRow(key, *row) for key, row in rows.items()),
                  key=lambda row: (-row.self_us, row.key))


def format_profile(rows: List[ProfileRow], by: str = "name") -> str:
    """The table ``python -m repro.obs profile`` prints."""
    traced = sum(row.self_us for row in rows)
    width = max([len(by)] + [len(row.key) for row in rows]) + 2
    lines = [f"{by:<{width}}{'count':>8}{'total s':>11}{'self s':>11}"
             f"{'self %':>9}"]
    for row in rows:
        share = row.self_us / traced if traced else 0.0
        lines.append(f"{row.key:<{width}}{row.count:>8}"
                     f"{row.total_us / 1e6:>11.4f}{row.self_us / 1e6:>11.4f}"
                     f"{share:>9.1%}")
    lines.append(f"{'traced':<{width}}{'':>8}{'':>11}{traced / 1e6:>11.4f}")
    return "\n".join(lines)
