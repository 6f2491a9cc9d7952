"""Per-layer ledger of a traced pass: self times, counts and ratios.

Self time of a span is its duration minus the part its child spans cover.
Every span of a pass is assigned to one layer by its name (the spans
``src/`` already emits, plus the benchmark's own around generator calls,
``MazeRouter.route`` and the CIF write); a layer's time is the sum of its
spans' self times, and whatever the named layers do not cover is
``unattributed_s``.
"""

from __future__ import annotations

import functools
from typing import Dict, List

from repro.obs import trace
from repro.pnr.router import MazeRouter

#: Span name -> layer, for names that do not follow a prefix rule below.
_EXACT = {
    "generators.cell": "generators.cell_s",
    "assembly.place": "assembly.place_s",
    "assembly.assemble": "assembly.other_s",
    "assembly.pad_ring": "assembly.other_s",
    "assembly.route": "assembly.other_s",
    "hier.measure": "hier.measure_s",
    "store.get": "store.get_s",
    "store.put": "store.put_s",
    "cif.write": "cif.write_s",
}

#: Name prefix -> layer.  The flat engines run inside hier artifact builds.
_PREFIX = [
    ("pnr.", "pnr.route_all_s"),
    ("hier.drc", "hier.drc_s"), ("hier.build.drc", "hier.drc_s"),
    ("drc.", "hier.drc_s"),
    ("hier.extract", "hier.extract_s"), ("hier.build.extract", "hier.extract_s"),
    ("extract.", "hier.extract_s"),
    ("hier.timing", "hier.timing_s"), ("hier.build.timing", "hier.timing_s"),
    ("sta.", "hier.timing_s"),
    ("hier.erc", "hier.erc_s"), ("hier.build.erc", "hier.erc_s"),
    ("erc.", "hier.erc_s"),
]

TIME_LAYERS = ["generators.cell_s", "assembly.place_s", "assembly.other_s",
               "pnr.route_all_s", "hier.drc_s", "hier.extract_s",
               "hier.timing_s", "hier.erc_s", "hier.measure_s",
               "store.get_s", "store.put_s", "cif.write_s"]

#: The benchmark's span around each ``MazeRouter.route`` call.
MAZE_SPAN = "pnr.maze_router.route"


def layer_of(name: str) -> str:
    if name in _EXACT:
        return _EXACT[name]
    for prefix, layer in _PREFIX:
        if name.startswith(prefix):
            return layer
    return "unattributed_s"


def instrument_maze_router() -> None:
    """Wrap ``MazeRouter.route`` in a span naming its lattice.

    A router whose pitch is below wire width plus spacing is the half-pitch
    retry lattice; the span records ``error`` when the search raised.
    """
    route = MazeRouter.route

    @functools.wraps(route)
    def traced_route(self, request):
        lattice = ("half_pitch" if self.pitch < self.wire_width + self.spacing
                   else "coarse")
        with trace.span(MAZE_SPAN, cat="pnr", lattice=lattice,
                        net=request.name):
            return route(self, request)

    MazeRouter.route = traced_route


def self_times(events: List[dict]) -> List[int]:
    """Self time in microseconds of each complete event, in input order.

    Events are in completion order, so of two spans with the same interval
    the later one encloses the earlier.
    """
    order = sorted(range(len(events)),
                   key=lambda i: (events[i]["ts"], -events[i]["dur"], -i))
    own = [event["dur"] for event in events]
    stack: List[int] = []
    for i in order:
        start = events[i]["ts"]
        end = start + events[i]["dur"]
        while stack and start >= events[stack[-1]]["ts"] + events[stack[-1]]["dur"]:
            stack.pop()
        if stack:
            parent = stack[-1]
            parent_end = events[parent]["ts"] + events[parent]["dur"]
            own[parent] -= min(end, parent_end) - start
        stack.append(i)
    return [max(value, 0) for value in own]


def pass_ledger(events: List[dict], analyzer, before: Dict, after: Dict,
                result) -> Dict[str, float]:
    """Per-layer numbers of one traced pass (times in seconds)."""
    spans = [event for event in events if event.get("ph") == "X"]
    own = self_times(spans)
    pass_us = sum(e["dur"] for e in spans if e["name"] == "bench.pass")
    ledger = {layer: 0.0 for layer in TIME_LAYERS}
    for event, us in zip(spans, own):
        layer = layer_of(event["name"])
        if layer != "unattributed_s":
            ledger[layer] += us / 1e6
    ledger["unattributed_s"] = pass_us / 1e6 - sum(ledger.values())

    maze = [e for e in spans if e["name"] == MAZE_SPAN]
    maze_us = sum(e["dur"] for e in maze)
    failed_us = sum(e["dur"] for e in maze if "error" in e["args"])
    ledger["pnr.maze.calls"] = len(maze)
    ledger["pnr.maze.failed"] = sum(1 for e in maze if "error" in e["args"])
    for lattice in ("coarse", "half_pitch"):
        ledger[f"pnr.maze.{lattice}_s"] = sum(
            e["dur"] for e in maze if e["args"]["lattice"] == lattice) / 1e6
    ledger["pnr.maze.wasted_share"] = failed_us / maze_us if maze_us else 0.0
    for name in ("pnr.ripup.attempts", "pnr.ripup.success"):
        ledger[name] = after.get(name, 0) - before.get(name, 0)

    stats = analyzer.stats
    built = sum(stats[f"{kind}_artifacts"]
                for kind in ("drc", "extract", "timing", "erc"))
    hits = sum(stats[f"{kind}_hits"]
               for kind in ("drc", "extract", "timing", "erc"))
    ledger["hier.artifacts_built"] = built
    ledger["hier.hit_ratio"] = hits / (hits + built) if hits + built else 0.0

    store = analyzer.store.stats()
    gets = store["hits"] + store["misses"]
    ledger["store.puts"] = store["puts"]
    ledger["store.gets"] = gets
    ledger["store.hit_ratio"] = store["hits"] / gets if gets else 0.0
    ledger["store.bytes"] = store.get("memory", store)["bytes"]
    ledger["cif.bytes"] = len(result.cif_text)
    return ledger


def format_table(ledger: Dict[str, float], pass_s: float) -> str:
    """The self-time table of one pass, largest layer first."""
    rows = sorted(TIME_LAYERS + ["unattributed_s"],
                  key=lambda layer: -ledger[layer])
    lines = [f"{'layer':<22}{'self s':>10}{'share':>9}"]
    for layer in rows:
        share = ledger[layer] / pass_s if pass_s else 0.0
        lines.append(f"{layer:<22}{ledger[layer]:>10.4f}{share:>8.1%}")
    lines.append(f"{'pass':<22}{pass_s:>10.4f}")
    return "\n".join(lines)
