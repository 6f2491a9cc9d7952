"""Obstacle-aware grid routing (Lee/Dijkstra maze search).

The maze router works on a uniform lattice over the routing region.  A
lattice node is usable when a wire footprint centred there, grown by the
technology's spacing, lies inside the region and shares no interior area
with a blockage — blockages being every metal rectangle of the placed
blocks and pad ring plus the wires of previously routed nets.  Metal is the
routing layer and only metal blocks it: poly and diffusion running
underneath cannot short to a route without a contact cut, which the router
never draws.

**Occupancy map.**  Each :class:`MazeRouter` keeps one reference count per
lattice node: how many blockages it currently has.  The static obstacles
are stamped once at construction; ``add_obstacles``/``remove_obstacles``
stamp or un-stamp a routed wire in time proportional to its footprint, so
rip-up and restore are cheap and a node is free exactly when its count is
zero.  Nodes whose footprint leaves the region carry a permanent count, as
does a ring of sentinel nodes round the lattice, so the searches step to a
neighbour without bounds checks.  A route may land on the metal at its own
terminals (pad tail, block port tab): those static obstacles are un-stamped
for the duration of the request and restored afterwards, which folds the
per-request exemption into the same map.

**Reachability proof.**  Before searching, a bidirectional breadth-first
walk over free nodes, always growing the smaller frontier, decides whether
the terminals share a free region.  When they do not, the request fails at
once with ``ROU005`` (cause ``"unreachable"``) after exploring only the
smaller side, instead of flooding the larger one.

**Search.**  Dijkstra with unit step cost and a small turn penalty (fewer
corners means fewer rectangles and less capacitance), budget-bounded so a
search that cannot finish raises ``ROU006`` (cause ``"budget"``) instead of
hanging.  Equal-cost ties break in push order, so routes depend only on the
obstacle set.  Where a whole group of connections faces one pad-ring side
across an empty corridor, :class:`PnrRouter` skips the maze entirely and
hands the group to the planar river router — the cheap, provably
non-crossing special case.
"""

from __future__ import annotations

import heapq
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.assembly.river import RiverRoutingError, river_route
from repro.diagnostics import (
    Budget,
    BudgetExceeded,
    Diagnostic,
    DiagnosticError,
    Severity,
)
from repro.geometry.index import SpatialIndex, build_index
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.layout.cell import Cell
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.technology.technology import Technology


class RoutingError(DiagnosticError, ValueError):
    """No path exists between the requested terminals.

    ``cause`` names why the attempt failed: ``"unreachable"`` when the
    terminals are blocked or lie in different free regions of the lattice,
    ``"budget"`` when the search ran out of expansions first.
    """

    default_code = "ROU005"

    def __init__(self, message: str,
                 diagnostic: Optional[Diagnostic] = None,
                 cause: str = "unreachable"):
        super().__init__(message, diagnostic)
        self.cause = cause


#: The exceptions a failed route attempt raises.
ROUTE_FAILURES = (RoutingError, BudgetExceeded)


def failure_cause(error: Exception) -> str:
    """``"unreachable"`` or ``"budget"`` for a failed route attempt."""
    if isinstance(error, RoutingError):
        return error.cause
    return "budget"


@dataclass(frozen=True)
class RouteRequest:
    """One two-terminal connection to route."""

    name: str
    source: Point
    target: Point
    #: Pad-ring side the source sits on, when known ("south"/"north"/
    #: "east"/"west"); enables the river-corridor fast path.
    side: str = ""


@dataclass
class RoutedNet:
    """One successfully routed connection."""

    name: str
    points: List[Point]
    length: int
    method: str = "maze"    # "maze" or "river"


@dataclass
class RoutingReport:
    """Outcome of routing a batch of requests."""

    routed: List[RoutedNet] = field(default_factory=list)
    failed: List[Tuple[RouteRequest, Exception]] = field(default_factory=list)

    @property
    def completion(self) -> float:
        total = len(self.routed) + len(self.failed)
        if total == 0:
            return 1.0
        return len(self.routed) / total


class MazeRouter:
    """Grid router over a fixed obstacle set plus accumulated routes.

    Lattice node ``(i, j)`` sits at ``(x1 + i * pitch, y1 + j * pitch)`` of
    ``bounds`` and is stored at ``(j + 1) * stride + i + 1`` of the
    occupancy map, one sentinel column and row padding each side.
    """

    def __init__(self, bounds: Rect, obstacles: Sequence[Rect],
                 wire_width: int = 3, spacing: int = 3,
                 grid: Optional[int] = None,
                 turn_cost: int = 2,
                 max_expansions: int = 200_000):
        pitch = grid if grid is not None else wire_width + spacing
        if wire_width < 1 or pitch < 1:
            raise ValueError(
                f"maze lattice needs wire width >= 1 and pitch >= 1, got "
                f"width {wire_width} and pitch {pitch}")
        self.bounds = bounds
        self.wire_width = wire_width
        self.spacing = spacing
        self.pitch = pitch
        self.turn_cost = turn_cost
        self.max_expansions = max_expansions
        self._obstacles = list(obstacles)
        self._index: SpatialIndex = build_index(self._obstacles)
        #: Wires routed so far, as a multiset (each copy is stamped once).
        self._routed: Counter = Counter()
        self._cols = max(0, (bounds.x2 - bounds.x1) // pitch + 1)
        self._rows = max(0, (bounds.y2 - bounds.y1) // pitch + 1)
        self._stride = self._cols + 2
        self._blocked = self._boundary_map()
        for rect in self._obstacles:
            self._stamp(rect, 1)

    # -- occupancy map ---------------------------------------------------------------

    def _boundary_map(self) -> List[int]:
        """Count 1 on sentinels and on nodes whose footprint leaves the
        bounds, 0 elsewhere."""
        half = self.wire_width // 2
        other = self.wire_width - half
        pitch, bounds = self.pitch, self.bounds

        def inside(low: int, high: int, count: int) -> List[bool]:
            return ([False]
                    + [low <= low + k * pitch - half
                       and low + k * pitch + other <= high
                       for k in range(count)]
                    + [False])

        columns = inside(bounds.x1, bounds.x2, self._cols)
        return [0 if row_ok and column_ok else 1
                for row_ok in inside(bounds.y1, bounds.y2, self._rows)
                for column_ok in columns]

    def _stamp(self, rect: Rect, delta: int) -> None:
        """Add ``delta`` to the count of every node ``rect`` blocks.

        ``rect`` blocks node ``(x, y)`` when it shares interior area with
        the node's footprint grown by the spacing: ``x - w//2 - s < x2`` and
        ``x1 < x + (w - w//2) + s``, and likewise in y.
        """
        below = self.wire_width // 2 + self.spacing
        above = self.wire_width - self.wire_width // 2 + self.spacing
        pitch, bounds = self.pitch, self.bounds
        i1 = max((rect.x1 - above - bounds.x1) // pitch + 1, 0)
        i2 = min((rect.x2 + below - bounds.x1 - 1) // pitch, self._cols - 1)
        j1 = max((rect.y1 - above - bounds.y1) // pitch + 1, 0)
        j2 = min((rect.y2 + below - bounds.y1 - 1) // pitch, self._rows - 1)
        if i1 > i2:
            return
        blocked, stride = self._blocked, self._stride
        for j in range(j1 + 1, j2 + 2):
            start, stop = j * stride + i1 + 1, j * stride + i2 + 2
            blocked[start:stop] = [count + delta
                                   for count in blocked[start:stop]]

    def _node(self, x: int, y: int) -> Optional[int]:
        """Map slot of lattice node ``(x, y)``; ``None`` off the lattice."""
        i = (x - self.bounds.x1) // self.pitch
        j = (y - self.bounds.y1) // self.pitch
        if 0 <= i < self._cols and 0 <= j < self._rows:
            return (j + 1) * self._stride + i + 1
        return None

    def _point(self, node: int) -> Point:
        j, i = divmod(node, self._stride)
        return Point(self.bounds.x1 + (i - 1) * self.pitch,
                     self.bounds.y1 + (j - 1) * self.pitch)

    def _free(self, x: int, y: int) -> bool:
        """Whether a wire may be centred on lattice node ``(x, y)``."""
        node = self._node(x, y)
        return node is not None and not self._blocked[node]

    # -- obstacle bookkeeping --------------------------------------------------------

    def add_obstacles(self, rects: Sequence[Rect]) -> None:
        """Block future routes with ``rects`` (e.g. a net just drawn)."""
        for rect in rects:
            self._routed[rect] += 1
            self._stamp(rect, 1)

    def remove_obstacles(self, rects: Sequence[Rect]) -> None:
        """Unblock ``rects`` previously added (e.g. a ripped-up net).

        A rectangle not currently added is ignored.
        """
        for rect in rects:
            if not self._routed[rect]:
                continue
            self._routed[rect] -= 1
            if not self._routed[rect]:
                del self._routed[rect]
            self._stamp(rect, -1)

    def _exempt_ids(self, *points: Point) -> Set[int]:
        """Static obstacles a route may legally touch: the terminal shapes.

        Everything overlapping a terminal's immediate footprint is the metal
        the route must land on (pad tail, block port tab); spacing to it is
        not required — connecting to it is the point.
        """
        reach = self.wire_width // 2 + self.spacing
        exempt: Set[int] = set()
        for point in points:
            probe = Rect(point.x - reach, point.y - reach,
                         point.x + reach, point.y + reach)
            exempt.update(self._index.query(probe))
        return exempt

    @contextmanager
    def _exempting(self, ids: Set[int]) -> Iterator[None]:
        """Un-stamp the static obstacles ``ids`` for the duration."""
        rects = [self._obstacles[i] for i in ids]
        for rect in rects:
            self._stamp(rect, -1)
        try:
            yield
        finally:
            for rect in rects:
                self._stamp(rect, 1)

    # -- search ---------------------------------------------------------------------

    def route(self, request: RouteRequest) -> RoutedNet:
        """Find a Manhattan path from source to target.

        Raises :class:`RoutingError` (ROU005) when the terminals cannot be
        joined, or :class:`~repro.diagnostics.BudgetExceeded` (ROU006) when
        the expansion budget runs out first.
        """
        with self._exempting(self._exempt_ids(request.source,
                                              request.target)):
            return self._search(request)

    def _search(self, request: RouteRequest) -> RoutedNet:
        source, target = request.source, request.target
        start = self._snap(source)
        goal = self._snap(target)
        if start is None or goal is None:
            raise RoutingError(
                f"net {request.name!r}: no free grid node near "
                f"{'source' if start is None else 'target'}",
                Diagnostic(Severity.ERROR, "ROU005",
                           f"terminals of net {request.name!r} are blocked",
                           hint="clear the area around the terminals or "
                                "widen the routing region"))
        start_node, goal_node = self._node(*start), self._node(*goal)
        if not self._connected(start_node, goal_node):
            raise _no_path(request)

        message = (f"maze router exceeded {self.max_expansions} expansions "
                   f"routing net {request.name!r}")
        budget = Budget(iterations=self.max_expansions,
                        label=f"maze expansion for {request.name}",
                        code="ROU006")
        blocked, pitch, turn_cost = self._blocked, self.pitch, self.turn_cost
        moves = ((1, 1), (-1, 1), (self._stride, 2), (-self._stride, 2))
        # State: node * 4 + heading; headings 0=none, 1=horizontal, 2=vertical.
        came: Dict[int, int] = {}
        costs: Dict[int, int] = {start_node * 4: 0}
        frontier: List[Tuple[int, int, int]] = [(0, 0, start_node * 4)]
        tie = 0
        found: Optional[int] = None
        while frontier:
            budget.tick(message)
            cost, _, state = heapq.heappop(frontier)
            if cost > costs.get(state, cost):
                continue
            node, heading = state >> 2, state & 3
            if node == goal_node:
                found = state
                break
            for move, new_heading in moves:
                next_node = node + move
                if blocked[next_node]:
                    continue
                step = pitch
                if heading and new_heading != heading:
                    step += turn_cost
                next_state = next_node * 4 + new_heading
                next_cost = cost + step
                if next_cost < costs.get(next_state, next_cost + 1):
                    costs[next_state] = next_cost
                    came[next_state] = state
                    tie += 1
                    heapq.heappush(frontier, (next_cost, tie, next_state))
        if found is None:
            raise _no_path(request)

        points = self._reconstruct(came, found, start_node)
        points = _attach(source, points, prepend=True)
        points = _attach(target, points, prepend=False)
        points = _simplify(points)
        return RoutedNet(request.name, points, _length(points))

    def _connected(self, a: int, b: int) -> bool:
        """Whether free nodes ``a`` and ``b`` share a free 4-neighbour region.

        Bidirectional breadth-first walk that always grows the smaller
        frontier, so a terminal walled into a pocket is proved unreachable
        after exploring only the pocket.
        """
        if a == b:
            return True
        blocked = self._blocked
        steps = (1, -1, self._stride, -self._stride)
        near_seen, far_seen = {a}, {b}
        near, far = [a], [b]
        while near and far:
            if len(near) > len(far):
                near, far = far, near
                near_seen, far_seen = far_seen, near_seen
            grown = []
            for node in near:
                for step in steps:
                    neighbour = node + step
                    if neighbour in far_seen:
                        return True
                    if blocked[neighbour] or neighbour in near_seen:
                        continue
                    near_seen.add(neighbour)
                    grown.append(neighbour)
            near = grown
        return False

    def _snap(self, point: Point) -> Optional[Tuple[int, int]]:
        """Nearest free lattice node to ``point`` (searching outwards)."""
        base_x = self.bounds.x1 + round((point.x - self.bounds.x1) / self.pitch) * self.pitch
        base_y = self.bounds.y1 + round((point.y - self.bounds.y1) / self.pitch) * self.pitch
        for ring in range(4):
            candidates = []
            for dx in range(-ring, ring + 1):
                for dy in range(-ring, ring + 1):
                    if max(abs(dx), abs(dy)) != ring:
                        continue
                    candidates.append((base_x + dx * self.pitch,
                                       base_y + dy * self.pitch))
            candidates.sort(key=lambda c: abs(c[0] - point.x) + abs(c[1] - point.y))
            for x, y in candidates:
                if self._free(x, y):
                    return (x, y)
        return None

    def _reconstruct(self, came: Dict[int, int], state: int,
                     start_node: int) -> List[Point]:
        points = [self._point(state >> 2)]
        while state in came:
            state = came[state]
            point = self._point(state >> 2)
            if point != points[-1]:
                points.append(point)
        start = self._point(start_node)
        if points[-1] != start:
            points.append(start)
        points.reverse()
        return points


def _no_path(request: RouteRequest) -> RoutingError:
    return RoutingError(
        f"net {request.name!r}: no path from {request.source} to "
        f"{request.target}",
        Diagnostic(Severity.ERROR, "ROU005",
                   f"maze router found no path for net {request.name!r}",
                   hint="the routing region may be fully blocked"))


class PnrRouter:
    """Route a batch of chip-level connections, corridor-first.

    Connections whose pads share one ring side, whose terminals are planar
    and whose corridor is free of blockages go to the river router as one
    group (no tracks burnt on straight runs, provably crossing-free);
    everything else is maze-routed one net at a time, each finished net
    becoming an obstacle for the next.
    """

    def __init__(self, technology: Technology, bounds: Rect,
                 obstacles: Sequence[Rect], layer: str = "metal",
                 grid: Optional[int] = None,
                 max_expansions: int = 200_000):
        rules = technology.rules
        self.layer = layer
        self.wire_width = rules.min_width(layer, default=3)
        self.spacing = rules.min_spacing(layer, default=3)
        self.maze = MazeRouter(bounds, obstacles,
                               wire_width=self.wire_width,
                               spacing=self.spacing, grid=grid,
                               max_expansions=max_expansions)
        #: Lazily built half-pitch lattice for nets the coarse grid cannot
        #: thread (four times the nodes, so only paid for on failure).
        self._fine_maze: Optional[MazeRouter] = None
        #: Per-net drawn geometry for maze-routed nets, so a net that seals
        #: the region against a later one can be ripped up and rerouted.
        self._drawn: Dict[str, Tuple["Shape", List[Rect], RouteRequest]] = {}

    @property
    def pitch(self) -> int:
        return self.maze.pitch

    def route_all(self, cell: Cell,
                  requests: Sequence[RouteRequest]) -> RoutingReport:
        """Route every request into ``cell``; failures are collected, not
        raised, so the caller decides between strict abort and fallback."""
        report = RoutingReport()
        with obs_trace.span("pnr.route_all", cat="pnr", cell=cell.name,
                            nets=len(requests)) as span:
            remaining = list(requests)
            for side in ("south", "north"):
                group = [r for r in remaining if r.side == side]
                with obs_trace.span("pnr.river", cat="pnr", side=side,
                                    nets=len(group)):
                    routed = self._try_river(cell, group, side)
                if routed:
                    obs_metrics.counter("pnr.route.river").inc(len(routed))
                    report.routed.extend(routed)
                    remaining = [r for r in remaining if r.side != side]
            for request in remaining:
                try:
                    with _traced("pnr.maze", request):
                        net = self.route_one(cell, request)
                    obs_metrics.counter("pnr.route.maze").inc()
                except ROUTE_FAILURES as error:
                    net = self._escalate(cell, request, report, error)
                    if net is None:
                        obs_metrics.counter("pnr.route.failed").inc()
                        report.failed.append((request, error))
                        continue
                report.routed.append(net)
            span.set(routed=len(report.routed), failed=len(report.failed))
        return report

    def route_one(self, cell: Cell, request: RouteRequest) -> RoutedNet:
        net = self.maze.route(request)
        self._draw(cell, request, net.points)
        return net

    def _escalate(self, cell: Cell, request: RouteRequest,
                  report: RoutingReport,
                  error: Exception) -> Optional[RoutedNet]:
        """Half-pitch retry, then rip-up, for a net the coarse maze failed
        with ``error``; ``None`` when both fail."""
        try:
            with _traced("pnr.half_pitch", request):
                net = self._retry_fine(cell, request)
            obs_metrics.counter("pnr.route.half_pitch").inc()
            return net
        except ROUTE_FAILURES:
            pass
        try:
            with _traced("pnr.ripup", request):
                net = self._rip_and_reroute(cell, request, report, error)
        except ROUTE_FAILURES:
            return None
        obs_metrics.counter("pnr.ripup.success").inc()
        return net

    def _retry_fine(self, cell: Cell, request: RouteRequest) -> RoutedNet:
        """Second attempt on a half-pitch lattice.

        A corridor narrower than one coarse pitch is invisible to the main
        grid; halving the pitch recovers those nets.  Raises like
        :meth:`MazeRouter.route`.
        """
        net = self._fine_router().route(request)
        self._draw(cell, request, net.points)
        return net

    def _fine_router(self) -> MazeRouter:
        """The half-pitch lattice, built on first use with every wire routed
        so far (later wires reach both lattices through ``_block``)."""
        fine = self.pitch // 2
        if fine < 2:
            raise RoutingError(
                f"pitch {self.pitch} has no half-pitch lattice",
                Diagnostic(Severity.ERROR, "ROU005",
                           "no half-pitch lattice below pitch 4",
                           hint="widen the routing pitch"))
        if self._fine_maze is None:
            self._fine_maze = MazeRouter(self.maze.bounds,
                                         self.maze._obstacles,
                                         wire_width=self.wire_width,
                                         spacing=self.spacing, grid=fine,
                                         max_expansions=self.maze.max_expansions)
            self._fine_maze.add_obstacles(list(self.maze._routed.elements()))
        return self._fine_maze

    def _route_with_retry(self, cell: Cell,
                          request: RouteRequest) -> RoutedNet:
        try:
            return self.route_one(cell, request)
        except ROUTE_FAILURES:
            return self._retry_fine(cell, request)

    def _rip_and_reroute(self, cell: Cell, request: RouteRequest,
                         report: RoutingReport,
                         error: Exception) -> RoutedNet:
        """Last resort: rip up an earlier net that seals the failed one in.

        Earlier maze routes become obstacles, and in a tight corridor the
        route that happens to go first can wall off the only path a later
        net has.  Try each earlier net as the victim, nearest to the failed
        net's bounding box first: rip it, route the failed net, then reroute
        the victim.  If either step fails the victim's original wire is
        restored and the next candidate is tried.  One level only — a
        victim's reroute never rips a third net.  Raises the last
        attempt's failure, or ``error`` when there was nothing to rip.
        """
        bbox = Rect(min(request.source.x, request.target.x),
                    min(request.source.y, request.target.y),
                    max(request.source.x, request.target.x),
                    max(request.source.y, request.target.y))

        def distance(rects: List[Rect]) -> int:
            best = None
            for rect in rects:
                dx = max(bbox.x1 - rect.x2, rect.x1 - bbox.x2, 0)
                dy = max(bbox.y1 - rect.y2, rect.y1 - bbox.y2, 0)
                if best is None or dx + dy < best:
                    best = dx + dy
            return best if best is not None else 0

        candidates = sorted(self._drawn.items(),
                            key=lambda item: distance(item[1][1]))
        for victim_name, (shape, rects, victim_request) in candidates:
            if victim_name == request.name:
                continue
            obs_metrics.counter("pnr.ripup.attempts").inc()
            self._undraw(cell, victim_name)
            try:
                net = self._route_with_retry(cell, request)
            except ROUTE_FAILURES as failure:
                error = failure
                self._restore(cell, victim_name, shape, rects, victim_request)
                continue
            try:
                victim_net = self._route_with_retry(cell, victim_request)
            except ROUTE_FAILURES as failure:
                # The victim can no longer route around the new wire: undo.
                error = failure
                self._undraw(cell, request.name)
                self._restore(cell, victim_name, shape, rects, victim_request)
                continue
            for index, routed in enumerate(report.routed):
                if routed.name == victim_name:
                    report.routed[index] = victim_net
                    break
            return net
        raise error

    def _undraw(self, cell: Cell, name: str) -> None:
        shape, rects, _ = self._drawn.pop(name)
        try:
            cell.remove_shape(shape)
        except ValueError:
            pass
        self._unblock(rects)

    def _restore(self, cell: Cell, name: str, shape, rects: List[Rect],
                 request: RouteRequest) -> None:
        cell.add_shape(shape)
        self._block(rects)
        self._drawn[name] = (shape, rects, request)

    def _block(self, rects: List[Rect]) -> None:
        """Stamp ``rects`` on every lattice built so far."""
        self.maze.add_obstacles(rects)
        if self._fine_maze is not None:
            self._fine_maze.add_obstacles(rects)

    def _unblock(self, rects: List[Rect]) -> None:
        self.maze.remove_obstacles(rects)
        if self._fine_maze is not None:
            self._fine_maze.remove_obstacles(rects)

    # -- river-corridor fast path ----------------------------------------------------

    def _try_river(self, cell: Cell, group: List[RouteRequest],
                   side: str) -> Optional[List[RoutedNet]]:
        """Route a whole side's pad connections as one planar river channel.

        Applicable when the group has two or more nets, both terminal rows
        are ordered identically left-to-right with room for vertical runs,
        and the corridor between the rows contains no blockage.  Returns
        ``None`` (try the maze) otherwise.
        """
        if len(group) < 2:
            return None
        ordered = sorted(group, key=lambda r: r.source.x)
        sources = [r.source for r in ordered]
        targets = [r.target for r in ordered]
        if [t.x for t in targets] != sorted(t.x for t in targets):
            return None
        min_gap = self.wire_width + self.spacing
        for row in (sources, targets):
            if any(b.x - a.x < min_gap for a, b in zip(row, row[1:])):
                return None
        if side == "south":
            bottom, top = sources, targets
        else:
            bottom, top = targets, sources
        if not all(b.y < t.y for b, t in zip(bottom, top)):
            return None
        floor = max(p.y for p in bottom)
        ceiling = min(p.y for p in top)
        jogs = sum(1 for b, t in zip(bottom, top) if b.x != t.x)
        pitch = self.pitch + 1
        if floor + (jogs + 1) * pitch >= ceiling:
            return None
        corridor = Rect(min(p.x for p in bottom + top) - min_gap, floor + 1,
                        max(p.x for p in bottom + top) + min_gap, ceiling - 1)
        exempt = self.maze._exempt_ids(*(bottom + top))
        blocked = [i for i in self.maze._index.query(
            corridor.expanded(self.spacing), strict=True) if i not in exempt]
        if blocked or any(corridor.expanded(self.spacing).overlaps(r, strict=True)
                          for r in self.maze._routed):
            return None
        try:
            route = river_route(cell, bottom, top, layer=self.layer,
                                wire_width=self.wire_width, pitch=pitch,
                                start_y=floor, spacing=self.spacing)
        except RiverRoutingError:
            return None
        routed: List[RoutedNet] = []
        for request, points in zip(ordered, route.wires):
            rects = _wire_rects(points, self.wire_width)
            self._block(rects)
            routed.append(RoutedNet(request.name, list(points),
                                    _length(points), method="river"))
        return routed

    def _draw(self, cell: Cell, request: RouteRequest,
              points: List[Point]) -> None:
        if len(points) < 2:
            return
        shape = cell.add_wire(self.layer, points, self.wire_width)
        rects = shape.as_rects()
        self._block(rects)
        self._drawn[request.name] = (shape, rects, request)


@contextmanager
def _traced(name: str, request: RouteRequest) -> Iterator[None]:
    """A ``pnr`` span round one routing attempt; a failure records its
    ``cause`` on the span before propagating."""
    with obs_trace.span(name, cat="pnr", net=request.name) as span:
        try:
            yield
        except ROUTE_FAILURES as error:
            span.set(cause=failure_cause(error))
            raise


# -- geometry helpers ---------------------------------------------------------------


def _attach(terminal: Point, points: List[Point], prepend: bool) -> List[Point]:
    """Join an off-grid terminal to the grid path with an L-tap."""
    anchor = points[0] if prepend else points[-1]
    if terminal == anchor:
        return points
    if terminal.x == anchor.x or terminal.y == anchor.y:
        joint: List[Point] = [terminal]
    else:
        joint = [terminal, Point(terminal.x, anchor.y)]
    if prepend:
        return joint + points
    return points + list(reversed(joint))


def _simplify(points: List[Point]) -> List[Point]:
    """Drop collinear intermediate points."""
    if len(points) < 3:
        return points
    out = [points[0]]
    for i in range(1, len(points) - 1):
        prev, cur, nxt = out[-1], points[i], points[i + 1]
        if (prev.x == cur.x == nxt.x) or (prev.y == cur.y == nxt.y):
            continue
        out.append(cur)
    out.append(points[-1])
    return out


def _length(points: Sequence[Point]) -> int:
    return sum(abs(a.x - b.x) + abs(a.y - b.y)
               for a, b in zip(points, points[1:]))


def _wire_rects(points: Sequence[Point], width: int) -> List[Rect]:
    half = width // 2
    other = width - half
    rects: List[Rect] = []
    for a, b in zip(points, points[1:]):
        if a.y == b.y:
            x1, x2 = sorted((a.x, b.x))
            rects.append(Rect(x1 - half, a.y - half, x2 + other, a.y + other))
        else:
            y1, y2 = sorted((a.y, b.y))
            rects.append(Rect(a.x - half, y1 - half, a.x + other, y2 + other))
    return rects
