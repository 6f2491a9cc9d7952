"""Maze router occupancy map: oracle properties, lattice sync and causes.

``MazeRouter`` answers "may a wire be centred on this lattice node?" with
one read of a per-node blocked count.  The predicate it replaced — a
spatial-index query over the static obstacles minus the request's terminal
exemption, plus a scan of every routed rectangle — lives here as the
oracle, and hypothesis pins the map to it on every node of both the coarse
and the half-pitch lattice.  The reachability proof that runs before each
search is pinned against a plain breadth-first walk over the oracle.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.index import build_index
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.layout.cell import Cell
from repro.obs import trace
from repro.pnr.router import (
    MazeRouter,
    PnrRouter,
    RouteRequest,
    RoutingError,
    failure_cause,
)
from repro.technology import nmos_technology


def oracle(router, obstacles, routed=(), exempt=frozenset()):
    """The pre-map free-node predicate over ``router``'s lattice geometry:
    a spatial-index query of the static obstacles, skipping the exempt
    ids, then a scan of every routed rectangle."""
    index = build_index(list(obstacles))
    half = router.wire_width // 2
    other = router.wire_width - half
    bounds = router.bounds

    def free(x, y):
        foot = Rect(x - half, y - half, x + other, y + other)
        if not (bounds.x1 <= foot.x1 and foot.x2 <= bounds.x2
                and bounds.y1 <= foot.y1 and foot.y2 <= bounds.y2):
            return False
        probe = foot.expanded(router.spacing)
        for i in index.query(probe, strict=True):
            if i not in exempt:
                return False
        for rect in routed:
            if probe.overlaps(rect, strict=True):
                return False
        return True

    return free


def lattice_nodes(router):
    """Every node of the router's lattice plus a ring of nodes beyond it."""
    pitch, bounds = router.pitch, router.bounds
    columns = (bounds.x2 - bounds.x1) // pitch + 1
    rows = (bounds.y2 - bounds.y1) // pitch + 1
    for j in range(-2, rows + 2):
        for i in range(-2, columns + 2):
            yield bounds.x1 + i * pitch, bounds.y1 + j * pitch


def assert_map_matches_oracle(router, obstacles, routed, exempt=frozenset()):
    free = oracle(router, obstacles, routed, exempt)
    for x, y in lattice_nodes(router):
        assert router._free(x, y) == free(x, y), (router.pitch, x, y)


def oracle_connected(router, obstacles, a, b):
    """Plain breadth-first walk over the oracle's free nodes."""
    pitch = router.pitch
    free = oracle(router, obstacles)
    seen, queue = {a}, deque([a])
    while queue:
        x, y = queue.popleft()
        if (x, y) == b:
            return True
        for nx, ny in ((x + pitch, y), (x - pitch, y),
                       (x, y + pitch), (x, y - pitch)):
            if (nx, ny) not in seen and free(nx, ny):
                seen.add((nx, ny))
                queue.append((nx, ny))
    return False


# Rectangles over a small region, many degenerate (zero width or height) or
# partly or wholly outside the routing bounds.
coords = st.integers(min_value=-15, max_value=75)
sizes = st.one_of(st.just(0), st.integers(min_value=1, max_value=25))
rects = st.builds(lambda x, y, w, h: Rect(x, y, x + w, y + h),
                  coords, coords, sizes, sizes)
scenes = st.fixed_dictionaries({
    "bounds": st.builds(lambda x, y, w, h: Rect(x, y, x + w, y + h),
                        st.integers(-5, 5), st.integers(-5, 5),
                        st.integers(0, 60), st.integers(0, 60)),
    "obstacles": st.lists(rects, max_size=12),
    "wire_width": st.integers(1, 4),
    "spacing": st.integers(0, 3),
})


def lattices(scene):
    """Coarse and half-pitch routers over one scene."""
    pitch = scene["wire_width"] + scene["spacing"]
    return [MazeRouter(scene["bounds"], scene["obstacles"],
                       wire_width=scene["wire_width"],
                       spacing=scene["spacing"], grid=grid)
            for grid in (None, max(1, pitch // 2))]


class TestOccupancyMap:
    @settings(max_examples=60, deadline=None)
    @given(scene=scenes,
           pool=st.lists(rects, min_size=1, max_size=6),
           ops=st.lists(st.tuples(st.booleans(), st.integers(0, 5)),
                        max_size=14),
           exempt=st.sets(st.integers(0, 11), max_size=5))
    def test_map_equals_oracle(self, scene, pool, ops, exempt):
        obstacles = scene["obstacles"]
        exempt = {i % len(obstacles) for i in exempt} if obstacles else set()
        for router in lattices(scene):
            routed = []
            for add, pick in ops:
                rect = pool[pick % len(pool)]
                if add:
                    router.add_obstacles([rect])
                    routed.append(rect)
                else:
                    # Removing a rectangle never added is a no-op.
                    router.remove_obstacles([rect])
                    if rect in routed:
                        routed.remove(rect)
            assert_map_matches_oracle(router, obstacles, routed)
            with router._exempting(exempt):
                assert_map_matches_oracle(router, obstacles, routed, exempt)
            assert_map_matches_oracle(router, obstacles, routed)

    @settings(max_examples=60, deadline=None)
    @given(scene=scenes, data=st.data())
    def test_proof_agrees_with_bfs(self, scene, data):
        obstacles = scene["obstacles"]
        for router in lattices(scene):
            free = oracle(router, obstacles)
            free = [node for node in lattice_nodes(router) if free(*node)]
            if not free:
                continue
            a = data.draw(st.sampled_from(free))
            b = data.draw(st.sampled_from(free))
            assert router._connected(router._node(*a), router._node(*b)) == (
                oracle_connected(router, obstacles, a, b))

    def test_removing_unknown_rect_leaves_counts(self):
        router = MazeRouter(Rect(0, 0, 60, 60), [Rect(20, 20, 30, 30)])
        router.add_obstacles([Rect(5, 5, 10, 10)])
        before = list(router._blocked)
        router.remove_obstacles([Rect(40, 40, 50, 50), Rect(5, 5, 10, 11)])
        assert router._blocked == before

    def test_counts_do_not_wrap(self):
        router = MazeRouter(Rect(0, 0, 30, 30), [])
        wire = Rect(12, 12, 15, 15)
        node = router._node(12, 12)
        router.add_obstacles([wire] * (2 ** 16 + 1))
        assert router._blocked[node] == 2 ** 16 + 1
        router.remove_obstacles([wire] * 2 ** 16)
        assert not router._free(12, 12)
        router.remove_obstacles([wire])
        assert router._free(12, 12)


class TestLatticeSync:
    @settings(max_examples=40, deadline=None)
    @given(obstacles=st.lists(rects, max_size=8),
           pool=st.lists(rects, min_size=1, max_size=3),
           ops=st.lists(st.tuples(st.booleans(), st.integers(0, 2)),
                        max_size=12),
           build_at=st.integers(0, 12))
    def test_coarse_and_half_pitch_maps_stay_in_step(self, obstacles, pool,
                                                      ops, build_at):
        router = PnrRouter(nmos_technology(), Rect(0, 0, 60, 60), obstacles)
        routed = []
        for step, (add, pick) in enumerate(ops):
            if step == build_at:
                # The half-pitch lattice is built lazily, mid-sequence.
                router._fine_router()
            rect = pool[pick % len(pool)]
            if add:
                router._block([rect])
                routed.append(rect)
            else:
                router._unblock([rect])
                if rect in routed:
                    routed.remove(rect)
        fine = router._fine_router()
        assert fine.pitch == router.pitch // 2
        for maze in (router.maze, fine):
            assert_map_matches_oracle(maze, obstacles, routed)

    def test_no_half_pitch_lattice_below_pitch_four(self):
        router = PnrRouter(nmos_technology(), Rect(0, 0, 60, 60), [], grid=3)
        with pytest.raises(RoutingError, match="half-pitch") as excinfo:
            router._fine_router()
        assert excinfo.value.cause == "unreachable"


class TestInvalidLattice:
    @pytest.mark.parametrize("grid", [0, -6])
    def test_non_positive_pitch_is_rejected(self, grid):
        with pytest.raises(ValueError, match="pitch"):
            MazeRouter(Rect(0, 0, 60, 60), [], grid=grid)

    def test_zero_wire_width_is_rejected(self):
        with pytest.raises(ValueError, match="width"):
            MazeRouter(Rect(0, 0, 60, 60), [], wire_width=0)


# A closed metal ring round (60, 60): the target is free but sealed in.
RING = [Rect(40, 40, 80, 43), Rect(40, 77, 80, 80),
        Rect(40, 40, 43, 80), Rect(77, 40, 80, 80)]
SEALED = RouteRequest("sealed", Point(12, 12), Point(60, 60))


class TestFailureCause:
    @pytest.fixture(autouse=True)
    def clean_trace(self):
        trace.disable()
        trace.reset()
        yield
        trace.disable()
        trace.reset()

    def test_unreachable_fails_before_any_expansion(self):
        # A zero expansion budget would raise BudgetExceeded on the first
        # pop: the proof must decide first.  The tab under the source is
        # exempt while the request runs.
        obstacles = RING + [Rect(10, 10, 14, 14)]
        router = MazeRouter(Rect(0, 0, 120, 120), obstacles, max_expansions=0)
        with pytest.raises(RoutingError) as excinfo:
            router.route(SEALED)
        error = excinfo.value
        assert error.cause == "unreachable"
        assert str(error) == (f"net 'sealed': no path from {SEALED.source} "
                              f"to {SEALED.target}")
        assert error.diagnostic.code == "ROU005"
        assert error.diagnostic.hint == "the routing region may be fully blocked"
        # The exemption fold is undone even though the request raised.
        assert_map_matches_oracle(router, obstacles, [])

    @pytest.mark.parametrize("obstacles, max_expansions, cause", [
        (RING, 200_000, "unreachable"),
        ([], 3, "budget"),
    ])
    def test_escalation_spans_record_cause(self, obstacles, max_expansions,
                                           cause):
        trace.enable()
        router = PnrRouter(nmos_technology(), Rect(0, 0, 120, 120),
                           obstacles, max_expansions=max_expansions)
        report = router.route_all(Cell("cause"), [SEALED])
        assert [request for request, _ in report.failed] == [SEALED]
        assert failure_cause(report.failed[0][1]) == cause
        spans = {event["name"]: event["args"] for event in trace.drain()}
        for name in ("pnr.maze", "pnr.half_pitch", "pnr.ripup"):
            assert spans[name]["cause"] == cause, name
