"""``Cell.bbox`` memoization against the uncached recursive walk.

``oracle_bbox`` is the extent computation exactly as it was before the memo:
own shapes, labels and every instance's transformed child extent, walked
from scratch on every call.  The memo must agree with it on every cell
after any sequence of edits, at any depth, through every mutation method.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.geometry.transform import Orientation, Transform
from repro.layout.cell import Cell
from repro.layout.flatten import flatten_cell
from repro.layout.shapes import Shape
from repro.pnr.router import PnrRouter, RouteRequest
from repro.store.hashing import cell_digest
from repro.technology import nmos_technology


def oracle_bbox(cell):
    box = BoundingBox()
    for shape in cell.shapes:
        box.add_rect(shape.bbox)
    for label in cell.labels:
        box.add_point(label.position)
    for instance in cell.instances:
        child = oracle_bbox(instance.cell)
        if child is not None:
            box.add_rect(child.transformed(instance.transform))
    return None if box.is_empty else box.rect()


def assert_memo_matches_oracle(cells):
    for cell in cells:
        expected = oracle_bbox(cell)
        assert cell.bbox() == expected, cell.name
        assert cell.width == (0 if expected is None else expected.width)
        assert cell.height == (0 if expected is None else expected.height)


coord = st.integers(-40, 40)
size = st.integers(1, 15)
cell_index = st.integers(0, 5)

edit = st.one_of(
    st.tuples(st.just("box"), cell_index, coord, coord, size, size),
    st.tuples(st.just("rect"), cell_index, coord, coord, size, size),
    st.tuples(st.just("polygon"), cell_index, coord, coord, size, size),
    st.tuples(st.just("wire"), cell_index, coord, coord, size, size),
    st.tuples(st.just("label"), cell_index, coord, coord),
    st.tuples(st.just("port"), cell_index, coord, coord),
    st.tuples(st.just("instance"), cell_index, cell_index,
              st.sampled_from(list(Orientation)), coord, coord),
    st.tuples(st.just("remove"), cell_index, st.integers(0, 10)),
    st.tuples(st.just("query"), cell_index,
              st.sampled_from(["bbox", "width", "height", "instance"])),
)


def apply_edit(cells, op, serial):
    kind, target = op[0], cells[op[1]]
    if kind in ("box", "rect", "polygon", "wire"):
        x, y, w, h = op[2:]
        if kind == "box":
            target.add_box("metal", x, y, x + w, y + h)
        elif kind == "rect":
            target.add_rect("poly", Rect(x, y, x + w, y + h))
        elif kind == "polygon":
            target.add_polygon("diffusion", Polygon(
                [Point(x, y), Point(x + w, y), Point(x, y + h)]))
        else:
            target.add_wire("metal", [Point(x, y), Point(x + w, y),
                                      Point(x + w, y + h)], 3)
    elif kind == "label":
        target.add_label("l", Point(op[2], op[3]), "metal")
    elif kind == "port":
        target.add_port(f"p{serial}", Point(op[2], op[3]), "metal")
    elif kind == "instance":
        # Cells only instantiate lower-numbered cells: the graph stays a
        # DAG, and repeated picks give shared children and diamonds.
        child = cells[op[2]]
        if op[2] < op[1]:
            target.add_instance(child, Transform(op[3], Point(op[4], op[5])))
    elif kind == "remove":
        if target.shapes:
            target.remove_shape(target.shapes[op[2] % len(target.shapes)])
    elif op[2] == "bbox":
        target.bbox()
    elif op[2] == "width":
        target.width
    elif op[2] == "height":
        target.height
    else:
        for instance in target.instances:
            instance.bbox


def build_dag():
    """leaf <- (left, right) <- top: a diamond with a shared leaf."""
    leaf, left, right, top = (Cell(n) for n in ("leaf", "left", "right", "top"))
    leaf.add_box("metal", 0, 0, 4, 4)
    left.place(leaf, 0, 0)
    left.place(leaf, 10, 0, Orientation.R90)
    right.place(leaf, 0, 20, Orientation.MX)
    right.add_label("r", Point(-7, 3), "metal")
    top.place(left, 0, 0)
    top.place(right, 30, 0)
    return [leaf, left, right, top]


class TestMemoAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(edit, min_size=1, max_size=40))
    def test_random_edits_at_any_depth(self, ops):
        cells = [Cell(f"c{i}") for i in range(6)]
        for serial, op in enumerate(ops):
            apply_edit(cells, op, serial)
            assert_memo_matches_oracle(cells)

    def test_leaf_edit_invalidates_every_ancestor_of_a_diamond(self):
        leaf, left, right, top = cells = build_dag()
        assert_memo_matches_oracle(cells)
        leaf.add_box("metal", -50, -50, -40, -40)
        assert_memo_matches_oracle(cells)
        assert top.bbox().x1 < -40

    def test_sibling_memo_survives_an_unrelated_edit(self):
        leaf, left, right, top = build_dag()
        other = Cell("other")
        other.add_box("metal", 0, 0, 2, 2)
        top.place(other, 100, 100)
        top.bbox()
        memo = other._bbox_cache
        assert memo is not None
        leaf.add_box("metal", 0, 0, 9, 9)
        assert other._bbox_cache is memo
        assert other.bbox() is memo[1]

    def test_empty_cell_memoizes_none(self):
        cell = Cell("empty")
        assert cell.bbox() is None and cell.width == 0
        cell.add_label("x", Point(3, 4))
        assert cell.bbox() == Rect(3, 4, 3, 4)


class TestPickling:
    def test_round_trip_drops_memo_and_keeps_propagation(self):
        cells = build_dag()
        assert_memo_matches_oracle(cells)
        top = pickle.loads(pickle.dumps(cells[3]))
        assert top._bbox_cache is None
        assert top.bbox() == cells[3].bbox()
        left = top.instances[0].cell
        leaf = left.instances[0].cell
        leaf.add_box("metal", 200, 200, 210, 210)
        assert top.bbox() == oracle_bbox(top)
        assert top.bbox().x2 == 210

    def test_pickles_keep_the_format_from_before_the_memo(self):
        cells = build_dag()
        assert_memo_matches_oracle(cells)
        blob = pickle.dumps(cells[3])
        # No memo key in the state: blobs written before the memo existed
        # and blobs written now are the same format, and both load.
        assert b"_bbox_cache" not in blob
        top = pickle.loads(blob)
        assert top.bbox() == oracle_bbox(top) == cells[3].bbox()
        top.instances[1].cell.add_box("metal", 0, 0, 1, 90)
        assert top.bbox() == oracle_bbox(top)


class TestRipUpKeepsTheCounter:
    """Rip-up and restore must go through the mutation API, or every cache
    keyed on ``subtree_version`` serves the routed cell for the unrouted one."""

    def build(self):
        block = Cell("block")
        block.add_box("metal", 0, 0, 20, 20)
        chip = Cell("chip")
        chip.place(block, 0, 0)
        top = Cell("top")
        top.place(chip, 5, 5)
        router = PnrRouter(nmos_technology(), Rect(0, 0, 120, 120),
                           [Rect(0, 0, 20, 20)])
        return chip, top, router

    def snapshot(self, chip, top):
        return (len(flatten_cell(chip).shapes), cell_digest(chip),
                chip.bbox(), top.bbox())

    def test_undraw_and_restore_update_every_view(self):
        chip, top, router = self.build()
        unrouted = self.snapshot(chip, top)
        report = router.route_all(
            chip, [RouteRequest("n", Point(40, 40), Point(100, 100))])
        assert [net.name for net in report.routed] == ["n"]
        routed = self.snapshot(chip, top)
        assert routed[0] == unrouted[0] + 1
        assert routed[2] != unrouted[2] and routed[3] != unrouted[3]

        version = chip.subtree_version
        shape, rects, request = router._drawn["n"]
        router._undraw(chip, "n")
        assert chip.subtree_version > version
        assert self.snapshot(chip, top) == unrouted
        assert chip.bbox() == oracle_bbox(chip)

        router._restore(chip, "n", shape, rects, request)
        assert self.snapshot(chip, top) == routed
        assert top.bbox() == oracle_bbox(top)

    def test_remove_shape_rejects_an_absent_shape(self):
        chip, _, _ = self.build()
        version = chip.subtree_version
        with pytest.raises(ValueError):
            chip.remove_shape(Shape("metal", Rect(0, 0, 1, 1)))
        assert chip.subtree_version == version
