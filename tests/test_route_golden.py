"""Route geometry golden for the ``chip_assembly`` family.

The sign-off goldens in ``test_pnr.py`` pin only properties of the routed
result (DRC-clean, complete, short-free).  This golden pins the geometry
itself: every routed net of the three family chips as ``(name, method,
points)`` in routing-report order, plus the SHA-256 of the family CIF the
example writes.  Any change to search order, tie-breaking, escalation or
rip-up victim choice moves a point here, so a router rewrite that claims
identical output has to reproduce it byte for byte.

Set ``REPRO_UPDATE_GOLDENS=1`` to regenerate after an intentional change.
"""

import hashlib
import json
import os
import sys

import pytest

from repro.cif import write_cif
from repro.layout import Library
from repro.technology import nmos_technology

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "examples"))
from chip_assembly import build_chip  # noqa: E402

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden", "family_routes.json")
UPDATE_GOLDENS = os.environ.get("REPRO_UPDATE_GOLDENS") == "1"

#: (datapath bits, auxiliary control terms), as in examples/chip_assembly.py.
FAMILY = [(4, 0), (8, 2), (16, 4)]


def family_routes():
    """Routed nets per chip and the family CIF digest, as the example builds
    them (same chip names, same library, same order)."""
    library = Library("chip_family", nmos_technology())
    chips = {}
    for bits, extra in FAMILY:
        name = f"family_{bits}b"
        assembler, chip = build_chip(name, bits, extra)
        library.add_cell(chip)
        chips[name] = [[net.name, net.method,
                        [[point.x, point.y] for point in net.points]]
                       for net in assembler.routing_report.routed]
    digest = hashlib.sha256(write_cif(library).encode()).hexdigest()
    return {"chips": chips, "cif_sha256": digest}


@pytest.fixture(scope="module")
def routes():
    return family_routes()


def write_golden(routes, path):
    """One net per line, so a moved route shows as a one-line diff."""
    chips = ",\n".join(
        f"  {json.dumps(chip)}: [\n"
        + ",\n".join(f"   {json.dumps(net)}" for net in nets) + "\n  ]"
        for chip, nets in routes["chips"].items())
    with open(path, "w") as handle:
        handle.write(f'{{\n "cif_sha256": {json.dumps(routes["cif_sha256"])},'
                     f'\n "chips": {{\n{chips}\n }}\n}}\n')


def test_family_routes_match_golden(routes):
    if UPDATE_GOLDENS:
        write_golden(routes, GOLDEN_PATH)
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    assert sorted(routes["chips"]) == sorted(golden["chips"])
    for chip, nets in golden["chips"].items():
        assert [net[0] for net in routes["chips"][chip]] == [
            net[0] for net in nets], chip
        for got, want in zip(routes["chips"][chip], nets):
            assert got == want, (chip, got[0])


def test_family_cif_matches_golden(routes):
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    assert routes["cif_sha256"] == golden["cif_sha256"]
