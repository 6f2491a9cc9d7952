"""Correctness gate: every chip of every pass is checked, never skipped.

Every pass must reproduce the first pass's digests exactly — report
fields, quality numbers and CIF text.  The first pass is then checked in
full against independent engines: its CIF is parsed back, and the flat
:class:`DrcChecker` and :class:`Extractor` (not the hierarchical analyzer
that produced the report) run on the parsed chips; identity carries the
full check over to every pass.  A chip fails when it raised, needed the
ROU008 legacy route fallback, routed below full completion or with
touching nets, disagreed with the flat engines, or did not survive the
CIF round trip.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from typing import Dict, List, Optional

from repro.cif import parse_cif, write_cif
from repro.drc import DrcChecker
from repro.extract import Extractor
from repro.geometry.index import build_index
from repro.geometry.rect import Rect


def chip_digest(chip) -> str:
    """SHA-256 over the sign-off fields the warm-start test digests,
    plus the chip's area and routing."""
    report, timing, placed = chip.report, chip.report.timing, chip.assembler.report
    payload = {
        "violations": [str(v) for v in report.violations],
        "cell": report.circuit.cell_name,
        "nodes": report.circuit.node_names,
        "transistors": report.circuit.transistor_count,
        "enhancement": report.circuit.enhancement_count,
        "depletion": report.circuit.depletion_count,
        "parasitics": {name: str(p) for name, p in
                       sorted(report.circuit.parasitics.items())},
        "metrics": str(report.metrics),
        "chip_timing": str(timing.chip),
        "blocks": [(name, str(block)) for name, block in timing.blocks],
        "io_paths": [str(path) for path in timing.io_paths],
        "erc": str(report.erc),
        "max_frequency_mhz": report.max_frequency_mhz,
        "quality": [placed.chip_area, placed.total_route_length,
                    placed.routed_connections],
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _wire_rects(points, width: int) -> List[Rect]:
    """Rectangles of a Manhattan centre-line wire of the given width."""
    half, other = width // 2, width - width // 2
    rects = []
    for a, b in zip(points, points[1:]):
        rects.append(Rect(min(a.x, b.x) - half, min(a.y, b.y) - half,
                          max(a.x, b.x) + other, max(a.y, b.y) + other))
    return rects


def _routing_problem(assembler) -> Optional[str]:
    if "ROU008" in assembler.diagnostics.codes():
        return "needed the ROU008 legacy-route fallback"
    routing = assembler.routing_report
    if routing is None:
        return None
    if routing.completion < 1.0:
        return f"routing completion {routing.completion:.3f} < 1.0"
    _layer, width, _spacing = assembler.route_style()
    owners: List[str] = []
    rects = []
    for net in routing.routed:
        for rect in _wire_rects(net.points, width):
            owners.append(net.name)
            rects.append(rect)
    index = build_index(rects)
    for i, rect in enumerate(rects):
        for j in index.query(rect):
            if owners[j] != owners[i]:
                return f"routed nets {owners[i]!r} and {owners[j]!r} touch"
    return None


class Gate:
    """Checks passes of one workload and counts failed chips.

    :meth:`check` runs on every pass and is cheap.  :meth:`verify_first`
    runs the flat-engine and CIF checks on the first pass after timing and
    the peak-memory reading, from the CIF text and a few numbers per chip,
    so neither the pass times nor the memory peak include them.
    """

    def __init__(self, technology, library_name: str,
                 reference: Optional[Dict[str, str]] = None):
        self.technology = technology
        self.library_name = library_name
        #: Digests a warm pass must reproduce (those of the cold fill).
        self.reference = reference
        self.first_digests: Optional[Dict[str, str]] = None
        self.first_cif = ""
        #: Per chip of the first pass: hier DRC violations, transistors.
        self.expected: Dict[str, tuple] = {}
        self.attempted = 0
        self.failed = 0
        #: Passes in which each chip passed :meth:`check`.
        self.passed: Counter = Counter()
        self.problems: List[str] = []

    def _fail(self, name: str, problem: str, passes: int = 1) -> None:
        self.failed += passes
        if len(self.problems) < 20:
            self.problems.append(f"{name}: {problem}")

    @staticmethod
    def digests(result) -> Dict[str, str]:
        return {chip.assembler.name: chip_digest(chip)
                for chip in result.chips if chip.error is None}

    def check(self, result) -> None:
        """Count and check one pass."""
        digests = self.digests(result)
        if self.first_digests is None:
            self.first_digests = digests
            self.first_cif = result.cif_text
            self.expected = {
                chip.assembler.name: (sorted(str(v) for v in chip.report.violations),
                                      chip.report.circuit.transistor_count)
                for chip in result.chips if chip.error is None}
        for chip in result.chips:
            self.attempted += 1
            if chip.error is not None:
                name = chip.assembler.name if chip.assembler else "<generation>"
                self._fail(name, f"raised {type(chip.error).__name__}: "
                                 f"{chip.error}")
                continue
            name = chip.assembler.name
            problem = _routing_problem(chip.assembler)
            if problem is None and (digests[name] != self.first_digests.get(name)
                                    or result.cif_text != self.first_cif):
                problem = "output differs from the first pass of this run"
            if problem is None and self.reference is not None and (
                    digests[name] != self.reference.get(name)):
                problem = "warm report digest differs from the cold one"
            if problem is not None:
                self._fail(name, problem)
            else:
                self.passed[name] += 1

    def verify_first(self) -> None:
        """CIF round trip and flat DRC/extraction of the first pass.

        The written CIF must parse and write back byte for byte, and the
        flat engines run on the parsed chips must find exactly the
        violations and transistor count the hierarchical sign-off reported.
        A chip that fails here failed in every pass that reproduced it.
        """
        if not self.expected:
            return
        parsed = parse_cif(self.first_cif, self.technology,
                           library_name=self.library_name)
        if write_cif(parsed) != self.first_cif:
            for name in self.expected:
                self._fail(name, "CIF write-parse-write is not a fixpoint",
                           self.passed[name])
            return
        drc = DrcChecker(self.technology)
        extractor = Extractor(self.technology)
        for name, (violations, transistors) in self.expected.items():
            cell = parsed.cell(name)
            flat = sorted(str(v) for v in drc.check(cell))
            problem = None
            if flat != violations:
                problem = (f"hier DRC ({len(violations)} violations) differs "
                           f"from flat DRC ({len(flat)})")
            else:
                count = extractor.extract(cell).transistor_count
                if count != transistors:
                    problem = (f"hier extraction ({transistors} transistors) "
                               f"differs from flat ({count})")
            if problem is not None:
                self._fail(name, problem, self.passed[name])
