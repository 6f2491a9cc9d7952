"""The three workloads' chip sets and one timed pass over a set.

A pass takes every chip of a set from its textual specification (logic
equations, a symbolic FSM, RTL source, ROM words) to generated blocks,
assembles each chip (placement, pad ring, routing), signs it off, and
writes the whole set as one CIF library.  The seed draws only data-like
inputs, never the shape of the design:

* family: the microcode ROM words (one program, shared by the family as
  in the example) and the polarity of each auxiliary control term
  (``start & busy`` or ``start & ~busy``).  Either polarity reuses an
  existing product term, so block sizes and pins stay fixed while the
  personalities change.
* sign-off sets: the adder PLA's truth table, as a full adder with each
  input optionally complemented and both outputs optionally complemented
  together.  Those 16 variants all minimise to the adder's 7 product
  terms (complementing one output alone shares terms and shrinks the
  PLA), so the block size is fixed and only its personality varies.

Seed 0 reproduces the example designs exactly.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis import HierAnalyzer
from repro.assembly import ChipAssembler
from repro.cif import write_cif
from repro.generators import (
    DatapathColumn,
    DatapathGenerator,
    FsmLayoutGenerator,
    PlaGenerator,
    RomGenerator,
)
from repro.lang.parameters import clear_generated_cell_cache
from repro.layout import Library
from repro.logic import TruthTable, parse_expr
from repro.obs import trace
from repro.rtl import RtlCompiler, parse_rtl
from repro.rtl.compiler import synthesize_layout

from pdp8_subset_compiler import PDP8_PROCESSOR_RTL
from traffic_light_controller import build_fsm

#: (datapath bits, auxiliary control terms) of the chip_assembly family.
FAMILY = [(4, 0), (8, 2), (16, 4)]


# -- seeded specifications -----------------------------------------------------


def family_spec(seed: int) -> Dict[int, dict]:
    """Per family member: the shared microcode words, its aux polarities."""
    if seed == 0:
        words = [i % 256 for i in range(16)]
        return {bits: {"words": words,
                       "negated": [index % 2 == 1 for index in range(extra)]}
                for bits, extra in FAMILY}
    rng = random.Random(seed)
    words = [rng.randrange(256) for _ in range(16)]
    return {bits: {"words": words,
                   "negated": [rng.random() < 0.5 for _ in range(extra)]}
            for bits, extra in FAMILY}


def adder_spec(seed: int) -> Tuple[bool, bool, bool, bool]:
    """Complement flags for inputs a, b, cin and for both outputs."""
    if seed == 0:
        return (False, False, False, False)
    rng = random.Random(seed)
    return tuple(rng.random() < 0.5 for _ in range(4))


def adder_equations(flags: Tuple[bool, bool, bool, bool]) -> Dict[str, str]:
    a, b, c = (f"~{name}" if flip else name
               for name, flip in zip(("a", "b", "cin"), flags))
    outputs = {"sum": f"{a} ^ {b} ^ {c}",
               "carry": f"{a} & {b} | {a} & {c} | {b} & {c}"}
    if flags[3]:
        outputs = {name: f"~({text})" for name, text in outputs.items()}
    return outputs


# -- generator calls (the "generators" layer) ----------------------------------


def _generate(what: str, build: Callable):
    with trace.span("generators.cell", cat="generators", block=what):
        return build()


def _family_chip(technology, bits: int, member: dict) -> ChipAssembler:
    """``examples/chip_assembly.build_chip`` with seeded data inputs."""
    name = f"family_{bits}b"

    def control():
        equations = {"load": parse_expr("start & ~busy"),
                     "add": parse_expr("start & busy"),
                     "done": parse_expr("~start & busy")}
        for index, negated in enumerate(member["negated"]):
            equations[f"aux{index}"] = parse_expr(
                f"start & {'~' if negated else ''}busy")
        table = TruthTable.from_expressions(equations,
                                            input_names=["start", "busy"])
        return PlaGenerator(technology, table, name=f"{name}_control").cell()

    assembler = ChipAssembler(name, technology)
    assembler.add_block("datapath", _generate("datapath", lambda: DatapathGenerator(
        technology,
        [DatapathColumn("register", "acc"), DatapathColumn("adder", "alu"),
         DatapathColumn("shifter", "sh"), DatapathColumn("bus", "bus")],
        bits=bits).cell()))
    assembler.add_block("control", _generate("control", control))
    assembler.add_block("microcode", _generate("microcode", lambda: RomGenerator(
        technology, member["words"], bits_per_word=8).cell()))
    assembler.add_supply_pads()
    assembler.add_pad("start", "input", connect_to=("control", "start"))
    assembler.add_pad("busy", "input", connect_to=("control", "busy"))
    assembler.add_pad("done", "output", connect_to=("control", "done"))
    assembler.add_pad("phi1", "input")
    assembler.add_pad("phi2", "input")
    for bit in (0, bits - 1):
        assembler.add_pad(f"bus{bit}", "output",
                          connect_to=("datapath", f"bus_out{bit}"))
    return assembler


def _wrapped(name: str, technology, cell) -> ChipAssembler:
    """A single block inside a supply-pad ring (no signal nets)."""
    assembler = ChipAssembler(name, technology)
    assembler.add_block("core", cell)
    assembler.add_supply_pads()
    return assembler


def _signoff_chips(technology, flags) -> List[Callable[[], ChipAssembler]]:
    def adder():
        table = TruthTable.from_expressions(
            {name: parse_expr(text)
             for name, text in adder_equations(flags).items()},
            input_names=["a", "b", "cin"])
        return PlaGenerator(technology, table, name="adder_pla").cell()

    def pdp8():
        compiled = RtlCompiler(parse_rtl(PDP8_PROCESSOR_RTL)).compile()
        return synthesize_layout(compiled, technology)[0]

    def fsm():
        return FsmLayoutGenerator(technology, build_fsm()).cell()

    return [lambda: _wrapped("quickstart_chip", technology,
                             _generate("adder_pla", adder)),
            lambda: _wrapped("fsm_chip", technology,
                             _generate("traffic_fsm", fsm)),
            lambda: _wrapped("pdp8_chip", technology,
                             _generate("pdp8", pdp8))]


# -- one pass ------------------------------------------------------------------


@dataclass
class ChipResult:
    assembler: Optional[ChipAssembler] = None
    cell: object = None
    report: object = None
    error: Optional[BaseException] = None


@dataclass
class PassResult:
    flow_s: float = 0.0
    assemble_s: float = 0.0
    sign_off_s: float = 0.0
    chips: List[ChipResult] = field(default_factory=list)
    analyzer: Optional[HierAnalyzer] = None
    cif_text: str = ""


class Workload:
    """A chip set plus how a pass builds its analyzer."""

    def __init__(self, name: str, technology, seed: int,
                 make_store: Optional[Callable] = None):
        self.name = name
        self.technology = technology
        self.make_store = make_store
        if name == "family_route":
            spec = family_spec(seed)
            self.chips = [
                (lambda bits=bits: _family_chip(technology, bits, spec[bits]))
                for bits, _ in FAMILY]
        else:
            self.chips = _signoff_chips(technology, adder_spec(seed))

    def run_pass(self) -> PassResult:
        """One closed-loop pass: spec text to signed-off chips and CIF.

        Generated-cell caches are process-wide, so they are dropped first:
        every pass compiles from text as a fresh process would.
        """
        result = PassResult()
        start = time.perf_counter()
        with trace.span("bench.pass", cat="bench", workload=self.name):
            clear_generated_cell_cache()
            store = self.make_store() if self.make_store else None
            analyzer = HierAnalyzer(self.technology, store=store)
            library = Library(self.name, self.technology)
            for make_chip in self.chips:
                chip = ChipResult()
                result.chips.append(chip)
                try:
                    chip.assembler = assembler = make_chip()
                    t0 = time.perf_counter()
                    chip.cell = assembler.assemble()
                    t1 = time.perf_counter()
                    chip.report = assembler.sign_off(analyzer)
                    t2 = time.perf_counter()
                    library.add_cell(chip.cell)
                except Exception as error:      # counted as a failed chip
                    chip.error = error
                    continue
                result.assemble_s += t1 - t0
                result.sign_off_s += t2 - t1
            with trace.span("cif.write", cat="cif"):
                result.cif_text = write_cif(library)
        result.flow_s = time.perf_counter() - start
        result.analyzer = analyzer
        return result
