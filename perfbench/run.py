"""Flow benchmark: text to signed-off chip, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload family_route --seed 0 --seconds 50 --trace 0

Each workload runs as a closed loop with one client: a pass starts only
after the previous one finished, and passes repeat while the next one
should end within ``--seconds`` of pass time (always at least one pass).
A pass takes a chip set from specification text to generated blocks,
``assemble()``, ``sign_off()`` and ``write_cif``; every chip of every pass
goes through the correctness gate in ``check.py``.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer ledger instead; it also writes the last traced pass as a Chrome
trace plus a self-time table under ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are the host and a human-readable table.  The exit status is non-zero
when any check failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("family_route", "signoff_cold", "signoff_warm")
#: Set-up is repeated this many times per run and its median reported.
SETUP_ROUNDS = 5
#: Pass times reported as the lowest of the run, not the median:
#: on a shared host the CPU's speed for this process swings by up to 2x
#: over tens of seconds, which moves a run's median far more than its
#: fastest pass (measurements in README.md).
BEST_OF = ("flow_s", "assemble_s", "sign_off_s")
#: What a fresh process imports before it can compile a chip.
IMPORTS = ("import repro.analysis, repro.assembly, repro.cif, "
           "repro.generators, repro.rtl, repro.pnr, repro.store")


def _clean_environment() -> dict:
    """Strict mode on; no stray trace, store, worker or metrics knobs.

    Runs before ``repro`` is imported, because tracing and the metrics
    dump arm themselves at import time.  A silent fallback then fails the
    run instead of slowing it.
    """
    for name in ("REPRO_TRACE", "REPRO_STORE", "REPRO_WORKERS",
                 "REPRO_METRICS"):
        os.environ.pop(name, None)
    os.environ["REPRO_STRICT"] = "1"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


class Run:
    """Set-up, timed passes and correctness gate of one workload and seed."""

    def __init__(self, workload: str, seed: int, env: dict, tmp: str):
        from check import Gate
        from repro.technology import nmos_technology

        self.name = workload
        self.seed = seed
        self.env = env
        self.tmp = tmp
        self.technology = nmos_technology()
        self.reference = None
        self.setup_s = [self._set_up() for _ in range(SETUP_ROUNDS)]
        self.gate = Gate(self.technology, workload, reference=self.reference)
        self.quality = None
        self.flow = {"flow_s": [], "assemble_s": [], "sign_off_s": []}
        self.traced_flow = []
        self.ledgers = []
        self.events = []

    def _set_up(self) -> float:
        """Imports in a fresh process, the seeded inputs, the store fill."""
        from check import Gate
        from flow import Workload
        from repro.store import DiskStore, MemoryStore, TieredStore

        start = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms,
        # which shows in a 0.3 s set-up.
        subprocess.run([sys.executable, "-c", IMPORTS], cwd=ROOT,
                       env=self.env, check=True)
        make_store = None
        if self.name == "signoff_warm":
            directory = tempfile.mkdtemp(prefix="store-", dir=self.tmp)

            def make_store():
                return TieredStore(MemoryStore(), DiskStore(directory))

            fill = Workload(self.name, self.technology, self.seed,
                            make_store=make_store).run_pass()
            self.reference = Gate.digests(fill)
        self.workload = Workload(self.name, self.technology, self.seed,
                                 make_store=make_store)
        return time.perf_counter() - start

    def measure(self, seconds: float, traced: bool) -> None:
        """Passes within ``seconds`` of pass time; traced ones alternate.

        A pass starts only if it should end within the budget, judged by
        the last pass's time, so a run never overshoots by most of a pass
        (a ``family_route`` pass takes most of a run on its own).
        """
        busy = last = 0.0
        while (not self.flow["flow_s"] or busy + last <= seconds
               or (traced and not self.ledgers)):
            trace_this = traced and len(self.ledgers) < len(self.flow["flow_s"])
            gc.collect()
            if trace_this:
                result = self._traced_pass()
            else:
                result = self.workload.run_pass()
                for key, samples in self.flow.items():
                    samples.append(getattr(result, key))
            last = result.flow_s
            busy += last
            self.gate.check(result)
            if self.quality is None:
                self.quality = _quality(result)

    def _traced_pass(self):
        from ledger import pass_ledger
        from repro.obs import metrics, trace

        trace.reset()
        trace.enable()
        before = metrics.snapshot()
        try:
            result = self.workload.run_pass()
        finally:
            after = metrics.snapshot()
            trace.disable()
            self.events = trace.drain()
        self.traced_flow.append(result.flow_s)
        self.ledgers.append(pass_ledger(self.events, result.analyzer, before,
                                        after, result))
        return result

    def ledger_medians(self) -> dict:
        return {key: statistics.median(ledger[key] for ledger in self.ledgers)
                for key in self.ledgers[0]}


def _quality(result) -> dict:
    """Quality of the signed-off chips; the gate checks every pass repeats it."""
    chips = [chip for chip in result.chips if chip.error is None]
    return {
        "chip_area_lambda2": sum(c.assembler.report.chip_area for c in chips),
        "route_length_lambda": sum(c.assembler.report.total_route_length
                                   for c in chips),
        "fmax_mhz_min": min((c.report.max_frequency_mhz for c in chips),
                            default=0.0),
        "erc_errors": sum(len(c.report.erc.errors()) for c in chips),
    }


def _summary(values):
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def _end_to_end(run: Run, peak_rss_mb: float, quality: dict):
    """Table rows of every end-to-end number, and the JSON metrics."""
    one = lambda value: _summary([value])     # noqa: E731
    rows = [
        ("setup_s", "s", _summary(run.setup_s)),
        ("flow_s", "s", _summary(run.flow["flow_s"])),
        ("assemble_s", "s", _summary(run.flow["assemble_s"])),
        ("sign_off_s", "s", _summary(run.flow["sign_off_s"])),
        ("peak_rss_mb", "MB", one(peak_rss_mb)),
        ("chip_area_lambda2", "lambda2", one(quality["chip_area_lambda2"])),
        ("fmax_mhz_min", "MHz", one(quality["fmax_mhz_min"])),
    ]
    metrics = {name: {"value": s["min" if name in BEST_OF else "median"],
                      "unit": unit}
               for name, unit, s in rows}
    # Shown but not in the JSON, because each is zero on some workload.
    rows += [
        ("failed_share", "ratio",
         one(run.gate.failed / max(run.gate.attempted, 1))),
        ("route_length_lambda", "lambda", one(quality["route_length_lambda"])),
        ("erc_errors", "count", one(quality["erc_errors"])),
    ]
    return rows, metrics


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith(("_share", "_ratio", "overhead")):
        return "ratio"
    if key.endswith("bytes"):
        return "bytes"
    if key.endswith("lambda"):
        return "lambda"
    return "count"


def _per_layer(run: Run, quality: dict) -> dict:
    medians = run.ledger_medians()
    medians["obs.trace_overhead"] = (statistics.median(run.traced_flow)
                                     / statistics.median(run.flow["flow_s"]) - 1)
    medians["pnr.route_length_lambda"] = quality["route_length_lambda"]
    medians["hier.erc_errors"] = quality["erc_errors"]
    return {key: {"value": value, "unit": _unit(key)}
            for key, value in medians.items()}


def _write_trace(run: Run, env: dict) -> bool:
    """Chrome trace of the last traced pass, validated by ``repro.obs``."""
    from ledger import format_table
    from repro.obs import trace

    stem = os.path.join(OUT, f"{run.name}-seed{run.seed}")
    trace.ingest(run.events)
    trace.write(stem + ".trace.json")
    trace.reset()
    pass_s = statistics.median(run.traced_flow)
    medians = run.ledger_medians()
    named = pass_s - medians["unattributed_s"]
    table = (f"{run.name} seed {run.seed}: median self time over "
             f"{len(run.ledgers)} traced passes; named layers cover "
             f"{named / pass_s:.1%} of the pass\n"
             + format_table(medians, pass_s))
    with open(stem + ".selftime.txt", "w", encoding="utf-8") as handle:
        handle.write(table + "\n")
    print(table)
    check = subprocess.run([sys.executable, "-m", "repro.obs",
                            stem + ".trace.json"], cwd=ROOT, env=env,
                           timeout=120)
    return check.returncode == 0


def _table(rows) -> str:
    lines = [f"{'metric':<24}{'median':>14}{'min':>14}{'max':>14}"
             f"{'n':>5}  unit"]
    for name, unit, s in rows:
        lines.append(f"{name:<24}{s['median']:>14.6g}{s['min']:>14.6g}"
                     f"{s['max']:>14.6g}{s['n']:>5}  {unit}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = _clean_environment()
    for directory in ("src", "examples"):
        path = os.path.join(ROOT, directory)
        if not os.path.isdir(path):
            print(f"error: {path} not found; run from a repository checkout",
                  file=sys.stderr)
            return 2
        sys.path.insert(1, path)

    import numpy

    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        run = Run(args.workload, args.seed, env, tmp)
        if args.trace:
            from ledger import instrument_maze_router

            instrument_maze_router()
        run.measure(args.seconds, traced=bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        run.gate.verify_first()
        rows, metrics = _end_to_end(run, peak_rss_mb, run.quality)
        print(f"host: cpu_count={os.cpu_count()} "
              f"python={platform.python_version()} numpy={numpy.__version__} "
              f"platform={platform.platform()} seed={args.seed}")
        print(f"workload {args.workload}: {run.gate.attempted} chips "
              f"attempted, {run.gate.failed} failed")
        for problem in run.gate.problems:
            print(f"  FAILED {problem}")
        print(_table(rows))
        ok = run.gate.failed == 0
        if args.trace:
            ok = _write_trace(run, env) and ok
            metrics = _per_layer(run, run.quality)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"correct": ok, "attempted": run.gate.attempted,
                      "failed": run.gate.failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
