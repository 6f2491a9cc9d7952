"""Validate observability artifacts, or profile a trace.

Usage::

    python -m repro.obs trace.json waves.vcd ...
    python -m repro.obs profile trace.json [--by name|cat]

The first form checks ``.json`` files as Chrome trace-event JSON
(:func:`repro.obs.trace.read_trace`) and everything else as VCD
(:func:`repro.obs.vcd.read_vcd`).  It prints a one-line summary per file
and exits non-zero on the first invalid one — CI runs this over the
artifacts the traced examples emit.  The second prints the per-group
count, total and self time table of :mod:`repro.obs.profile`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.obs import profile, trace, vcd


def _profile(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.obs profile")
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    parser.add_argument("--by", choices=("name", "cat"), default="name",
                        help="group spans by name (default) or category")
    args = parser.parse_args(argv)
    try:
        events = trace.read_trace(args.trace)["events"]
    except (OSError, ValueError) as exc:
        print(f"{args.trace}: INVALID — {exc}", file=sys.stderr)
        return 1
    print(profile.format_profile(profile.profile(events, args.by), args.by))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if paths and paths[0] == "profile":
        return _profile(paths[1:])
    if not paths:
        print("usage: python -m repro.obs <trace.json|waves.vcd> ...\n"
              "       python -m repro.obs profile trace.json [--by name|cat]",
              file=sys.stderr)
        return 2
    for path in paths:
        try:
            if path.endswith(".json"):
                result = trace.read_trace(path)
                pids = sorted(result["pids"])
                print(f"{path}: OK — {len(result['events'])} events, "
                      f"categories {sorted(result['categories'])}, "
                      f"pids {pids}")
            else:
                parsed = vcd.read_vcd(path)
                changes = sum(len(v) for v in parsed.changes.values())
                print(f"{path}: OK — {len(parsed.signals)} signals, "
                      f"{changes} value changes, "
                      f"timescale {parsed.timescale!r}")
        except (OSError, ValueError, KeyError) as exc:
            print(f"{path}: INVALID — {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
