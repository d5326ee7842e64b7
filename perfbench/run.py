"""End-to-end benchmark of the reproduction: ``reproduce``, ``replay``, ``advise``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric named in ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run and prints every per-layer
metric. Both check the program's outputs. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; details go to standard error. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: workload name -> module implementing ``run(ctx) -> Report``.
WORKLOADS = {"reproduce": "w_reproduce", "replay": "w_replay", "advise": "w_advise"}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "cli.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    # A process started in the background inherits SIGINT ignored, and so
    # would the server, whose clean shutdown path is SIGINT. Installing a
    # handler here makes every child start with the default disposition.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    sys.path.insert(0, str(ROOT / "src"))
    from context import Context

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    ctx = Context(
        root=ROOT,
        work=work,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
    )
    try:
        module = importlib.import_module(WORKLOADS[args.workload])
        report = module.run(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in report.metrics]
    if missing:
        print(f"perfbench: workload did not measure {missing}", file=sys.stderr)
        return 3
    for reason in report.outcomes.reasons:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    for key, value in sorted(report.notes.items()):
        print(f"perfbench: {key} = {value}", file=sys.stderr)
    out = report.outcomes
    print(
        json.dumps(
            {
                "correct": out.failed == 0,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": {
                    m["name"]: {"value": float(report.metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
