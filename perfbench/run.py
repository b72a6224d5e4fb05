"""The repository benchmark: detect -> replay -> serve -> campaign.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload run-4det --seed 1 --seconds 30

``--trace 0`` runs the workload (``run-4det`` or ``campaign-tso``)
untraced for ``--seconds`` of measured work and reports the end-to-end
metrics of ``BENCHMARK.json``.  ``--trace 1`` instead times the public
calls into each layer (see ``layers.py``) on the run-4det,
analyze-offline, serve-fleet and campaign-tso inputs and reports the
per-layer metrics, with a closure row for each.  Both check every output (``checks.py``) and feed deliberately
altered outputs through the same checks, which must reject them.

Human-readable lines go to stdout first; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``fail_ratio`` (failed over attempted operations) is printed with the
other metrics but carried in the JSON only as ``attempted``/``failed``:
it is 0 on a healthy run, and a ratio against a zero median cannot be
bounded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from common import ROOT, SRC, WORKLOADS, WorkDir, log


def _metric_units(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from the root of "
              f"a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import checks
    units = _metric_units("per_layer" if args.trace else "end_to_end")

    with WorkDir() as workdir:
        if args.trace:
            import layers
            outcome = layers.run(args.workload, args.seed, args.seconds,
                                 workdir)
        else:
            import workloads
            outcome = workloads.run(args.workload, args.seed, args.seconds,
                                    workdir)
    if set(outcome.metrics) != set(units):
        raise RuntimeError(
            f"measured {sorted(outcome.metrics)}, BENCHMARK.json lists "
            f"{sorted(units)}")

    tally = outcome.tally
    sentinel = [problem for sample in outcome.samples
                for problem in checks.sentinel_problems(sample)]
    for note in outcome.notes:
        print(f"# {args.workload}: {note}")
    print(f"# {args.workload}: self-check: altered outputs of "
          f"{len(outcome.samples)} unit(s) fed through the checks, "
          f"{len(sentinel)} accepted")
    for problem in tally.problems + sentinel:
        print(f"# CHECK FAILED: {problem}")
        log(f"check failed: {problem}")
    for name, unit in units.items():
        print(f"{args.workload} {name} = {outcome.metrics[name]:.6g} {unit}")
    print(f"{args.workload} fail_ratio = {tally.fail_ratio:.6g} "
          f"({tally.failed}/{tally.attempted})")
    print(json.dumps({
        "correct": tally.failed == 0 and not sentinel,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
