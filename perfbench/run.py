"""Benchmark of kdeform's exact verification runs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hopf-d4 --seed 0 --seconds 40 --trace 0

Each workload runs in this single-threaded process as a closed loop: a pass
runs the workload's items one after another, each starting when the previous
one has finished, and passes repeat until the next one would overrun
``--seconds``.  Every item output is checked (see ``workloads.py``).  The last
line of standard output is one JSON object: ``attempted`` and ``failed``
count items (the line before it gives their ratio, ``fail_frac``),
``correct`` says that none failed, and ``metrics`` holds

* with ``--trace 0`` the end-to-end metrics: ``verify_s``, the wall time of
  the verification calls per pass (caches cold), averaged over every pass of
  the run; ``setup_s``, the median wall time of one round of the items'
  ``Model``, ``build_twist`` and ``change_basis`` construction, sampled
  several times per pass; and ``peak_rss_mb``, the peak resident memory of
  this process;
* with ``--trace 1`` the ``per_layer`` metrics of ``BENCHMARK.json``, from one
  untraced pass followed by one traced pass; ``--seconds`` is not used.
  ``trace.overhead_frac`` is the traced pass's ``verify_s`` over the
  untraced one, minus 1.  An item whose traced output differs from its
  untraced output counts as failed.  Spans and metrics are written to
  ``.perfbench-out/``.

The package is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kdeform" / "__init__.py").is_file():
        print("kdeform sources not found under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    items = workloads.build(args.workload, args.seed)
    if args.trace:
        trace_file = ROOT / ".perfbench-out" / (
            "trace-%s-seed%d.json" % (args.workload, args.seed))
        attempted, failed, metrics = harness.per_layer(items, trace_file)
    else:
        attempted, failed, metrics = harness.end_to_end(items, args.seconds)
    print("fail_frac %.4f (%d of %d items)"
          % (failed / attempted, failed, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
