"""Run one workload of the benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload detail --seed 1 --seconds 20 --trace 0

Workloads: ``detail`` and ``sampled`` (in-process simulation of the
four reference cases), listed in ``BENCHMARK.json``, and ``service``
(Poisson job traffic over HTTP to a ``repro serve`` daemon), listed in
``service.json`` because a race in the daemon makes its failure count
vary between runs.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics of a traced run and
writes its spans to ``.perfbench_run/``.  On ``detail`` and ``sampled``
it runs a round untraced and then traced and reports the difference as
the tracing overhead.  A per-layer metric of a layer the workload never
enters reads 0.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``
(``{name: {"value", "unit"}}``); a note on each failed
operation goes to standard error.  The program is imported from the
checkout's ``src/`` directory; without it the run exits with code 2.
"""

import argparse
import os
import sys

import catalog

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Working directory of the runs (spans, service directories, caches).
RUN_DIR = os.path.join(ROOT, ".perfbench_run")

EXIT_NO_PROGRAM = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=catalog.workloads())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program to measure: %s/repro is missing"
              % SRC, file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, SRC)
    os.makedirs(RUN_DIR, exist_ok=True)
    # Keep every file the program writes inside the checkout.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(RUN_DIR, "cache-unused")
    trace_path = os.path.join(
        RUN_DIR, "spans-%s-seed%d.json" % (args.workload, args.seed))
    if args.workload == "service":
        import service

        outcome = service.run(
            args.seed, args.seconds, args.trace, trace_path, RUN_DIR, SRC)
    else:
        import inprocess

        outcome = inprocess.run(
            args.workload, args.seed, args.seconds, args.trace, trace_path)
    for note in outcome.notes:
        print("perfbench: %s" % note, file=sys.stderr)
    print(catalog.result_line(args.workload, outcome.values, args.trace,
                              outcome.attempted, outcome.failed,
                              outcome.correct))
    return 0


if __name__ == "__main__":
    sys.exit(main())
