"""Exploration throughput on dining philosophers.

For each n, every repeat builds a fresh net, since a net keeps its
search and a second `check` on it would only replay the record.  It
times `check` of a reachability query that is false (P0 and P1 never
eat together, so the search visits every state), then `product`, which
builds the LTS from the states and steps that check recorded, then
`emit_dot` of that product.  Prints reachable states and transitions
per second for check and product and the milliseconds of `emit_dot`,
each the median of the repeats, and the peak resident memory of the
process so far (`resource.getrusage`; it only grows, so run one n per
process to read one n's peak).  The nets come from `tests/gen.py`, so
this measures whichever hetcomp is first on the path, e.g. another
checkout's with PYTHONPATH=<checkout>/src.

Usage: PYTHONPATH=src python3 scripts/philo_throughput.py [n ...] [--repeats R]
"""

import argparse
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import hetcomp as h  # noqa: E402
from gen import philo_net  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("n", type=int, nargs="*", default=[7, 8, 9])
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    for n in args.n:
        states, transitions = 3 ** n - 1, n * (2 * 3 ** (n - 1) - 1)
        query = h.reach(("P0", "e"), ("P1", "e"))
        timings: dict[str, list[float]] = {"check": [], "product": [],
                                           "emit_dot": []}
        for _ in range(args.repeats):
            net = philo_net(n)
            t = time.perf_counter()
            assert h.check(net, query).outcome == "false"
            timings["check"].append(time.perf_counter() - t)
            t = time.perf_counter()
            lts = h.product(net)
            timings["product"].append(time.perf_counter() - t)
            assert (len(lts.states), len(lts.transitions)) == (states,
                                                               transitions)
            t = time.perf_counter()
            h.emit_dot(lts)
            timings["emit_dot"].append(time.perf_counter() - t)
            del lts
        median = {op: statistics.median(ts) for op, ts in timings.items()}
        rates = "  ".join(
            f"{op} {states / median[op]:,.0f} states/s "
            f"{transitions / median[op]:,.0f} transitions/s"
            for op in ("check", "product"))
        # ru_maxrss is in KiB on Linux
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"n={n} states={states:,} transitions={transitions:,}  {rates}"
              f"  emit_dot {1e3 * median['emit_dot']:,.0f} ms"
              f"  peak RSS {rss:,.1f} MB")


if __name__ == "__main__":
    main()
