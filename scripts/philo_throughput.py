"""Exploration throughput on dining philosophers.

For each n, times a full exploration twice: `check` of a reachability
query that is false (P0 and P1 never eat together, so every state is
visited) and `product`.  Prints reachable states per second for each,
as the median of the repeats.  The nets come from `tests/gen.py`, so
this measures whichever hetcomp is first on the path, e.g. another
checkout's with PYTHONPATH=<checkout>/src.

Usage: PYTHONPATH=src python3 scripts/philo_throughput.py [n ...] [--repeats R]
"""

import argparse
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
        net = philo_net(n)
        states = 3 ** n - 1
        query = h.reach(("P0", "e"), ("P1", "e"))
        timings: dict[str, list[float]] = {"check": [], "product": []}
        for _ in range(args.repeats):
            t = time.perf_counter()
            assert h.check(net, query).outcome == "false"
            timings["check"].append(time.perf_counter() - t)
            t = time.perf_counter()
            assert len(h.product(net).states) == states
            timings["product"].append(time.perf_counter() - t)
        rates = "  ".join(
            f"{op} {states / statistics.median(ts):,.0f} states/s"
            for op, ts in timings.items())
        print(f"n={n} states={states:,}  {rates}")


if __name__ == "__main__":
    main()
