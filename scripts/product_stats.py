"""Measure how large reachable products get on random nets.

Takes `tests/gen.py`'s random nets (2..4 small processes over one or
two channels, some of them asynchronous), computes each reachable
product, and reports its size against the worst-case bound (the plain
product of component sizes, times the buffer configurations for shared
async channels).

Usage: PYTHONPATH=src python3 scripts/product_stats.py [n_cases] [seed]
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import hetcomp as h  # noqa: E402
from gen import random_net  # noqa: E402


def main():
    n_cases = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 7
    rng = random.Random(seed)

    ratios = []
    for case in range(n_cases):
        net = random_net(rng, max_components=4)
        prod = h.product(net)
        limit = 1
        for _, p in net.components:
            limit *= len(p.body.states)
        for c in h.shared_channels(net):
            mode = net.mode_of(c)
            if mode.kind == "async":
                senders = len(net.components)  # token alphabet upper bound
                limit *= sum(senders ** i for i in range(mode.capacity + 1))
        assert len(prod.states) <= limit, (case, len(prod.states), limit)
        ratios.append(len(prod.states) / limit)

    ratios.sort()
    mid = ratios[len(ratios) // 2]
    print(f"{n_cases} nets, seed {seed}")
    print(f"reachable/limit ratio: min {ratios[0]:.3f}  "
          f"median {mid:.3f}  max {ratios[-1]:.3f}")
    print("every product stayed within its worst-case bound")


if __name__ == "__main__":
    main()
