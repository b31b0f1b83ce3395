"""The compiled engine against the reference semantics, at scale.

Runs the check of `tests/test_differential.py` (its random nets, its
renaming and `_agree`) on --cases nets, 1,000 per seed from --seed on:
`explore`, `product` and `check` of each net, at bounds None, 3 and 7,
must agree with `tests/reference_semantics.py`.  Every second net has
its states renamed, alternately to the names that order differently as
names and as texts and to names holding the separators of a state's
text.  Prints the number of cases and of differences, then the first
few differing cases; exits 1 if there is any.

Usage: PYTHONPATH=src python3 scripts/engine_differential.py --cases 100000 [--seed 100]
"""

import argparse
import random
import sys
import traceback
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent / "tests"
sys.path.insert(0, str(TESTS))

from hetcomp import reach  # noqa: E402
from gen import random_conjuncts, random_net  # noqa: E402
from test_differential import (ODD_NAMES, SEPARATOR_NAMES,  # noqa: E402
                               _agree, _odd_names)

PER_SEED = 1000
RENAMES = (None, ODD_NAMES, None, SEPARATOR_NAMES)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--cases", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=100,
                    help="first seed; each seed runs 1,000 cases")
    args = ap.parse_args()
    differing = []
    for case in range(args.cases):
        if case % PER_SEED == 0:
            rng = random.Random(args.seed + case // PER_SEED)
        net = random_net(rng, max_components=4, facets=True)
        names = RENAMES[case % len(RENAMES)]
        if names is not None:
            net = _odd_names(net, names)
        query = reach(*random_conjuncts(rng, net))
        for bound in (None, 3, 7):
            try:
                _agree(net, bound, query)
            except Exception as e:
                differing.append((case, bound, e))
                break
    print(f"cases {args.cases}  differences {len(differing)}")
    for case, bound, e in differing[:5]:
        where = traceback.extract_tb(e.__traceback__)[-1].line
        print(f"case {case} (seed {args.seed + case // PER_SEED}) "
              f"bound {bound}: {type(e).__name__} {str(e)[:200]!r} at {where}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
