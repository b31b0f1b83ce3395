"""The DOT frontend against the frozen reference scanner, at scale.

Runs the seeded mutations of `tests/test_dot_differential.py` (its
bases and its mutator) on --cases documents, 1,000 per seed from
--seed on, and compares `hetcomp.dotio.parse_dot_document` with
`tests/reference_dotio.py`: each document must give the same
`DotDocument`, or an error of the same type, message, line and column.
Prints the number of cases, of documents the reference accepts and of
differences, then the first few differing documents; exits 1 if there
is any.  Importing the test module needs pytest.

Usage: PYTHONPATH=src python3 scripts/dot_differential.py --cases 100000 [--seed 100]
"""

import argparse
import random
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent / "tests"
sys.path.insert(0, str(TESTS))

import reference_dotio  # noqa: E402
from hetcomp.dotio import parse_dot_document  # noqa: E402
from test_dot_differential import bases, mutate, outcome  # noqa: E402

PER_SEED = 1000


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--cases", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=100,
                    help="first seed; each seed runs 1,000 cases")
    args = ap.parse_args()
    texts = bases(TESTS.parent / "corpus")
    accepted, differing = 0, []
    for case in range(args.cases):
        if case % PER_SEED == 0:
            rng = random.Random(args.seed + case // PER_SEED)
        text = mutate(rng.choice(texts), rng)
        want = outcome(reference_dotio.parse_dot_document, text)
        accepted += not isinstance(want, tuple)
        if outcome(parse_dot_document, text) != want:
            differing.append(text)
    print(f"cases {args.cases}  accepted {accepted}  "
          f"differences {len(differing)}")
    for text in differing[:5]:
        print(repr(text))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
