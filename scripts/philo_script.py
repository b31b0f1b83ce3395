"""Write the dining-philosophers script: 2n DOT files and one .hcs script.

The script loads every philosopher and fork from its own DOT file,
composes them, runs two checks (deadlock freedom, false with an n-step
witness, and a reachability query that is false, so every state is
visited) and emits the reachable product as DOT.  At n=9 the product has
19,682 states and 118,089 transitions.  The components come from
`tests/gen.py`'s `philo_net`, written out with `emit_dot`.

Usage:
    PYTHONPATH=src python3 scripts/philo_script.py DIR [--n 9]
    PYTHONPATH=src python3 -m hetcomp.cli run DIR/philo.hcs --out-dir DIR/out

The run exits 1, since both checks are false.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import hetcomp as h  # noqa: E402
from gen import philo_net  # noqa: E402


def script(instances: list[str]) -> str:
    lines = [f"# dining philosophers, {len(instances) // 2} philosophers"]
    lines.extend(f'{inst} = dot("{inst}.dot")' for inst in instances)
    lines += [
        f"sys = compose({', '.join(instances)})",
        'check(sys, "A[] not deadlock")',
        'check(sys, "E<> P0.e and P1.e")',
        'emit_dot(sys, "philo_product.dot")',
    ]
    return "\n".join(lines) + "\n"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir", type=Path)
    ap.add_argument("--n", type=int, default=9,
                    help="number of philosophers, at least 2 (default 9)")
    args = ap.parse_args()
    if args.n < 2:
        ap.error("--n must be at least 2")
    args.dir.mkdir(parents=True, exist_ok=True)
    net = philo_net(args.n)
    for inst, proc in net.components:
        (args.dir / f"{inst}.dot").write_text(h.emit_dot(proc),
                                             encoding="utf-8")
    path = args.dir / "philo.hcs"
    path.write_text(script(net.instance_names()), encoding="utf-8")
    print(f"wrote {2 * args.n} DOT files and {path}")


if __name__ == "__main__":
    main()
