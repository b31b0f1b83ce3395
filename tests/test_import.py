"""`import hetcomp` stays lean: the library pulls in no CLI or I/O stack.

Every process that uses the library pays for its import, so a module
that only the CLI or a tool needs must not load with the package.  The
check compares the module sets of a fresh, isolated interpreter before
and after the import, because some of these modules may already be
loaded at start-up.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = ("xml", "urllib.request", "http", "email", "argparse", "json",
         "subprocess", "hetcomp.cli")

PROBE = ("import sys; sys.path.insert(0, {src!r}); before = set(sys.modules); "
         "import hetcomp; print(*sorted(set(sys.modules) - before))")


def test_import_hetcomp_loads_no_cli_or_io_module():
    # -I ignores PYTHONDONTWRITEBYTECODE; -B keeps bytecode out of src
    r = subprocess.run(
        [sys.executable, "-I", "-B", "-c", PROBE.format(src=str(SRC))],
        capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    added = set(r.stdout.split())
    assert "hetcomp.dotio" in added
    heavy = sorted(m for m in added
                   if any(m == h or m.startswith(h + ".") for h in HEAVY))
    assert heavy == []
