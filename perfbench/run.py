"""hetcomp benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (stdlib only, nothing to install):

    python3 perfbench/run.py --workload philo --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

Workloads: philo, fifo-script, bigdot, small-checks (``all`` runs each in
turn).  Every workload runs in a fresh child process with
PYTHONHASHSEED=0 and ``src`` on the path, in one thread.  The child sets
the workload up from ``--seed`` and runs passes of the timed body in a
closed loop for ``--seconds``, checking every output against a reference
that does not come from hetcomp (see ``workloads.py``).  Temporary DOT,
script and output files go to a directory under the checkout that is
removed afterwards.

Set-up is what a fresh process pays before its first operation: import
hetcomp, then build the workload's inputs from the seed in memory
(generate models, parse them where the workload starts from parsed
ones).  Writing input files is left out: on a shared VM its time swings
by a factor of three with the host's writeback.  The child measures
set-up in fresh interpreters started between passes, one at a time,
whenever set-up has so far taken less than a tenth of the time gone,
and at least five times in all.  The set-up times then sample the same
stretch of the host's speed as the passes do, which drifts by a tenth
or more from one minute to the next, and work moved into import shows.

Standard output is a human-readable report followed, as its last line,
by one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, measured untraced:

    setup_s      median set-up time of a fresh process              s
    run_s        mean wall time of one pass of the timed body       s
    op_s.p50     median operation latency                           s
    op_s.tail    highest percentile with >= 10 samples beyond it    s
    peak_rss_mb  peak resident memory of the workload's process     MB

``peak_rss_mb`` is what a user of the library sees: interpreter, hetcomp
and the workload's own data, which is about half of it on philo and a
quarter on bigdot.  On small-checks, where every net is tiny, it is the
fixed footprint that a heavier engine or import would grow; nothing
there is kept from one call to the next.

The report adds ``fail_ratio`` (failed / attempted), the tail's
percentile and sample count, and the throughputs ``states_per_s``,
``transitions_per_s``, ``dot_mb_per_s`` and ``emit_mb_per_s`` where the
benchmark itself times the calls they cover ("n/a" elsewhere).

``--trace 1`` runs ``--seconds`` untraced, except for a last part (half,
at most 6 s) with spans recorded around every layer boundary
(``spans.py``), and reports the per-layer metrics (per pass of the timed
body) plus ``trace.overhead_ratio``: traced over untraced ``run_s``,
each the mean time of a pass that does the same work in both phases.
The spans are written to ``.perfbench_out/`` in the checkout.  Every run
also writes its result there, with the Python version, CPU model, nproc,
git commit and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
NAMES = ("philo", "fifo-script", "bigdot", "small-checks")
SETUP_MIN_RUNS = 5
SETUP_SHARE = 0.1       # of the untraced run's time, at most, spent on set-up
CHILD_TIMEOUT_S = 170
TRACED_MAX_S = 6        # spans stay in memory: a few hundred thousand
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "op_s.p50": "s",
                    "op_s.tail": "s", "peak_rss_mb": "MB"}


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples
    beyond it; the maximum when there are too few samples."""
    xs = sorted(samples)
    i = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs)


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "cpu": cpu,
            "nproc": os.cpu_count(), "commit": commit, "seed": seed}


def fresh_setup(args) -> dict[str, float]:
    """Import and input-building times of one fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    done = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S / 4, check=True)
    return json.loads(done.stdout)


def probe(args) -> int:
    """Set the workload up once in this fresh interpreter; print the times."""
    sys.path[:0] = [str(HERE), str(ROOT / "tests")]
    start = time.perf_counter()
    import hetcomp  # noqa: F401
    import_s = time.perf_counter() - start
    from workloads import WORKLOADS

    start = time.perf_counter()
    WORKLOADS[args.workload](args.seed).setup()
    print(json.dumps({"import_s": import_s,
                      "inputs_s": time.perf_counter() - start}))
    return 0


def measure(workload, seconds: float, set_up=None):
    """Closed loop: passes of the timed body, at least one, while the next
    pass is expected to end within `seconds`.  Given `set_up`, also call
    it between passes while its calls have taken less than SETUP_SHARE
    of the time."""
    from workloads import OpFailed, Pass, Tally

    tally = Tally()
    start = time.perf_counter()
    deadline = start + seconds
    setting_up, rounds = 0.0, 0
    while True:
        if set_up is not None and (
                setting_up < SETUP_SHARE * (time.perf_counter() - start)):
            t = time.perf_counter()
            set_up()
            setting_up += time.perf_counter() - t
        p = Pass(tally)
        try:
            workload.run_pass(p)
        except OpFailed:
            pass
        else:
            tally.pass_s.append(p.elapsed)
        rounds += 1
        now = time.perf_counter()
        if now + (now - start) / rounds > deadline:
            break
    return tally


def end_to_end(tally, setups) -> tuple[dict, list[str]]:
    """The end-to-end metrics, and report lines."""
    w = tally.work
    value, pct = tail(tally.op_s)
    metrics = {
        "setup_s": statistics.median(s["import_s"] + s["inputs_s"]
                                     for s in setups),
        "run_s": statistics.mean(tally.pass_s),
        "op_s.p50": statistics.median(tally.op_s),
        "op_s.tail": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }

    def rate(amount, seconds, unit=1.0):
        if amount not in w or not w.get(seconds):
            return "n/a"
        return f"{w[amount] / unit / w[seconds]:.6g}"

    notes = [
        f"setup_s is the median of {len(setups)} fresh processes: import "
        f"{statistics.median(s['import_s'] for s in setups):.6g} s, inputs "
        f"{statistics.median(s['inputs_s'] for s in setups):.6g} s (medians)",
        f"fail_ratio {tally.failed / tally.attempted:.6g} "
        f"({tally.failed} of {tally.attempted} operations)",
        f"op_s.tail is p{pct:.2f} of {len(tally.op_s)} operations; "
        f"{len(tally.pass_s)} passes",
        f"states_per_s {rate('states', 'explore_s')} 1/s",
        f"transitions_per_s {rate('transitions', 'explore_s')} 1/s",
        f"dot_mb_per_s {rate('parse_bytes', 'parse_s', 1e6)} MB/s",
        f"emit_mb_per_s {rate('emit_bytes', 'emit_s', 1e6)} MB/s",
    ]
    return metrics, notes


def per_layer(tracer, plain, traced) -> dict[str, float]:
    metrics = spans.layer_metrics(tracer.spans, tracer.counters,
                                  len(traced.pass_s))
    metrics["trace.overhead_ratio"] = (statistics.mean(traced.pass_s)
                                       / statistics.mean(plain.pass_s))
    return metrics


def child(args) -> int:
    sys.path[:0] = [str(HERE), str(ROOT / "tests")]
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    env = environment(args.seed)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as tmp:
        workload.setup()
        workload.write(Path(tmp))
        workload.reference()
        setups = []

        def set_up():
            setups.append(fresh_setup(args))

        plain_s = args.seconds - (min(args.seconds / 2, TRACED_MAX_S)
                                  if args.trace else 0)
        tally = measure(workload, plain_s, set_up)
        while len(setups) < SETUP_MIN_RUNS:
            set_up()
        if args.trace:
            tracer = spans.Tracer()
            spans.install(tracer)
            try:
                traced = measure(workload, args.seconds - plain_s)
            finally:
                tracer.restore()
    if not tally.pass_s or (args.trace and not traced.pass_s):
        print("error: no pass of the timed body completed", file=sys.stderr)
        for failure in tally.failures:
            print(f"FAILED {failure}", file=sys.stderr)
        return 1

    if not args.trace:
        metrics, notes = end_to_end(tally, setups)
        units = END_TO_END_UNITS
    else:
        metrics = per_layer(tracer, tally, traced)
        units = {k: per_layer_unit(k) for k in metrics}
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans_file)
        notes = [f"{len(tracer.spans)} spans over {len(traced.pass_s)} "
                 f"traced passes written to {spans_file.relative_to(ROOT)}"]
        tally.attempted += traced.attempted
        tally.failed += traced.failed
        tally.failures += traced.failures

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    record = dict(result, workload=args.workload, trace=args.trace,
                  seconds=args.seconds, env=env, setups=setups, notes=notes,
                  failures=tally.failures)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}-seed{args.seed}.json"
     ).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for k, v in metrics.items():
        print(f"{k} {v:.6g} {units[k]}")
    for note in notes:
        print(note)
    for failure in tally.failures:
        print(f"FAILED {failure}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def per_layer_unit(name: str) -> str:
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def spawn(args, workload: str) -> int:
    """Run one workload in a fresh interpreter and relay its output."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=CHILD_ENV,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload {workload} ran past {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    finally:
        # also on SIGTERM or Ctrl-C: never leave the child running
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    # exit through finally blocks, so temporary files and children go too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.probe:
        return probe(args)
    if args.child:
        return child(args)

    missing = [p for p in ("src/hetcomp/__init__.py", "tests/bruteforce.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} is not a hetcomp checkout (missing "
              f"{', '.join(missing)})", file=sys.stderr)
        return 2
    codes = [spawn(args, w) for w in
             (NAMES if args.workload == "all" else (args.workload,))]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
