"""The four workloads: seeded set-up, one pass of the timed body, gates.

Each workload is a closed loop with one client: an operation starts when
the previous one returns.  ``run_pass`` times every operation on its own
and checks its output right after, outside the operation's timer.  Every
pass of a workload does the same work.  A gate compares against a
reference that does not come from hetcomp's semantics or checker: closed
forms from ``models``, line and tag counts of the emitted text, and
``tests/bruteforce.py``.

hetcomp is reached only through public names, looked up at call time
(``hetcomp.check``, ``hetcomp.cli.main``, ...), so that the traced run's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from collections import deque
from pathlib import Path

import hetcomp
import hetcomp.cli

import models


class Tally:
    """Operation latencies, pass times and gate results of one phase."""

    def __init__(self):
        self.op_s: list[float] = []
        self.pass_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.work: dict[str, float] = {}   # name -> amount, for throughputs

    def add_work(self, name: str, amount: float) -> None:
        self.work[name] = self.work.get(name, 0.0) + amount

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


class OpFailed(Exception):
    """An operation raised; the rest of its pass is skipped."""


class Pass:
    """Times the operations of one pass into a Tally."""

    def __init__(self, tally: Tally):
        self.tally = tally
        self.elapsed = 0.0

    def op(self, name: str, fn, *args):
        self.tally.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as e:  # a failed operation is counted, not fatal
            self.tally.fail(f"{name} raised {type(e).__name__}: {e}")
            raise OpFailed(name) from e
        dt = time.perf_counter() - start
        self.tally.op_s.append(dt)
        self.elapsed += dt
        return result, dt

    def gate(self, name: str, ok: bool, detail: str = "") -> None:
        """Count a wrong output as a failed operation.

        The operation was already counted as attempted, so only the
        failure is added here.
        """
        if not ok:
            self.tally.fail(f"{name}: {detail}")


def dot_counts(text: str) -> tuple[int, int, int]:
    """(node statements, edge statements, init markers) of emitted DOT."""
    nodes = edges = inits = 0
    for line in text.splitlines():
        if " -> " in line:
            edges += 1
        elif line.endswith(";"):
            nodes += 1
            inits += "[init=true]" in line
    return nodes, edges, inits


def lotos_processes(text: str) -> int:
    return sum(line.startswith("process ") for line in text.splitlines())


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = hetcomp.cli.main(argv)
    return code, out.getvalue()


class Workload:
    """One workload, seeded: ``setup`` builds its inputs in memory, which
    is what ``setup_s`` times; the other hooks run once, untimed."""

    def __init__(self, seed: int):
        self.seed = seed

    def write(self, workdir: Path) -> None:
        """Write the input files the timed body reads."""

    def reference(self) -> None:
        """Work out the expected outputs that no closed form gives."""


class Philo(Workload):
    """Dining philosophers built from generated DOT text."""

    name = "philo"
    n = 7

    def setup(self) -> None:
        self.states, self.transitions = models.philo_counts(self.n)
        self.model = models.philo_model(self.n, random.Random(self.seed))
        self.procs = [hetcomp.Process(inst, hetcomp.parse_dot(text))
                      for inst, text in self.model.dots]

    def run_pass(self, p: Pass) -> None:
        n, eat = self.n, self.model.eat
        net, _ = p.op("compose", hetcomp.compose, *self.procs)
        p.gate("compose", len(net.components) == 2 * n, "component count")

        v, _ = p.op("check_deadlock", hetcomp.check, net, hetcomp.DEADLOCK_FREE)
        p.gate("check_deadlock", v.outcome == "false"
               and len(v.witness or ()) == n,
               f"{v.outcome} with {len(v.witness or ())} steps, want false/{n}")

        v, t_reach = p.op("check_reach", hetcomp.check, net,
                          hetcomp.reach(("P0", eat), ("P1", eat)))
        p.gate("check_reach", v.outcome == "false", v.outcome)

        lts, t_prod = p.op("product", hetcomp.product, net)
        p.gate("product", (len(lts.states), len(lts.transitions))
               == (self.states, self.transitions),
               f"{len(lts.states)}/{len(lts.transitions)} states/transitions")

        text, t_emit = p.op("emit_dot", hetcomp.emit_dot, lts)
        p.gate("emit_dot", dot_counts(text)
               == (self.states, self.transitions, 1), "line counts")

        # the false reachability check and product explore everything
        p.tally.add_work("explore_s", t_reach + t_prod)
        p.tally.add_work("states", 2 * self.states)
        p.tally.add_work("transitions", 2 * self.transitions)
        p.tally.add_work("emit_s", t_emit)
        p.tally.add_work("emit_bytes", len(text))


class FifoScript(Workload):
    """`hetcomp run` on a script over k groups of FIFO senders."""

    name = "fifo-script"
    k = 2
    capacity = 2

    def setup(self) -> None:
        self.states, self.transitions = models.fifo_counts(self.k,
                                                           self.capacity)
        self.model = m = models.fifo_model(self.k, self.capacity,
                                           random.Random(self.seed))
        chans = sorted(line.split()[1] for line in m.script.splitlines()
                       if line.startswith("channel "))
        steps = models.fifo_witness_steps(self.capacity)
        self.expected_stdout = "\n".join([
            " ".join(chans),
            "check A[] not deadlock: true",
            f"check {m.reach_query}: true",
            f"  witness ({steps} steps):",
        ])

    def write(self, workdir: Path) -> None:
        indir = workdir / "in"
        indir.mkdir(parents=True, exist_ok=True)
        for inst, text in self.model.dots:
            (indir / f"{inst}.dot").write_text(text, encoding="utf-8")
        self.script = indir / "net.hcs"
        self.script.write_text(self.model.script, encoding="utf-8")
        self.out = workdir / "out"

    def run_pass(self, p: Pass) -> None:
        (code, stdout), _ = p.op("cli_run", run_cli,
                                 ["run", str(self.script),
                                  "--out-dir", str(self.out)])
        p.gate("cli_run", code == 0, f"exit code {code}")
        shown = [line for line in stdout.splitlines()
                 if not line.startswith(("    ", "wrote "))]
        p.gate("cli_run", "\n".join(shown) == self.expected_stdout,
               f"stdout {shown!r}")
        product = self.out / "product.dot"
        lotos = self.out / "A1.lotos"
        try:
            dot_text = product.read_text(encoding="utf-8")
            lotos_text = lotos.read_text(encoding="utf-8")
        except OSError as e:
            p.gate("cli_run", False, f"missing output: {e}")
            return
        p.gate("emit_dot", dot_counts(dot_text)
               == (self.states, self.transitions, 1), "product line counts")
        p.gate("emit_lotos", lotos_processes(lotos_text) == 3,
               "LOTOS process count")
        product.unlink()
        lotos.unlink()


class BigDot(Workload):
    """One large component through the frontend and every backend."""

    name = "bigdot"
    n_states = 500
    n_edges = 2000

    def setup(self) -> None:
        self.model = models.big_model(self.n_states, self.n_edges,
                                      random.Random(self.seed))

    def run_pass(self, p: Pass) -> None:
        m = self.model
        lts, t_parse = p.op("parse", hetcomp.parse_dot, m.text)
        p.gate("parse", (len(lts.states), len(lts.transitions))
               == (m.states, m.edges), "state/edge counts")
        proc, _ = p.op("rename", lambda: hetcomp.rename(
            hetcomp.Process("big", lts), m.rename_from, m.rename_to))
        p.gate("rename", m.rename_to in proc.interface
               and m.rename_from not in proc.interface, "interface")
        kept, _ = p.op("filter", lambda: hetcomp.Process(
            "big", hetcomp.filter_facet(proc.body, {m.keep_facet})))
        body = kept.body
        text, t_dot = p.op("emit_dot", hetcomp.emit_dot, kept)
        p.gate("emit_dot", dot_counts(text)
               == (m.states, m.edges_after_filter, 1), "line counts")
        again, t_reparse = p.op("reparse", hetcomp.parse_dot, text)
        p.gate("reparse", again == body, "reparsed Lts differs")
        xml, t_xml = p.op("emit_uppaal", lambda: hetcomp.emit_uppaal(
            hetcomp.compose(kept)))
        p.gate("emit_uppaal", (xml.count("<transition>"),
                               xml.count("<location "))
               == (m.edges_after_filter, m.states), "tag counts")
        lotos, t_lotos = p.op("emit_lotos", hetcomp.emit_lotos, kept)
        p.gate("emit_lotos", lotos_processes(lotos) == m.states + 1,
               "LOTOS process count")

        p.tally.add_work("parse_s", t_parse + t_reparse)
        p.tally.add_work("parse_bytes", len(m.text) + len(text))
        p.tally.add_work("emit_s", t_dot + t_xml + t_lotos)
        p.tally.add_work("emit_bytes", len(text) + len(xml) + len(lotos))


class SmallChecks(Workload):
    """Many `hetcomp check` calls on small random nets.

    The nets come from one fixed population.  Their costs are heavy
    tailed (a few four-component nets with buffers take 15 times the
    median call), so a population drawn per seed would make op_s.tail
    report which outliers the seed happened to draw.  The seed shuffles
    the call order and the statements of every DOT file.  A pass runs
    every script once, so that each net is run equally often: op_s.tail
    then reads the few slowest nets, whichever part of the order a run
    ends in.
    """

    name = "small-checks"
    population_seed = 0
    scripts = 3000

    def setup(self) -> None:
        shape = random.Random(self.population_seed)
        order = random.Random(self.seed)
        self.pool = models.small_pool(shape)
        self.dots = {stem: models.small_dot(stem, lts, order)
                     for stem, lts in self.pool.items()}
        self.nets = [models.small_net(shape, self.pool)
                     for _ in range(self.scripts)]
        order.shuffle(self.nets)
        self.texts = [net.script() for net in self.nets]

    def write(self, workdir: Path) -> None:
        for stem, text in self.dots.items():
            (workdir / f"{stem}.dot").write_text(text, encoding="utf-8")
        self.paths = []
        for k, text in enumerate(self.texts):
            script = workdir / f"n{k}.hcs"
            script.write_text(text, encoding="utf-8")
            self.paths.append(str(script))

    def reference(self) -> None:
        """Expected stdout lines and exit code of every script, from the
        brute-force oracle (run once, untimed and untraced)."""
        self.expected = []
        for net in self.nets:
            (dl, dl_steps), (rc, rc_steps) = oracle_verdicts(net, self.pool)
            want = [f"check A[] not deadlock: {'true' if dl else 'false'}"]
            if not dl:
                want.append(f"  witness ({dl_steps} steps):")
            want.append(f"check {net.reach_text}: {'true' if rc else 'false'}")
            if rc:
                want.append(f"  witness ({rc_steps} steps):")
            self.expected.append((want, 0 if dl and rc else 1))

    def run_pass(self, p: Pass) -> None:
        for k, path in enumerate(self.paths):
            (code, stdout), _ = p.op("cli_check", run_cli,
                                     ["check", path])
            got = [line for line in stdout.splitlines()
                   if not line.startswith("    ")]
            want, want_code = self.expected[k]
            p.gate("cli_check", got == want and code == want_code,
                   f"net {k}: got {got!r} exit {code}, "
                   f"want {want!r} exit {want_code}")


def oracle_verdicts(net: models.SmallNet, pool: dict):
    """((deadlock-free, steps to a deadlock), (reachable, steps)).

    Breadth-first search over the brute-force oracle's own successor
    function, so the step counts are shortest-path lengths.
    """
    import bruteforce

    hnet = hetcomp.with_channel_modes(
        hetcomp.compose(*(hetcomp.Process(inst, pool[stem])
                          for inst, stem in net.parts)),
        {c: hetcomp.async_mode(cap) for c, cap in net.async_caps})
    start = bruteforce.initial_node(hnet)
    dist = {start: 0}
    queue = deque([start])
    deadlock = reach = None
    want = dict(net.reach)
    while queue:
        node = queue.popleft()
        local = dict(node[0])
        if reach is None and all(local[i] == s for i, s in want.items()):
            reach = dist[node]
        succ = bruteforce.node_edges(hnet, node)
        if deadlock is None and not succ:
            deadlock = dist[node]
        for nxt in succ:
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                queue.append(nxt)
    return (deadlock is None, deadlock), (reach is not None, reach)


WORKLOADS = {w.name: w for w in (Philo, FifoScript, BigDot, SmallChecks)}
