"""Tests of the benchmark's own code.

Run from the root of a checkout:

    python3 -m pytest perfbench        (or: python3 -m unittest discover perfbench)
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (HERE, ROOT / "tests", ROOT / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import bruteforce  # noqa: E402
import hetcomp  # noqa: E402

import models  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")


def net_of(dots, modes=None):
    procs = [hetcomp.Process(inst, hetcomp.parse_dot(text)) for inst, text in dots]
    return hetcomp.with_channel_modes(hetcomp.compose(*procs), modes or {})


def oracle_counts(net):
    """(reachable nodes, edges out of them) by the brute-force oracle."""
    start = bruteforce.initial_node(net)
    seen, stack, edges = {start}, [start], 0
    while stack:
        succ = bruteforce.node_edges(net, stack.pop())
        edges += len(succ)
        for nxt in succ:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen), edges


def oracle_distance(net, goal):
    """Shortest number of steps to a node satisfying goal(node, succ)."""
    frontier, seen, depth = [bruteforce.initial_node(net)], set(), 0
    seen.update(frontier)
    while frontier:
        nxt = []
        for node in frontier:
            succ = bruteforce.node_edges(net, node)
            if goal(node, succ):
                return depth
            for s in succ:
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier, depth = nxt, depth + 1
    return None


class ClosedForms(unittest.TestCase):
    def test_philosophers_against_oracle(self):
        for n in (2, 3, 4):
            m = models.philo_model(n, random.Random(n))
            net = net_of(m.dots)
            self.assertEqual(oracle_counts(net), models.philo_counts(n))
            self.assertEqual(
                oracle_distance(net, lambda node, succ: not succ), n)
            both_eat = lambda node, succ: (dict(node[0])["P0"] == m.eat
                                           and dict(node[0])["P1"] == m.eat)
            self.assertIsNone(oracle_distance(net, both_eat))

    def test_fifo_group_against_oracle(self):
        for c in (1, 2, 3):
            m = models.fifo_model(1, c, random.Random(c))
            chans = [line.split()[1] for line in m.script.splitlines()
                     if line.startswith("channel ")]
            net = net_of(m.dots, {q: hetcomp.async_mode(c) for q in chans})
            self.assertEqual(oracle_counts(net), models.fifo_counts(1, c))
            self.assertIsNone(oracle_distance(net, lambda node, succ: not succ))
            busy = lambda node, succ: (dict(node[0])["A1"] == m.busy
                                       and dict(node[0])["B1"] == m.busy)
            self.assertEqual(oracle_distance(net, busy),
                             models.fifo_witness_steps(c))

    def test_fifo_groups_multiply(self):
        s1, t1 = models.fifo_group_counts(4)
        self.assertEqual(models.fifo_counts(2, 4), (15_376, 75_392))
        self.assertEqual((s1 ** 2, 2 * s1 * t1), (15_376, 75_392))

    def test_big_model_counts(self):
        m = models.big_model(40, 120, random.Random(5))
        lts = hetcomp.parse_dot(m.text)
        self.assertEqual((len(lts.states), len(lts.transitions)), (40, 120))
        kept = hetcomp.filter_facet(lts, {m.keep_facet})
        self.assertEqual(len(kept.transitions), m.edges_after_filter)

    def test_same_seed_same_inputs(self):
        a = models.big_model(30, 60, random.Random(9)).text
        self.assertEqual(a, models.big_model(30, 60, random.Random(9)).text)
        self.assertNotEqual(a, models.big_model(30, 60, random.Random(8)).text)


class SmallChecksOracle(unittest.TestCase):
    def test_verdicts_match_hetcomp(self):
        rng = random.Random(3)
        pool = models.small_pool(rng)
        texts = {stem: models.small_dot(stem, lts, rng)
                 for stem, lts in pool.items()}
        for _ in range(60):
            net = models.small_net(rng, pool)
            (dl, dl_steps), (rc, rc_steps) = workloads.oracle_verdicts(net, pool)
            procs = [hetcomp.Process(inst, hetcomp.parse_dot(texts[stem]))
                     for inst, stem in net.parts]
            hnet = hetcomp.with_channel_modes(
                hetcomp.compose(*procs),
                {c: hetcomp.async_mode(k) for c, k in net.async_caps})
            v = hetcomp.check(hnet, hetcomp.DEADLOCK_FREE)
            self.assertEqual(v.holds, dl)
            if not dl:
                self.assertEqual(len(v.witness), dl_steps)
            v = hetcomp.check(hnet, hetcomp.reach(*net.reach))
            self.assertEqual(v.holds, rc)
            if rc:
                self.assertEqual(len(v.witness), rc_steps)


class SelfTime(unittest.TestCase):
    def test_hand_built_tree(self):
        tree = [
            [0, -1, "cli.main", 0.0, 10.0],
            [1, 0, "scriptlang.parse_script", 1.0, 2.0],
            [2, 0, "checker.check", 3.0, 9.0],
            [3, 2, "semantics.enabled", 4.0, 5.5],
            [4, 3, "lts.outgoing", 4.5, 5.0],
            [5, 2, "semantics.enabled", 6.0, 7.0],
        ]
        self.assertEqual(spans.self_times(tree),
                         [3.0, 1.0, 3.5, 1.0, 0.5, 1.0])
        m = spans.layer_metrics(tree, {}, passes=2)
        self.assertEqual(m["cli.main.self_s"], 1.5)
        self.assertEqual(m["checker.check.self_s"], 1.75)
        self.assertEqual(m["semantics.enabled.calls"], 1.0)
        self.assertEqual(m["checker.states_expanded"], 1.0)

    def test_wrappers_record_and_restore(self):
        tracer = spans.Tracer()
        original = hetcomp.parse_dot
        spans.install(tracer)
        try:
            hetcomp.parse_dot("digraph g { a -> b [label=\"x!\"]; }")
        finally:
            tracer.restore()
        self.assertIs(hetcomp.parse_dot, original)
        self.assertEqual([s[spans.NAME] for s in tracer.spans],
                         ["dotio.parse_dot"])

    def test_no_calls_reports_zero(self):
        m = spans.layer_metrics([], {}, passes=1)
        self.assertEqual(set(m), set(spans.PER_LAYER))
        self.assertTrue(all(v == 0 for v in m.values()))


class Names(unittest.TestCase):
    def test_metric_names(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = ([m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
                 + list(run.END_TO_END_UNITS) + list(spans.PER_LAYER)
                 + [w["name"] for w in bench["workloads"]])
        for name in names:
            self.assertRegex(name, NAME_RE)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END_UNITS)
        for m in bench["per_layer"]:
            self.assertEqual(m["unit"], run.per_layer_unit(m["name"]))
        self.assertEqual({m["name"] for m in bench["per_layer"]},
                         set(spans.PER_LAYER) | {"trace.overhead_ratio"})
        self.assertLessEqual({w["name"] for w in bench["workloads"]},
                             set(workloads.WORKLOADS))
        self.assertEqual(run.NAMES, tuple(workloads.WORKLOADS))

    def test_every_layer_metric_is_mapped(self):
        layers = json.loads((HERE / "baseline.json").read_text())["layers"]
        mapped = [m for layer in layers.values() for m in layer["metrics"]]
        self.assertEqual(sorted(mapped),
                         sorted(spans.PER_LAYER + ("trace.overhead_ratio",)))

    def test_fresh_setup_times_import_and_inputs(self):
        args = argparse.Namespace(workload="philo", seed=1, seconds=1.0)
        times = run.fresh_setup(args)
        self.assertEqual(set(times), {"import_s", "inputs_s"})
        self.assertTrue(all(v > 0 for v in times.values()))

    def test_tail(self):
        value, pct = run.tail([float(i) for i in range(100)])
        self.assertEqual((value, pct), (89.0, 90.0))
        self.assertEqual(run.tail([3.0, 1.0]), (3.0, 100.0))


if __name__ == "__main__":
    unittest.main()
