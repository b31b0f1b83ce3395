"""Spans around hetcomp's public functions, and the per-layer numbers.

The tracer replaces a function where its caller looks it up (a module
attribute such as ``hetcomp.checker.enabled``, or a method on a class)
with a wrapper that records one span per call: id, parent id, name,
start and end.  Spans stay in memory until the run ends.  Nothing under
``src/`` is changed; ``Tracer.restore`` puts every original back.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

# span: [id, parent id (-1 for none), name, start, end]
ID, PARENT, NAME, START, END = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a span for every call of ``owner.attr``.

        ``on_result(counters, args, result)`` runs after the span closes,
        to count work done (bytes, states) where it happens.
        """
        original = getattr(owner, attr)
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, clock(), 0.0]
            spans.append(span)
            stack.append(span[ID])
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if on_result is not None:
                on_result(counters, args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so siblings never overlap and the
    covered time is the sum of the children's durations.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _count_bytes(counters, args, result):
    counters["dotio.bytes"] += len(args[0])


def _count_explore(counters, args, result):
    states, steps = result
    counters["semantics.explore.states"] += len(states)
    counters["semantics.explore.transitions"] += sum(map(len, steps.values()))


def _count_witness(counters, args, result):
    counters["checker.witness_steps"] += len(result.witness or ())


def _count_emitted(counters, args, result):
    counters["emitters.bytes"] += len(result)   # ASCII output: chars == bytes


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    import hetcomp
    import hetcomp.checker
    import hetcomp.cli
    import hetcomp.emitters
    import hetcomp.semantics

    lookups = [
        # (owner, attribute, span name, counter hook)
        (hetcomp, "parse_dot", "dotio.parse_dot", _count_bytes),
        (hetcomp.cli, "parse_dot_document", "dotio.parse_dot_document",
         _count_bytes),
        (hetcomp.cli, "document_to_lts", "dotio.document_to_lts", None),
        (hetcomp.Lts, "outgoing", "lts.outgoing", None),
        (hetcomp, "filter_facet", "lts.filter_facet", None),
        (hetcomp.cli, "filter_facet", "lts.filter_facet", None),
        (hetcomp.semantics, "enabled", "semantics.enabled", None),
        (hetcomp.checker, "enabled", "semantics.enabled", None),
        (hetcomp.semantics, "explore", "semantics.explore", _count_explore),
        (hetcomp, "product", "semantics.product", None),
        (hetcomp.cli, "product", "semantics.product", None),
        (hetcomp, "check", "checker.check", _count_witness),
        (hetcomp.cli.checker, "check", "checker.check", _count_witness),
        (hetcomp.cli, "parse_script", "scriptlang.parse_script", None),
        (hetcomp.cli, "main", "cli.main", None),
    ]
    for op in ("compose", "rename", "with_channel_modes"):
        lookups.append((hetcomp, op, f"algebra.{op}", None))
        lookups.append((hetcomp.cli, op, f"algebra.{op}", None))
    for op in ("replace", "remove", "select", "extract_chan"):
        lookups.append((hetcomp.cli, op, f"algebra.{op}", None))
    for op in ("emit_dot", "emit_uppaal", "emit_lotos"):
        lookups.append((hetcomp, op, f"emitters.{op}", _count_emitted))
        lookups.append((hetcomp.emitters, op, f"emitters.{op}",
                        _count_emitted))
    for owner, attr, name, hook in lookups:
        tracer.wrap(owner, attr, name, hook)


PER_LAYER = (
    "dotio.parse.s", "dotio.parse.calls", "dotio.parse.mb_per_s",
    "lts.outgoing.s", "lts.outgoing.calls", "lts.filter_facet.s",
    "algebra.compose.s", "algebra.rename.s", "algebra.with_channel_modes.s",
    "algebra.calls",
    "semantics.explore.s", "semantics.explore.states",
    "semantics.explore.transitions", "semantics.enabled.s",
    "semantics.enabled.calls", "semantics.new_target_ratio",
    "semantics.product.self_s",
    "checker.check.s", "checker.check.self_s", "checker.check.calls",
    "checker.states_expanded", "checker.witness_steps",
    "emitters.emit_dot.s", "emitters.emit_uppaal.s", "emitters.emit_lotos.s",
    "emitters.bytes",
    "scriptlang.parse_script.s", "scriptlang.parse_script.calls",
    "cli.main.s", "cli.main.self_s", "cli.main.calls",
)


def layer_metrics(spans, counters, passes: int) -> dict[str, float]:
    """Per-layer totals over the traced run, divided by its passes.

    Times are in seconds and counts are calls or items, both per pass of
    the timed body; the two ratios are taken over the whole run.  A
    wrapper that saw no call contributes 0.
    """
    counters = Counter(counters)
    total: dict[str, float] = defaultdict(float)
    own_total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    expanded = 0
    own = self_times(spans)
    for s, own_s in zip(spans, own):
        name = s[NAME]
        total[name] += s[END] - s[START]
        own_total[name] += own_s
        calls[name] += 1
        if (name == "semantics.enabled" and s[PARENT] >= 0
                and spans[s[PARENT]][NAME] == "checker.check"):
            expanded += 1

    parse_s = (total["dotio.parse_dot"] + total["dotio.parse_dot_document"]
               + total["dotio.document_to_lts"])
    explored = counters["semantics.explore.transitions"]
    new_states = counters["semantics.explore.states"] - calls["semantics.explore"]
    whole_run = {
        "dotio.parse.s": parse_s,
        "dotio.parse.calls": calls["dotio.parse_dot"]
        + calls["dotio.parse_dot_document"],
        "lts.outgoing.s": total["lts.outgoing"],
        "lts.outgoing.calls": calls["lts.outgoing"],
        "lts.filter_facet.s": total["lts.filter_facet"],
        "algebra.compose.s": total["algebra.compose"],
        "algebra.rename.s": total["algebra.rename"],
        "algebra.with_channel_modes.s": total["algebra.with_channel_modes"],
        "algebra.calls": sum(n for k, n in calls.items()
                             if k.startswith("algebra.")),
        "semantics.explore.s": total["semantics.explore"],
        "semantics.explore.states": counters["semantics.explore.states"],
        "semantics.explore.transitions": explored,
        "semantics.enabled.s": total["semantics.enabled"],
        "semantics.enabled.calls": calls["semantics.enabled"],
        "semantics.product.self_s": own_total["semantics.product"],
        "checker.check.s": total["checker.check"],
        "checker.check.self_s": own_total["checker.check"],
        "checker.check.calls": calls["checker.check"],
        "checker.states_expanded": expanded,
        "checker.witness_steps": counters["checker.witness_steps"],
        "emitters.emit_dot.s": total["emitters.emit_dot"],
        "emitters.emit_uppaal.s": total["emitters.emit_uppaal"],
        "emitters.emit_lotos.s": total["emitters.emit_lotos"],
        "emitters.bytes": counters["emitters.bytes"],
        "scriptlang.parse_script.s": total["scriptlang.parse_script"],
        "scriptlang.parse_script.calls": calls["scriptlang.parse_script"],
        "cli.main.s": total["cli.main"],
        "cli.main.self_s": own_total["cli.main"],
        "cli.main.calls": calls["cli.main"],
    }
    out = {k: v / passes for k, v in whole_run.items()}
    out["dotio.parse.mb_per_s"] = (counters["dotio.bytes"] / 1e6 / parse_s
                                   if parse_s else 0.0)
    out["semantics.new_target_ratio"] = new_states / explored if explored else 0.0
    return {k: out[k] for k in PER_LAYER}
