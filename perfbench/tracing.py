"""Spans around the calls plsim's modules make into each other.

The tracer wraps, from outside, the names that ``plsim.experiments``,
``plsim.population`` and ``plsim.cli`` look up at call time, so the program's
source is not edited. Each call becomes a span: an id, the id of the span
that caused it, the Monte Carlo run it belongs to (spans of one run share
that identifier), the layer name, start and end, its self time (duration
minus the time of the spans it caused in the same process) and, for winner
kernels, the number of winners it drew.

Spans are kept in memory and appended to ``<prefix>.<pid>.jsonl`` when a
run ends and when the traced process finishes. Pool workers are forked from
the traced process, inherit the wrappers and write their own files.

A wrapped name that no longer exists is reported in ``missing`` and skipped,
so the untraced metrics keep working when a refactor renames a layer.
"""

from __future__ import annotations

import functools
import json
import os
import time


def _schedule_count(args, kwargs) -> int:
    sched = kwargs.get("sched", args[1] if len(args) > 1 else None)
    return int(sched.count)


def _by_prize_count(layer):
    return lambda args, kwargs: f"{layer}.k{_schedule_count(args, kwargs)}"


def _by_draws(layer):
    return lambda args, kwargs: f"{layer}.n{len(args[0] if args else kwargs['payouts'])}"


def _fixed(layer):
    return lambda args, kwargs: layer


def _payout_winners(args, kwargs, result) -> int:
    return len(result) * _schedule_count(args, kwargs)


def _matrix_winners(args, kwargs, result) -> int:
    return int(result.size)


class Tracer:
    def __init__(self, prefix: str):
        self.prefix = prefix
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[list] = []  # open spans: [span id, child seconds]
        self._origin: str | None = None  # cause of a forked worker's root spans
        self._seq = 0
        self._run: int | None = None
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self):
        # the worker keeps no span of its parent and reports its own
        self._origin = self._stack[-1][0] if self._stack else self._origin
        self.spans, self._stack = [], []

    def _wrap(self, fn, name_of, winners_of=None, run_scope=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = name_of(args, kwargs)
            tracer._seq += 1
            span_id = f"{os.getpid()}.{tracer._seq}"
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            if run_scope:
                tracer._run = args[1] if len(args) > 1 else kwargs["run_index"]
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent[1] += end - start
            tracer.spans.append({
                "id": span_id,
                "parent": parent[0] if parent is not None else tracer._origin,
                "run": tracer._run,
                "name": name,
                "start": start,
                "end": end,
                "self": end - start - frame[1],
                "winners": winners_of(args, kwargs, result) if winners_of else 0,
            })
            if run_scope:
                tracer._run = None
                tracer.flush()
            return result

        return traced

    def patch(self, owner, attr: str, layer: str, name_of=None, winners_of=None,
              run_scope=False):
        """Replace ``owner.attr`` by a traced wrapper; note it if it is gone."""
        fn = getattr(owner, attr, None)
        if fn is None:
            if layer not in self.missing:
                self.missing.append(layer)
            return
        setattr(owner, attr, self._wrap(fn, name_of or _fixed(layer), winners_of,
                                        run_scope))

    def flush(self):
        if not self.spans:
            return
        with open(f"{self.prefix}.{os.getpid()}.jsonl", "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the bracketing and caps protocols cross."""
    from plsim import cli, experiments, population

    pop_cls = population.AccountPopulation
    tracer.patch(population, "quantile", "pareto.quantile")
    tracer.patch(pop_cls, "sort_order", "population.sort")
    tracer.patch(pop_cls, "sorted_balances", "population.sort")
    tracer.patch(experiments, "generate", "population.generate")
    tracer.patch(experiments, "apply_cap", "population.apply_cap")
    for kernel, winners_of in (("random_payouts", _payout_winners),
                               ("bracketed_payouts", _payout_winners),
                               ("random_winner_matrix", _matrix_winners)):
        layer = f"drawing.{kernel}"
        tracer.patch(experiments, kernel, layer, _by_prize_count(layer), winners_of)
    tracer.patch(experiments, "worst_payout", "drawing.worst_payout")
    tracer.patch(experiments, "scale", "risk.scale", _by_draws("risk.scale"))
    tracer.patch(experiments, "var_approx", "risk.var_approx")
    for protocol in ("run_bracketing", "run_caps"):
        tracer.patch(experiments, protocol, f"experiments.{protocol}")
    for run_func in ("_bracketing_run", "_caps_run"):
        tracer.patch(experiments, run_func, "experiments.run", run_scope=True)
    for result_cls in ("BracketingResult", "CapResult"):
        owner = getattr(experiments, result_cls, None)
        if owner is None:
            tracer.missing.append(f"experiments.{result_cls}")
            continue
        tracer.patch(owner, "write_csv", "experiments.write_csv")
        tracer.patch(owner, "to_json_dict", "experiments.to_json")
    tracer.patch(cli, "_emit_result", "cli.emit")


def load_spans(prefix_dir, prefix_name: str) -> list[dict]:
    spans = []
    for path in sorted(prefix_dir.glob(f"{prefix_name}.*.jsonl")):
        with open(path) as fh:
            spans += [json.loads(line) for line in fh]
    return spans
