"""Spans and counters around vccompress's layer boundaries, from outside.

The package is not edited: ``install`` rebinds the public functions of
``concepts``, ``learner``, ``game``, ``approx`` and ``scheme`` (and the private
exact solver ``learner`` imports) in every vccompress module that imported
them, so calls between modules pass through a wrapper.  A wrapper records a
span (name, start, end, parent span) and adds its duration to the layer's busy
time and to its parent's covered time; a layer's self time is busy minus
covered.  Hot leaf calls (ERM, side-info decode, sparsifier attempts) are
counted and timed but not kept as spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

import numpy as np

from vccompress import approx, concepts, game, learner, scheme


class Tracer:
    def __init__(self):
        self.busy: Counter = Counter()
        self.covered: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[list] = []  # [op index, name, start, end, parent span index]
        self.op = -1
        self._stack: list[list] = []  # [span index or None, covered seconds]

    def wrap(self, name, fn, on_result=None, keep_span=True):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            index = None
            if keep_span:
                index = len(self.spans)
                parent = next((f[0] for f in reversed(stack) if f[0] is not None), None)
                self.spans.append([self.op, name, 0.0, 0.0, parent])
            frame = [index, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.busy[name] += end - start
                self.covered[name] += frame[1]
                self.counts[name] += 1
                if stack:
                    stack[-1][1] += end - start
                if keep_span:
                    self.spans[index][2:4] = start, end
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def self_time(self, name: str) -> float:
        return self.busy[name] - self.covered[name]


def write_spans(tracer: Tracer, path) -> None:
    """Spans as [op index, name, start, end, parent span index], times in
    seconds from the first span's start."""
    origin = tracer.spans[0][2] if tracer.spans else 0.0
    rows = [[op, name, start - origin, end - origin, parent] for op, name, start, end, parent in tracer.spans]
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"fields": ["op", "name", "start_s", "end_s", "parent"], "spans": rows}))


def _rebind(original, replacement) -> int:
    """Point every vccompress module attribute bound to `original` at
    `replacement`; returns how many bindings changed."""
    changed = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "vccompress" or module_name.startswith("vccompress.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed += 1
    return changed


def _count_entries(tracer, args, result):
    tracer.counts["game.exact_entries"] += int(np.asarray(args[0]).size)


def _count_mw_iterations(tracer, args, result):
    tracer.counts["game.mw_iterations"] += int(result.iterations or 0)


def _count_pool(tracer, args, result):
    hypothesis_set, solution = result
    tracer.counts["learner.pool_size"] += len(hypothesis_set)
    if np.count_nonzero(solution.row_strategy.weights) == 1:
        tracer.counts["game.point_masses"] += 1


def _count_draws(tracer, args, result):
    tracer.counts["approx.draws"] += len(args[2])


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries; call once, before the traced ops."""
    functions = (
        # (module, attribute, span name, result hook, keep span)
        (concepts, "vc_dimension", "concepts.vc_dimension", None, True),
        (concepts, "dual_class", "concepts.dual_class", None, True),
        (concepts, "consistent_concepts", "concepts.consistent_concepts", None, True),
        (game, "_exact_minimax", "game.exact", _count_entries, True),
        (game, "solve_mw", "game.mw", _count_mw_iterations, True),
        (learner, "build_hypothesis_set", "learner.build", _count_pool, True),
        (learner, "escalate_budget", "learner.escalate", None, True),
        (approx, "sparsify_mixture", "approx.sparsify", None, True),
        (approx, "sparsification_deviation", "approx.attempt", _count_draws, False),
        (scheme, "compress", "scheme.compress", None, True),
        (scheme, "serialize_compressed", "scheme.serialize", None, True),
        (scheme, "deserialize_compressed", "scheme.deserialize", None, True),
        (scheme, "reconstruct", "scheme.reconstruct", None, True),
        (scheme, "decode_side_info", "scheme.decode_side_info", None, False),
    )
    for module, attr, name, hook, keep_span in functions:
        original = getattr(module, attr)
        if not _rebind(original, tracer.wrap(name, original, hook, keep_span)):
            raise RuntimeError(f"no binding of {module.__name__}.{attr} to trace")

    # ERM is one function with two callers that belong to different layers.
    erm = learner.lowest_consistent_concept
    learner.lowest_consistent_concept = tracer.wrap("learner.erm", erm, keep_span=False)
    scheme.lowest_consistent_concept = tracer.wrap("scheme.reconstruct_erm", erm, keep_span=False)

    cls = concepts.ConceptClass
    from_row_ints = vars(cls)["from_row_ints"].__func__
    cls.from_row_ints = classmethod(tracer.wrap("concepts.class_init", from_row_ints))
    for attr in ("matrix", "point_masks"):
        view = functools.cached_property(tracer.wrap(f"concepts.{attr}", vars(cls)[attr].func))
        view.__set_name__(cls, attr)
        setattr(cls, attr, view)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the traced ops: name -> (value, unit)."""
    busy, counts = tracer.busy, tracer.counts
    builds = counts["learner.build"]
    attempts = counts["approx.attempt"]
    erm_calls = counts["learner.erm"]
    return {
        "game.exact_s": (busy["game.exact"], "s"),
        "game.exact_calls": (counts["game.exact"], "count"),
        "game.exact_entries": (counts["game.exact_entries"], "count"),
        "game.mw_s": (busy["game.mw"], "s"),
        "game.mw_calls": (counts["game.mw"], "count"),
        "game.mw_iterations": (counts["game.mw_iterations"], "count"),
        "game.point_mass_ratio": (counts["game.point_masses"] / builds if builds else 0.0, "ratio"),
        "learner.build_s": (busy["learner.build"], "s"),
        "learner.self_s": (tracer.self_time("learner.build"), "s"),
        "learner.erm_calls": (erm_calls, "count"),
        "learner.erm_s": (busy["learner.erm"], "s"),
        "learner.pool_size": (counts["learner.pool_size"], "count"),
        "learner.useful_ratio": (counts["learner.pool_size"] / erm_calls if erm_calls else 0.0, "ratio"),
        "learner.escalations": (counts["learner.escalate"], "count"),
        "approx.sparsify_s": (busy["approx.sparsify"], "s"),
        "approx.draws": (counts["approx.draws"], "count"),
        "approx.attempts": (attempts, "count"),
        "approx.accept_ratio": (counts["approx.sparsify"] / attempts if attempts else 0.0, "ratio"),
        "scheme.compress_s": (busy["scheme.compress"], "s"),
        "scheme.compress_self_s": (tracer.self_time("scheme.compress"), "s"),
        "scheme.codec_s": (busy["scheme.serialize"] + busy["scheme.deserialize"], "s"),
        "scheme.side_info_decodes": (counts["scheme.decode_side_info"], "count"),
        "scheme.reconstruct_s": (busy["scheme.reconstruct"], "s"),
        "scheme.reconstruct_erm_calls": (counts["scheme.reconstruct_erm"], "count"),
        "concepts.class_init_s": (busy["concepts.class_init"], "s"),
        "concepts.vc_dimension_s": (busy["concepts.vc_dimension"], "s"),
        "concepts.dual_class_s": (busy["concepts.dual_class"], "s"),
        "concepts.matrix_s": (busy["concepts.matrix"], "s"),
        "concepts.point_masks_s": (busy["concepts.point_masks"], "s"),
        "concepts.consistent_concepts_s": (busy["concepts.consistent_concepts"], "s"),
    }
