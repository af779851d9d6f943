"""In-memory span tracing of the aktest layers, patched in from outside.

The library has no trace hooks of its own, so a traced run replaces the
public functions each layer calls with timing wrappers, at the name the
caller looks them up by, and restores them afterwards:

- ``aktest.tester.flatten_closeness`` (the tester imports it by name); its
  wrapper also wraps the two encoded accesses the tester passes in, which
  rank-reduce fresh points against the batch ladder;
- ``aktest.flatten.robust_l2_test`` and ``aktest.flatten.build_split_map``
  (``flatten_closeness`` looks both up in its own module);
- ``SplitMap.split_counts_arrays`` and ``CoverFamily.sample_ids_encoded``
  (methods, patched on their classes);
- ``aktest.verify.order_tuple_distribution_distance`` (the order-tuple
  suite imports it by name).

Spans around the family point accesses, each tester trial, the oracle
calls and the verify suites are opened by the benchmark's own job code.
A span is ``[name, start, end, parent index, trial id]``; self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import aktest.covering
import aktest.flatten
import aktest.tester
import aktest.verify

# Span name -> per-layer metric, where the metric is not simply name + "_s".
_SELF_METRIC = {
    "tester.trial": "tester.batch_s",
    "flatten.l2": "flatten.l2_self_s",
    "flatten.closeness": "flatten.closeness_self_s",
}


class Tracer:
    """Collects spans and counts of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.trial = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.trial])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, on_result=None):
        """fn inside a span; on_result(args, result) runs after the span."""

        def wrapped(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapped

    def add(self, name: str, value) -> None:
        self.counts[name] += value

    def peak(self, name: str, value) -> None:
        self.counts[name] = max(self.counts[name], value)

    def self_times(self) -> dict[str, float]:
        """Summed self time per per-layer metric name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[_SELF_METRIC.get(name, name + "_s")] += end - start - inner
        return out

    def span_counts(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, trial in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "trial": trial,
                        }
                    )
                    + "\n"
                )


def _count_codes(tracer: Tracer):
    def on_result(args, codes):
        cover = args[0]
        tracer.add("covering.codes", len(codes))
        tracer.add("covering.empty", int((codes == aktest.covering.EMPTY_CODE).sum()))
        space = cover.per_axis_count**cover.dim
        tracer.peak("covering.code_bits", int(space).bit_length())

    return on_result


def _count_split_map(tracer: Tracer):
    def on_result(args, split):
        tracer.add("flatten.m0", split.flattening_size)
        tracer.peak("flatten.max_parts", split.max_parts)

    return on_result


def _count_split(tracer: Tracer):
    def on_result(args, result):
        tracer.add("flatten.split_elems", len(args[1]))

    return on_result


@contextmanager
def patched(tracer: Tracer):
    """Route the library's layer calls through tracer spans."""
    closeness = aktest.tester.flatten_closeness

    def traced_closeness(p_access, q_access, *args, **kwargs):
        with tracer.span("flatten.closeness"):
            return closeness(
                tracer.wrap("tester.rank", p_access),
                tracer.wrap("tester.rank", q_access),
                *args,
                **kwargs,
            )

    targets = [
        (aktest.tester, "flatten_closeness", traced_closeness),
        (
            aktest.flatten,
            "robust_l2_test",
            tracer.wrap("flatten.l2", aktest.flatten.robust_l2_test),
        ),
        (
            aktest.flatten,
            "build_split_map",
            tracer.wrap(
                "flatten.split_build",
                aktest.flatten.build_split_map,
                _count_split_map(tracer),
            ),
        ),
        (
            aktest.flatten.SplitMap,
            "split_counts_arrays",
            tracer.wrap(
                "flatten.split",
                aktest.flatten.SplitMap.split_counts_arrays,
                _count_split(tracer),
            ),
        ),
        (
            aktest.covering.CoverFamily,
            "sample_ids_encoded",
            tracer.wrap(
                "covering.encode",
                aktest.covering.CoverFamily.sample_ids_encoded,
                _count_codes(tracer),
            ),
        ),
        (
            aktest.verify,
            "order_tuple_distribution_distance",
            tracer.wrap(
                "hardness.order_tuple",
                aktest.verify.order_tuple_distribution_distance,
            ),
        ),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in targets]
    try:
        for owner, name, replacement in targets:
            setattr(owner, name, replacement)
        yield tracer
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
