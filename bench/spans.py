"""Spans around the calls into kdgraph's layers, recorded from outside.

The tracer replaces module and class attributes with timing wrappers for
the duration of a ``with`` block and puts the originals back afterwards.
It wraps the names as the *calling* module sees them (``kdgraph.pipeline``
imports its stages with ``from .x import f``), so each wrapper measures a
call made by the CLI, the pipeline or the oracle, not one made elsewhere.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing span (-1 for none) and ``op`` the id of the benchmark
operation it belongs to.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, span name): public functions the CLI, the pipeline
# and the oracle call, under the names those modules bind.
WRAPPED_FUNCTIONS = [
    ("kdgraph.cli", "parse_fact_path", "facts.parse"),
    ("kdgraph.cli", "merge_stores", "facts.merge"),
    ("kdgraph.cli", "run_pipeline", "pipeline.run"),
    ("kdgraph.cli", "synthesize_super_event", "linking.super_event"),
    ("kdgraph.cli", "encode_program", "oracle.encode"),
    ("kdgraph.cli", "differential_check", "oracle.differential_check"),
    ("kdgraph.pipeline", "build_udg", "graph.build_udg"),
    ("kdgraph.pipeline", "build_kdg", "graph.build_kdg"),
    ("kdgraph.pipeline", "infer_event_typing", "derivation.typing"),
    ("kdgraph.pipeline", "derive_next_events", "derivation.next_events"),
    ("kdgraph.pipeline", "derive_first_last_subevents", "derivation.first_last"),
    ("kdgraph.pipeline", "classify_event_kind", "derivation.event_kind"),
    ("kdgraph.pipeline", "derive_io_relations", "derivation.io_relations"),
    ("kdgraph.pipeline", "propagate_io", "derivation.propagate_io"),
    ("kdgraph.pipeline", "default_output_location", "derivation.default_location"),
    ("kdgraph.pipeline", "match_instances", "resolution.match"),
    ("kdgraph.pipeline", "spatial_match", "resolution.spatial"),
    ("kdgraph.pipeline", "joins", "linking.joins"),
    ("kdgraph.pipeline", "filter_joins", "linking.filter_joins"),
    ("kdgraph.pipeline", "subevent_closure", "linking.subevent_closure"),
    ("kdgraph.pipeline", "possible_next_events", "linking.possible_next"),
    ("kdgraph.pipeline", "extract_chains", "linking.chains"),
    ("kdgraph.oracle", "run_pipeline", "oracle.engine"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.ops: list[str] = []  # kind of each benchmark operation, by op id
        self.op: int | None = None
        # Counters by op id.
        self.best_calls: Counter[int] = Counter()
        self.best_hits: Counter[int] = Counter()
        self.model_atoms: Counter[int] = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def start_op(self, kind: str) -> int:
        """Attribute the spans that follow to a new operation of ``kind``."""
        self.op = len(self.ops)
        self.ops.append(kind)
        return self.op

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_model(self, model):
        self.model_atoms[self.op] += model.size()

    def _count_best(self, best):
        # MatchSet.best runs up to millions of times per command; a span
        # per call would swamp the trace, so calls and hits are counted.
        def counted(matches, source, target):
            found = best(matches, source, target)
            self.best_calls[self.op] += 1
            if found is not None:
                self.best_hits[self.op] += 1
            return found

        return counted

    def _replace(self, owner, attr: str, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        """Wrap every traced call site; restore the originals on exit."""
        try:
            for module_name, attr, name in WRAPPED_FUNCTIONS:
                module = importlib.import_module(module_name)
                self._replace(module, attr, self._wrap(name, getattr(module, attr)))
            match_set = importlib.import_module("kdgraph.resolution").MatchSet
            program = importlib.import_module("kdgraph.oracle").RuleProgram
            self._replace(
                match_set, "report", self._wrap("resolution.report", match_set.report)
            )
            self._replace(match_set, "best", self._count_best(match_set.best))
            self._replace(
                program,
                "evaluate",
                self._wrap("oracle.evaluate", program.evaluate, self._count_model),
            )
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def dump(self, path: Path):
        """Write every span, with its self time, as a JSON list."""
        own = self.self_times()
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "op": op, "self": own[i]}
            for i, (n, s, e, p, op) in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows) + "\n")
