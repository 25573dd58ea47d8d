"""Stage work that grows with input plus output, and no faster.

Work is counted, not timed: the calls a stage makes to the store or the
relation it fills, counted by wrapping them for the length of that stage
only.  On the deep ``subevent`` chain with IO (``fuzz.chain_store``) at n,
2n and 4n events, each count must stay within ``C`` times the asserted
input facts plus what the stage outputs.  A stage that turns quadratic in
the chain's depth again exceeds the bound at the larger sizes, however
fast the host is.
"""

from collections import Counter

import pytest

from kdgraph import pipeline
from kdgraph.fuzz import chain_store
from kdgraph.resolution import MatchSet

SIZES = (100, 200, 400)
C = 2  # counted calls allowed per input fact or output item


def _count_calls(patch, owner, name: str, counts: Counter, key: str):
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)

    patch.setattr(owner, name, counting)


def _stage_work(monkeypatch, depth: int) -> tuple[int, Counter, Counter]:
    """(input facts, calls per stage, output size per stage) of one run."""
    calls: Counter = Counter()
    outputs: Counter = Counter()
    propagate_io, match_instances = pipeline.propagate_io, pipeline.match_instances

    def counted_propagate_io(store, kinds):
        with monkeypatch.context() as patch:
            _count_calls(patch, store, "add_derived", calls, "propagate_io")
            added = propagate_io(store, kinds)
        outputs["propagate_io"] = len(added)
        return added

    def counted_match_instances(store, hierarchy):
        with monkeypatch.context() as patch:
            _count_calls(patch, MatchSet, "add_base", calls, "match_instances")
            matches = match_instances(store, hierarchy)
        outputs["match_instances"] = len(matches)
        return matches

    store = chain_store(depth, io=True)
    asserted = len(store)
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "propagate_io", counted_propagate_io)
        patch.setattr(pipeline, "match_instances", counted_match_instances)
        pipeline.run_pipeline(store)
    return asserted, calls, outputs


@pytest.mark.parametrize("stage", ["propagate_io", "match_instances"])
def test_stage_work_is_linear_in_input_plus_output(monkeypatch, stage):
    for depth in SIZES:
        asserted, calls, outputs = _stage_work(monkeypatch, depth)
        assert outputs[stage] >= depth  # every level derives or matches
        assert calls[stage] <= C * (asserted + outputs[stage]), (
            f"{stage} at depth {depth}: {calls[stage]} calls for "
            f"{asserted} input facts and {outputs[stage]} outputs"
        )
