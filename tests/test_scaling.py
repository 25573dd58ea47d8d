"""Stage work that grows with input plus output, and no faster.

Work is counted, not timed: the calls a stage makes to the store or the
relation it fills, counted by wrapping them for the length of that stage
only.  On the deep ``subevent`` chain with IO (``fuzz.chain_store``) at n,
2n and 4n events, each count must stay within ``C`` times the asserted
input facts plus what the stage outputs.  A stage that turns quadratic in
the chain's depth again exceeds the bound at the larger sizes, however
fast the host is.  The spatial closure is held to the same bound on the
``is_inside`` chain (``fuzz.inside_chain_store``), whose closure is every
contained pair: there each counted call is one chain composition tried.
"""

from collections import Counter

import pytest

from kdgraph import pipeline
from kdgraph.fuzz import chain_store, inside_chain_store
from kdgraph.resolution import MatchSet

SIZES = (100, 200, 400)
INSIDE_SIZES = (40, 80, 160)
C = 2  # counted calls allowed per input fact or output item


def _count_calls(patch, owner, name: str, counts: Counter, key: str):
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)

    patch.setattr(owner, name, counting)


# stage -> (the object whose method is counted, given the stage's
# arguments; that method)
COUNTED = {
    "propagate_io": (lambda args: args[0], "add_derived"),
    "match_instances": (lambda args: MatchSet, "add_base"),
    "spatial_match": (lambda args: MatchSet, "add_chain"),
}


def _stage_work(monkeypatch, store, stage: str) -> tuple[int, int, int]:
    """(input facts, counted calls, output size) of ``stage`` in one run."""
    calls: Counter = Counter()
    outputs: Counter = Counter()
    owner, method = COUNTED[stage]
    run = getattr(pipeline, stage)

    def counted(*args):
        before = len(args[0])  # every counted stage takes the store first
        with monkeypatch.context() as patch:
            _count_calls(patch, owner(args), method, calls, stage)
            result = run(*args)
        # propagate_io returns nothing: its output is what the store gained.
        outputs[stage] = len(args[0]) - before if result is None else len(result)
        return result

    asserted = len(store)
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, stage, counted)
        pipeline.run_pipeline(store)
    return asserted, calls[stage], outputs[stage]


@pytest.mark.parametrize("stage", ["propagate_io", "match_instances"])
def test_stage_work_is_linear_in_input_plus_output(monkeypatch, stage):
    for depth in SIZES:
        asserted, calls, output = _stage_work(monkeypatch, chain_store(depth, io=True), stage)
        assert output >= depth  # every level derives or matches
        assert calls <= C * (asserted + output), (
            f"{stage} at depth {depth}: {calls} calls for "
            f"{asserted} input facts and {output} outputs"
        )


def test_spatial_closure_work_is_linear_in_input_plus_output(monkeypatch):
    for size in INSIDE_SIZES:
        asserted, calls, atoms = _stage_work(monkeypatch, inside_chain_store(size), "spatial_match")
        assert atoms == size * (size + 1)  # every contained pair, high and low
        assert calls <= C * (asserted + atoms), (
            f"spatial_match on {size} locations: {calls} add_chain calls for "
            f"{asserted} input facts and {atoms} spatial atoms"
        )
