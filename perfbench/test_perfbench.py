"""Self-tests for the benchmark's own logic (a few seconds in total).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from metrics import TAIL_LADDER, quartile_spread, tail_percentile, windowed_rate  # noqa: E402
from tracing import Span, Tracer, covered_length, self_times  # noqa: E402
from workloads import Outcome, make_workloads  # noqa: E402


@pytest.fixture(scope="module")
def workloads():
    with tempfile.TemporaryDirectory() as out_dir:
        yield make_workloads(out_dir, 2)


@pytest.mark.parametrize("n, percentile", [
    (19, 100.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9),
])
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, percentile):
    values = list(np.random.default_rng(n).permutation(n) + 1.0)
    p, value = tail_percentile(values)
    assert p == percentile
    beyond = sum(v > value for v in values)
    if p < 100.0:
        assert beyond >= 10
        higher = [q / 10.0 for q in TAIL_LADDER if q / 10.0 > p]
        # the next percentile up would leave fewer than ten samples beyond
        assert all(n * (100.0 - q) / 100.0 < 10 for q in higher)
    else:
        assert value == n


def test_quartile_spread():
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


def test_windowed_rate_is_the_median_over_whole_windows():
    # windows of >= 4 trials: (4 in 1 s), (4 in 2 s), (5 in 1 s); the last 2 trials are dropped
    batches = [(2, 0.5), (2, 0.5), (4, 2.0), (3, 0.5), (2, 0.5), (2, 9.0)]
    assert windowed_rate(batches, 4) == (4.0, 3)
    # a run shorter than one window is a single window
    assert windowed_rate([(1, 0.5), (2, 1.0)], 10) == (2.0, 1)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, "harness.run_trial", 0, 100, 0, 7),
        Span(2, "critical.find_critical_points", 10, 30, 1, 7),
        Span(3, "components.count_components", 20, 50, 1, 7),  # overlaps span 2
        Span(4, "rng.sample_disc_array", 90, 120, 1, 7),  # runs past its parent
        Span(5, "rng.sample_disc_array", 12, 18, 2, 7),  # grandchild of span 1
    ]
    selfs = self_times(spans)
    assert selfs[1] == 100 - (40 + 10)
    assert selfs[2] == 20 - 6
    assert selfs[3] == 30
    assert selfs[5] == 6
    assert covered_length(0, 10, []) == 0


def test_tracer_nests_spans_and_restores_the_module():
    import lemlab.rng as rng

    tracer = Tracer()
    original = rng.derive_substream
    with tracer.patched([(rng, "derive_substream", "rng.derive_substream", None)]):
        with tracer.span("bench.trial", trial=("t", 1)):
            rng.derive_substream(0, 0)
    assert rng.derive_substream is original
    inner, outer = tracer.spans
    assert (inner.name, inner.parent, inner.trial) == ("rng.derive_substream", outer.id, ("t", 1))
    selfs = self_times(tracer.spans)
    assert selfs[outer.id] == outer.duration - inner.duration


def test_seed_determines_the_inputs(workloads):
    for name, w in workloads.items():
        a, again, b = (next(w.batches(s)) for s in (1, 1, 2))
        assert a == again and a != b, name
    # and the outputs follow the seed: two trials of sim_n100 from each
    w = workloads["sim_n100"]
    a, again, b = ([o.record for o in w.run_batch((next(w.batches(s))[0], 2))[0]]
                   for s in (1, 1, 2))
    assert a == again and a != b


def test_reference_matches_and_a_corrupted_count_fails(workloads):
    w = workloads["sim_n100"]
    reference = checks.load_reference()
    outcomes = checks.run_reference(w)
    assert checks.compare_reference("sim_n100", outcomes, reference) == []
    corrupted = copy.deepcopy(reference)
    corrupted["sim_n100"][3]["record"][1] += 1  # components of trial 3
    errors = checks.compare_reference("sim_n100", outcomes, corrupted)
    assert len(errors) == 1 and "[0, 3]" in errors[0]


def test_float_reference_tolerance():
    ref = {"w": [{"key": [0], "record": [1.0, 2], "failed": False}]}
    assert checks.compare_reference("w", [Outcome((0,), (1.0 + 1e-12, 2), 0.0)], ref) == []
    assert checks.compare_reference("w", [Outcome((0,), (1.0 + 1e-6, 2), 0.0)], ref)
    assert checks.compare_reference("w", [Outcome((0,), (1.0, 2.0), 0.0)], ref)


def test_a_failed_trial_is_an_error():
    ok = Outcome((0, 0), (3, 2), 5.0)
    bad = Outcome((0, 1), ("failed", "not converged"), 0.0, True, "not converged")
    assert checks.failures("w", [ok]) == ({}, [])
    counts, errors = checks.failures("w", [ok, bad, bad])
    assert counts == {"not converged": 2} and len(errors) == 2


def test_invariant_violation_is_reported(workloads):
    w = workloads["sim_n100"]
    good = Outcome((0, 0), (100, 3, 2, 2, 0.2, 1e-15, 1), 5.0)
    bad = Outcome((0, 1), (100, 101, 2, 100, 0.2, 1e-15, 1), 5.0)
    assert w.check([good]) == []
    assert len(w.check([good, bad])) == 1


def test_traced_replay_reproduces_records_in_run_trial_order(workloads):
    w = workloads["sim_n100"]
    spec = (12345, 3)
    untraced, _ = w.run_batch(spec)
    tracer = Tracer()
    with tracer.patched(w.trace_targets()):
        traced, _ = w.traced_batch(tracer, spec)
    assert checks.compare_replay(untraced, traced) == []
    assert not os.path.exists(w.failures_path)
    first = min((s for s in tracer.spans if s.parent == 0), key=lambda s: s.start)
    assert first.name == "harness.run_trial" and first.trial == (12345, 0)
    calls = sorted((s for s in tracer.spans if s.parent == first.id), key=lambda s: s.start)
    assert [s.name for s in calls] == [
        "rng.derive_substream", "rng.sample_disc_array", "polyeval.RootedPolynomial",
        "critical.find_critical_points", "components.count_components",
        "components.annulus_inner_radius", "components.inradius_holds",
        "components.area_outside_mc",
    ]
    changed = list(traced)
    changed[1] = Outcome(changed[1].key, changed[1].record[:1] + (99,) + changed[1].record[2:],
                         changed[1].ms)
    assert checks.compare_replay(untraced, changed)
