"""Output checks: committed references for seed 0 and trace reproduction.

Integer and boolean outputs must match the references exactly; floating
estimates must agree within REL_TOL relative or ABS_TOL absolute.  The
invariants that hold for any seed live with each workload
(`Workload.check`).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REL_TOL = 1e-9
ABS_TOL = 1e-12


def run_reference(workload):
    """Outcomes of the workload's seed-0 reference batches."""
    outcomes = []
    for spec in workload.reference_specs():
        outcomes.extend(workload.run_batch(spec)[0])
    return outcomes


def as_json(outcomes):
    return [{"key": list(o.key), "record": list(o.record), "failed": o.failed}
            for o in outcomes]


def load_reference(path=REFERENCE_PATH):
    with open(path) as fh:
        return json.load(fh)


def _field_matches(got, want):
    if isinstance(want, float) and not isinstance(got, bool):
        if math.isnan(want):
            return math.isnan(got)
        return abs(got - want) <= max(ABS_TOL, REL_TOL * abs(want))
    return type(got) is type(want) and got == want


def compare_reference(name, outcomes, reference):
    """Error strings for every way `outcomes` differ from reference[name]."""
    want = reference.get(name)
    if want is None:
        return ["%s: no committed reference" % name]
    got = as_json(outcomes)
    if len(got) != len(want):
        return ["%s: %d reference trials, got %d" % (name, len(want), len(got))]
    errors = []
    for g, w in zip(got, want):
        if g["key"] != w["key"] or g["failed"] != w["failed"]:
            errors.append("%s: trial %s (failed=%s) != reference %s (failed=%s)"
                          % (name, g["key"], g["failed"], w["key"], w["failed"]))
            continue
        if len(g["record"]) != len(w["record"]) or not all(
                _field_matches(a, b) for a, b in zip(g["record"], w["record"])):
            errors.append("%s: trial %s outputs %s != reference %s"
                          % (name, g["key"], g["record"], w["record"]))
    return errors


def failures(name, outcomes):
    """(count by reason, error strings) of the failed trials.

    Every workload is sized so that no trial fails, so each failure (a
    solver that did not converge, a RootCollisionError, an unflagged
    raster/critical disagreement) is also an error.
    """
    counts, errors = {}, []
    for o in outcomes:
        if o.failed:
            counts[o.reason] = counts.get(o.reason, 0) + 1
            errors.append("%s trial %s failed: %s" % (name, o.key, o.reason))
    return counts, errors


def compare_replay(untraced, traced):
    """Errors unless the traced phase reproduced every untraced record."""
    if len(untraced) != len(traced):
        return ["traced run made %d trials, untraced %d" % (len(traced), len(untraced))]
    errors = []
    for a, b in zip(untraced, traced):
        if (a.key, a.record, a.failed) != (b.key, b.record, b.failed):
            errors.append("trial %s: traced record %s != untraced %s"
                          % (a.key, b.record, a.record))
    return errors


def write_reference(workloads, path=REFERENCE_PATH):
    """Regenerate reference.json from the current program (seed 0)."""
    data = {name: as_json(run_reference(w)) for name, w in workloads.items()}
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
