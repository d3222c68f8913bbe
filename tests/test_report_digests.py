"""The comparison region of each experiment's report, pinned by SHA-256.

A change that only makes the code faster or smaller must leave every report
byte-identical outside ``wall_time_s``. Each experiment runs here once, on a
cheap config, and the digest of its comparison region (the report without
``wall_time_s``, serialized with ``json.dumps(..., sort_keys=True)``) must
match the pinned value. A deliberate report change updates the digest here,
and CHANGES.md says why the report changed.
"""

import hashlib
import json

import pytest

from liftlab.experiments import SPECS, ExperimentConfig, run
from liftlab.reports import comparison_region

# experiment -> (config, SHA-256 of the comparison region)
DIGESTS = {
    "mt-generate": (
        {"level": 10},
        "450ab69ed806c6cdc1e4d0d30f4f589677c7765d6de925275c0443ef1d5ddf7a"),
    "mt-dynamics": (
        {"level": 14, "depth": 4, "words": 192},
        "c635f30253a0f261cc5e8dc29a73eb2c17bddd966a416cb7bef3523ecff63e04"),
    "tower-equicontinuity": (
        {"seed": 1, "level": 6, "words": 5},
        "9b6bab980172ed71736db0bd30a6e7d40cd0758b1c2ae3fef41223ec05c09864"),
    "solenoid-lift": (
        {"level": 3, "word": "a^7 a^-2", "start": "1"},
        "a823e90f3282a22ddf03956b88745fb53e756c6b317c4cc461dc4d07c3ce9230"),
    "amalgam-rigidity": (
        {"seed": 1, "precision": 32, "words": 10, "depth": 10},
        "60732451e43cc4c0e68acdf8ce3700c4bef1a20e172df7975618fa1854218102"),
    "amalgam-deck": (
        {"precision": 6},
        "58ce94e7f00835cc156e969d8137cd0aa505aba1fd57746ccb0e14fd4c059fd0"),
    "covers-obstruction": (
        {"max_degree": 6},
        "589119568e48bb6b304eaf4d89b312b9419d4d5443fad8e853c42f92dd849a7d"),
    "hawaiian-suite": (
        {"seed": 1, "circles": 8, "level": 6, "words": 200},
        "953c3bdf1acfb8254ee65241278fc1569a1030a927a554b05122a41a986dbdb5"),
    "spiral-orbits": (
        {"horizon": 2000},
        "e265c79837290a34a7920756542f862df742565a5f4284d9b4319ec7499f830a"),
    "rotation-density": (
        {"horizon": 500},
        "6392f5e9d68f29fb41a8bfc3f87b6eab63d631c3e86b86a1aaa18051f78487c0"),
}


def test_every_experiment_is_pinned():
    assert list(DIGESTS) == list(SPECS)


@pytest.mark.parametrize("experiment", DIGESTS)
def test_comparison_region_is_unchanged(experiment):
    config, digest = DIGESTS[experiment]
    report = run(ExperimentConfig(experiment=experiment, **config))
    region = json.dumps(comparison_region(report.to_json()), sort_keys=True)
    assert hashlib.sha256(region.encode("utf-8")).hexdigest() == digest
