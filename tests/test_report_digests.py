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
        "26d42c9a25ca6acfd403833dd346463cb690d9680d54636fdcb96411557a0e4c"),
    "mt-dynamics": (
        {"level": 14, "depth": 4, "words": 192},
        "0e80a950c9d4164b71c0a107b4b8993e0dc977368de279e550199eb5f1bb1d1b"),
    "tower-equicontinuity": (
        {"seed": 1, "level": 6, "words": 5},
        "2229288fdd2877d5377c304a0071a2aee122703bc9bb2c9fabdbc2758c45d321"),
    "solenoid-lift": (
        {"level": 3, "word": "a^7 a^-2", "start": "1"},
        "6b270d314e0dcec63ed127ada2f7563d175e7bfca7422860c6987b98214762b1"),
    "amalgam-rigidity": (
        {"seed": 1, "precision": 32, "words": 10, "depth": 10},
        "064ccecbf75eb5dde5a669f19957369c04c8738aac56b1bb6bd2517b4f9f00de"),
    "amalgam-deck": (
        {"precision": 6},
        "dd49f5557815681df34e9a4c09fef5ceb3d6c2e9b890b3ccc97579e633ac3250"),
    "covers-obstruction": (
        {"max_degree": 6},
        "b53cb3508ca5b8897e1c7328a42877d47565ff5a7cba7c3348b8421ddcfb35d6"),
    "hawaiian-suite": (
        {"seed": 1, "circles": 8, "level": 6, "words": 200},
        "f64c9ab69acce27672da2df5802e9cf7ab0d345538da51db4e8c816afce52e66"),
    "spiral-orbits": (
        {"horizon": 2000},
        "616f3286fd8674d2e188395b9b735bff428e7f1e323ca8e33239af69fcc75147"),
    "rotation-density": (
        {"horizon": 500},
        "5d1931deeb1de863ee05a18f9b0e6bf2d211ce047cd837844cceaf0a769f1b4f"),
}


def test_every_experiment_is_pinned():
    assert list(DIGESTS) == list(SPECS)


@pytest.mark.parametrize("experiment", DIGESTS)
def test_comparison_region_is_unchanged(experiment):
    config, digest = DIGESTS[experiment]
    report = run(ExperimentConfig(experiment=experiment, **config))
    region = json.dumps(comparison_region(report.to_json()), sort_keys=True)
    assert hashlib.sha256(region.encode("utf-8")).hexdigest() == digest
