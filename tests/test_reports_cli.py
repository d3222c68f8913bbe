"""Config validation, claims registry coverage, CLI behaviour, determinism."""

import json
import subprocess
import sys

import pytest

from liftlab.experiments import run
from liftlab.lifting import solenoid_level, system_to_json
from liftlab.reports import (
    CLAIMS,
    EXPERIMENTS,
    RANDOMIZED_EXPERIMENTS,
    VERDICTS,
    ExperimentConfig,
    Report,
    UsageError,
    comparison_region,
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "liftlab", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestConfig:
    def test_unknown_experiment(self):
        with pytest.raises(UsageError):
            ExperimentConfig(experiment="nope")

    def test_bad_bounds(self):
        with pytest.raises(UsageError):
            ExperimentConfig(experiment="mt-generate", level=0)
        with pytest.raises(UsageError):
            ExperimentConfig(experiment="mt-generate", seed=2**64)

    def test_mistyped_values(self):
        for field, value in (("level", "3"), ("level", True), ("seed", 1.5),
                             ("word", 5)):
            with pytest.raises(UsageError, match="must be"):
                ExperimentConfig(experiment="solenoid-lift", **{field: value})

    def test_seed_mandatory_for_randomized(self):
        for name in RANDOMIZED_EXPERIMENTS:
            with pytest.raises(UsageError, match="seed"):
                ExperimentConfig(experiment=name)
        ExperimentConfig(experiment="amalgam-rigidity", seed=1)

    def test_deterministic_experiments_need_no_seed(self):
        ExperimentConfig(experiment="mt-generate")
        ExperimentConfig(experiment="covers-obstruction")


class TestClaimsRegistry:
    def test_every_experiment_has_a_nonempty_claim(self):
        for name in EXPERIMENTS:
            claim = CLAIMS[name]
            assert claim["id"]
            assert claim["statement"].strip()

    def test_no_orphan_claims(self):
        assert set(CLAIMS) == set(EXPERIMENTS)


class TestReportShape:
    def test_verdict_vocabulary_closed(self):
        with pytest.raises(ValueError):
            Report("mt-generate", {}, CLAIMS["mt-generate"], "maybe", {}, 0.0)

    def test_report_document(self):
        report = run(ExperimentConfig(experiment="mt-generate", level=3))
        doc = report.to_dict()
        assert doc["schema"] == "liftlab-report/1"
        assert doc["verdict"] in VERDICTS
        assert doc["payload"]["word"] == "01101001"
        assert doc["claim"] == CLAIMS["mt-generate"]

    def test_seed_echoed(self):
        report = run(
            ExperimentConfig(experiment="amalgam-rigidity", seed=5, words=2, depth=5)
        )
        assert report.config["seed"] == 5


class TestCli:
    def test_pass_exit_zero_and_schema(self):
        result = run_cli("--experiment", "mt-generate")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["schema"] == "liftlab-report/1"
        assert doc["verdict"] == "pass"
        # default n = 5 payload carries the 32-symbol prefix
        assert doc["payload"]["word"] == "01101001100101101001011001101001"

    def test_solenoid_lift_example(self):
        result = run_cli(
            "--experiment", "solenoid-lift",
            "--level", "3", "--word", "a^5", "--start", "0",
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["payload"]["endpoint"] == "5"

    def test_covers_admissible_degrees(self):
        result = run_cli("--experiment", "covers-obstruction", "--max-degree", "6")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["payload"]["admissible_degrees"] == [1]

    def test_covers_full_bound_twelve(self):
        result = run_cli("--experiment", "covers-obstruction", "--max-degree", "12")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["payload"]["admissible_degrees"] == [1]
        degrees = doc["payload"]["degrees"]
        assert all(
            degrees[str(d)]["simultaneously_compatible"] == 0 for d in range(2, 13)
        )
        assert degrees["9"]["mode"] == "full-cycle-complete"

    def test_bound_guards(self):
        assert run_cli(
            "--experiment", "covers-obstruction", "--max-degree", "13"
        ).returncode == 2
        assert run_cli(
            "--experiment", "amalgam-deck", "--precision", "11"
        ).returncode == 2
        assert run_cli(
            "--experiment", "hawaiian-suite", "--seed", "1", "--level", "13",
            "--circles", "14",
        ).returncode == 2

    def test_unknown_experiment_usage_error(self):
        result = run_cli("--experiment", "bogus")
        assert result.returncode == 2

    def test_missing_seed_usage_error(self):
        result = run_cli("--experiment", "amalgam-rigidity")
        assert result.returncode == 2
        assert "seed" in result.stderr

    def test_invalid_bound_usage_error(self):
        result = run_cli("--experiment", "mt-generate", "--level", "0")
        assert result.returncode == 2

    def test_unknown_petal_usage_error(self):
        result = run_cli("--experiment", "solenoid-lift", "--word", "c")
        assert result.returncode == 2
        assert result.stderr == "error: unknown petal 'c'\n"

    def test_unwritable_out_usage_error(self, tmp_path):
        out = tmp_path / "missing" / "report.json"
        result = run_cli("--experiment", "mt-generate", "--out", str(out))
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1

    def test_mistyped_config_value_usage_error(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"experiment": "mt-generate", "level": "3"}))
        result = run_cli("--config", str(config))
        assert result.returncode == 2
        assert result.stderr == "error: --level must be an integer, not '3'\n"

    def test_malformed_system_usage_error(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"kind": "monodromy-system", "petals": ["a"]}))
        result = run_cli("--experiment", "solenoid-lift", "--system", str(path))
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1

    def test_out_writes_same_document(self, tmp_path):
        out = tmp_path / "report.json"
        result = run_cli("--experiment", "mt-generate", "--out", str(out))
        assert result.returncode == 0
        assert out.read_text() == result.stdout

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"experiment": "mt-generate", "level": 3}))
        base = run_cli("--config", str(config))
        assert json.loads(base.stdout)["payload"]["n"] == 3
        overridden = run_cli("--config", str(config), "--level", "4")
        assert json.loads(overridden.stdout)["payload"]["n"] == 4

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"experiment": "mt-generate", "bogus": 1}))
        assert run_cli("--config", str(config)).returncode == 2

    def test_consumes_serialized_system(self, tmp_path):
        doc = system_to_json(solenoid_level(3, 2))
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc))
        result = run_cli(
            "--experiment", "solenoid-lift",
            "--system", str(path),
            "--word", "a^4",
            "--start", "7",
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)["payload"]
        assert payload["endpoint"] == "2"  # 7 + 4 mod 9
        assert payload["system"]["petals"] == ["a"]

    def test_repeat_runs_byte_identical(self):
        first = run_cli("--experiment", "mt-generate")
        second = run_cli("--experiment", "mt-generate")
        assert comparison_region(first.stdout) == comparison_region(second.stdout)
        # strict byte comparison outside the wall-time line
        strip = lambda text: [
            line for line in text.splitlines() if "wall_time_s" not in line
        ]
        assert strip(first.stdout) == strip(second.stdout)

    def test_seeded_run_byte_identical(self):
        args = ("--experiment", "tower-equicontinuity", "--seed", "7", "--words", "5")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0
        assert comparison_region(first.stdout) == comparison_region(second.stdout)
