"""Config validation, claims registry coverage, CLI behaviour, determinism."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftlab import amalgam, cli, lifting
from liftlab.cli import build_parser
from liftlab.experiments import (
    KNOB_TYPES,
    SPECS,
    ExperimentConfig,
    UsageError,
    flag,
    resolve,
    run,
)
from liftlab.lifting import solenoid_level, system_to_json
from liftlab.reports import VERDICTS, Report, comparison_region

EXPERIMENTS = tuple(SPECS)
RANDOMIZED_EXPERIMENTS = frozenset(name for name, spec in SPECS.items() if spec.seeded)
CLAIMS = {name: spec.claim for name, spec in SPECS.items()}

# Knobs that size an allocation, each with the largest value that the
# defaults, the tests, the README and the benchmark workloads use.
BOUNDED_KNOBS = [
    ("mt-generate", "level", 20),
    ("solenoid-lift", "level", 14),
    ("mt-dynamics", "level", 16),
    ("mt-dynamics", "depth", 5),
    ("mt-dynamics", "horizon", 2 ** (5 + 4)),
    ("mt-dynamics", "words", 256),  # the windows of acceptance criterion 5
    ("tower-equicontinuity", "level", 10),
    ("tower-equicontinuity", "words", 20),
    ("amalgam-rigidity", "precision", 256),
    ("amalgam-rigidity", "words", 200),
    ("amalgam-rigidity", "depth", 60),
    ("spiral-orbits", "horizon", 2000),
    ("rotation-density", "horizon", 10000),
    ("hawaiian-suite", "circles", 16),
    ("hawaiian-suite", "level", 12),
    ("hawaiian-suite", "words", 1000),
    ("amalgam-deck", "precision", 10),
    ("covers-obstruction", "max_degree", 12),
]


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
        with pytest.raises(UsageError):
            ExperimentConfig(experiment=["mt-generate"])

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


class TestSpecs:
    def test_options_declared_once(self):
        knobs = {name for spec in SPECS.values() for name in spec.knobs}
        dests = {action.dest for action in build_parser()._actions} - {"help"}
        assert dests == knobs | {"experiment", "seed", "out", "config"}
        types = {"seed": int, "out": str}
        for spec in SPECS.values():
            for name, knob in spec.knobs.items():
                assert types.setdefault(name, knob.type) is knob.type, name
        # a config file's keys are passed to ExperimentConfig as they are
        assert set(types) == knobs | {"seed", "out"}
        for name, kind in types.items():
            value = 1 if kind is int else "x"
            config = ExperimentConfig(experiment="mt-generate", **{name: value})
            assert {"seed": config.seed, "out": config.out, **config.knobs}[name] == value
        for name in ("config", "bogus"):
            with pytest.raises(UsageError, match="unknown config keys"):
                ExperimentConfig(experiment="mt-generate", **{name: 1})

    def test_empty_config_echoes_declared_knobs(self):
        for name, spec in SPECS.items():
            seed = 7 if spec.seeded else None
            echoed = resolve(ExperimentConfig(experiment=name, seed=seed))
            seeded = {"seed"} if spec.seeded else set()
            assert set(echoed) == set(spec.knobs) | seeded, name
        assert resolve(ExperimentConfig(experiment="mt-dynamics", depth=5))["horizon"] == 512


class TestResourceBounds:
    def test_every_integer_knob_is_bounded(self):
        integer_knobs = {
            (experiment, name): knob
            for experiment, spec in SPECS.items()
            for name, knob in spec.knobs.items()
            if knob.type is int
        }
        unbounded = [key for key, knob in integer_knobs.items() if knob.high is None]
        assert not unbounded
        assert {(experiment, knob) for experiment, knob, _ in BOUNDED_KNOBS} == set(
            integer_knobs
        )

    @pytest.mark.parametrize("experiment, knob, largest_in_use", BOUNDED_KNOBS)
    def test_bound_admits_use_and_rejects_one_over(
        self, monkeypatch, experiment, knob, largest_in_use
    ):
        spec = SPECS[experiment]
        high = spec.knobs[knob].high
        assert high is not None and high >= largest_in_use
        seed = 1 if spec.seeded else None
        resolve(ExperimentConfig(experiment=experiment, seed=seed, **{knob: high}))

        def refuse(**_):
            raise AssertionError("the runner was called with an oversized knob")

        monkeypatch.setitem(SPECS, experiment, dataclasses.replace(spec, runner=refuse))
        with pytest.raises(UsageError, match="is supported up to"):
            run(ExperimentConfig(experiment=experiment, seed=seed, **{knob: high + 1}))

    @pytest.mark.parametrize("experiment, knob", [
        ("amalgam-deck", "precision"),
        ("amalgam-rigidity", "precision"),
        ("amalgam-rigidity", "depth"),
    ])
    def test_library_floor_is_declared(self, experiment, knob):
        # the model and the witness refuse 1; the spec says so first, by flag
        seeded = SPECS[experiment].seeded
        argv = ["--experiment", experiment, flag(knob), "1"] + ["--seed", "1"] * seeded
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().startswith(f"error: {flag(knob)} must be >= 2: ")
        assert err.getvalue().count("\n") == 1
        epilog = build_parser().epilog.splitlines()
        options = epilog[epilog.index(f"  {experiment}{'*' * seeded}") + 1:]
        line = next(line for line in options if line.split()[0] == flag(knob))
        assert "at least 2" in line


class TestHonestVerdicts:
    def test_amalgam_deck_cross_check_gates_verdict(self, monkeypatch):
        assert run(ExperimentConfig(experiment="amalgam-deck", precision=2)).verdict == "pass"
        monkeypatch.setattr(amalgam, "centralizer_deck_search", lambda model: [0, 2])
        report = run(ExperimentConfig(experiment="amalgam-deck", precision=2))
        assert report.payload["identity_only"]
        assert report.verdict == "fail"

    def test_amalgam_rigidity_redraws_the_uncertifiable_residue(self):
        # at odd precision m the normalized glue image of 2^(m-1) vanishes at
        # the certified ternary precision; like 0, it is drawn again
        for m in (3, 5, 7, 9):
            top = "0" * (m - 1) + "1"  # 2^(m-1), least significant digit first
            for seed in range(30):
                report = run(ExperimentConfig(
                    experiment="amalgam-rigidity", seed=seed, precision=m, depth=2))
                assert report.verdict == "pass"
                assert all(row["a"] != top for row in report.payload["samples"])

    @pytest.mark.parametrize("fault", ["endpoint", "crossed", "orbits"])
    def test_solenoid_lift_verdict_from_claim(self, monkeypatch, fault):
        config = ExperimentConfig(experiment="solenoid-lift", level=3, word="a^5 a^-2")
        assert run(config).verdict == "pass"
        lift, orbits = lifting.lift_word_flagged, lifting.orbit_partition
        if fault == "endpoint":
            monkeypatch.setattr(lifting, "lift_word_flagged",
                                lambda *args: (lift(*args)[0] + 1, False))
        elif fault == "crossed":
            monkeypatch.setattr(lifting, "lift_word_flagged",
                                lambda *args: (lift(*args)[0], True))
        else:
            monkeypatch.setattr(lifting, "orbit_partition",
                                lambda sys: [part for orbit in orbits(sys)
                                             for part in (orbit[:4], orbit[4:])])
        assert run(config).verdict == "fail"


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

    def test_rotation_horizon_floor(self):
        # below 12 the 1/3 control orbit has 2 points, so its gap reads 2/3
        result = run_cli("--experiment", "rotation-density", "--horizon", "11")
        assert result.returncode == 2
        assert result.stderr.startswith("error: --horizon must be >= 12: ")
        assert result.stderr.count("\n") == 1
        result = run_cli("--experiment", "rotation-density", "--horizon", "12")
        assert result.returncode == 0
        assert json.loads(result.stdout)["verdict"] == "pass"

    def test_unknown_experiment_usage_error(self):
        result = run_cli("--experiment", "bogus")
        assert result.returncode == 2
        assert result.stderr.startswith("error: argument --experiment: invalid choice")
        assert result.stderr.count("\n") == 1

    def test_non_integer_level_usage_error(self):
        result = run_cli("--experiment", "mt-generate", "--level", "abc")
        assert result.returncode == 2
        assert result.stderr == "error: argument --level: invalid int value: 'abc'\n"

    def test_help_exits_zero(self):
        result = run_cli("--help")
        assert result.returncode == 0
        assert result.stdout.startswith("usage: liftlab")

    def test_missing_seed_usage_error(self):
        result = run_cli("--experiment", "amalgam-rigidity")
        assert result.returncode == 2
        assert "seed" in result.stderr

    def test_invalid_bound_usage_error(self):
        result = run_cli("--experiment", "mt-generate", "--level", "0")
        assert result.returncode == 2

    @pytest.mark.parametrize(
        "word, message",
        [
            ("a^1000000000000", "word expands into more than 100000 letters"),
            ("a^", "malformed token 'a^'"),
        ],
    )
    def test_unparsable_word_usage_error(self, capsys, word, message):
        started = time.perf_counter()
        assert cli.main(["--experiment", "solenoid-lift", "--word", word]) == 2
        assert time.perf_counter() - started < 0.5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

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
        # no reader of monodromy-system documents ships, so --system is unknown
        path = tmp_path / "system.json"
        path.write_text(json.dumps(system_to_json(solenoid_level(3, 2))))
        result = run_cli("--experiment", "solenoid-lift", "--system", str(path))
        assert result.returncode == 2
        assert result.stderr == f"error: unrecognized arguments: --system {path}\n"

    def test_system_and_level_usage_error(self, tmp_path):
        # a valid --level does not make the removed --system flag acceptable
        path = tmp_path / "system.json"
        path.write_text(json.dumps(system_to_json(solenoid_level(3, 2))))
        result = run_cli("--experiment", "solenoid-lift", "--system", str(path),
                         "--level", "3")
        assert result.returncode == 2
        assert result.stderr == f"error: unrecognized arguments: --system {path}\n"

    def test_deeply_nested_json_usage_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert cli.main(["--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path} nests JSON too deeply to read\n"

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


# ---------------------------------------------------------------------------
# the exit-code contract over arbitrary command lines and config files


def _asks_for_help(token: str) -> bool:
    option = token.split("=", 1)[0]
    return token.startswith("-h") or (len(option) > 2 and "--help".startswith(option))


junk = st.text(max_size=8).filter(lambda token: not _asks_for_help(token))
numbers = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(
        [bound + step for spec in SPECS.values() for knob in spec.knobs.values()
         for bound in (knob.low, knob.high) if bound is not None for step in (-1, 0, 1)]
    ),
    st.integers(-(2**70), 2**70),
).map(str)
json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(allow_nan=False),
    st.text(max_size=6), st.sampled_from(list(SPECS)),
    st.lists(st.integers(), max_size=2),
)
config_documents = st.one_of(
    st.dictionaries(
        st.sampled_from(["experiment", "seed", "out", "config", "bogus", *KNOB_TYPES]),
        json_values,
        max_size=5,
    ),
    json_values,
)
# "CONFIG", "OUT" and "MISSING" stand for paths in a fresh directory
argv_pieces = st.one_of(
    st.tuples(st.just("--experiment"), st.one_of(st.sampled_from(list(SPECS)), junk)),
    st.tuples(st.just("--seed"), st.one_of(numbers, junk)),
    st.tuples(st.sampled_from([flag(name) for name in KNOB_TYPES]),
              st.one_of(numbers, junk)),
    st.tuples(st.just("--config"), st.sampled_from(["CONFIG", "MISSING"])),
    st.tuples(st.just("--out"), st.sampled_from(["OUT", "MISSING/report.json"])),
    st.tuples(junk),
)
# most inputs start by naming an experiment and a seed, so that the knobs
# after them are checked rather than the first missing option
argv_leads = st.one_of(
    st.just(()),
    st.tuples(st.just("--experiment"), st.sampled_from(list(SPECS)),
              st.just("--seed"), st.one_of(st.just("7"), numbers)),
)


class TestExitContract:
    @settings(max_examples=300, deadline=None)
    @given(
        lead=argv_leads,
        pieces=st.lists(argv_pieces, max_size=5),
        document=config_documents,
        verdict=st.sampled_from(VERDICTS),
    )
    def test_every_input_exits_0_1_or_2(self, lead, pieces, document, verdict):
        """Exit 0 or 1 with a JSON report, or exit 2 with one stderr line."""
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            for name, spec in SPECS.items():
                mp.setitem(SPECS, name, dataclasses.replace(
                    spec, runner=lambda **_: (verdict, {})))
            paths = {
                "CONFIG": os.path.join(tmp, "config.json"),
                "OUT": os.path.join(tmp, "report.json"),
                "MISSING": os.path.join(tmp, "missing"),
                "MISSING/report.json": os.path.join(tmp, "missing", "report.json"),
            }
            with open(paths["CONFIG"], "w", encoding="utf-8") as handle:
                json.dump(document, handle)
            argv = [paths.get(token, token)
                    for piece in (lead, *pieces) for token in piece]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        if code == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        else:
            assert err.getvalue() == ""
            report = json.loads(out.getvalue())
            assert report["verdict"] == verdict
            assert code == (0 if verdict in ("pass", "witness-found") else 1)
