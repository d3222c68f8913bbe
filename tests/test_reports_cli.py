"""Config validation, claims registry coverage, CLI behaviour, determinism."""

import contextlib
import dataclasses
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftlab import cli, experiments
from liftlab.cli import build_parser
from liftlab.experiments import (
    KNOB_TYPES,
    SPECS,
    ExperimentConfig,
    UsageError,
    flag,
    run,
)
from liftlab.lifting import solenoid_level, system_to_json
from liftlab.reports import Report, comparison_region
from test_report_digests import DIGESTS

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


BATTERY = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "run_experiments.py"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "liftlab", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def run_battery(*args):
    return subprocess.run(
        [sys.executable, str(BATTERY), *args],
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
            if name == "out":
                assert config.out == value
            elif name == "seed" or name in SPECS["mt-generate"].knobs:
                assert config.echoed[name] == value
            else:  # accepted, and not echoed by an experiment that ignores it
                assert name not in config.echoed
        for name in ("config", "bogus"):
            with pytest.raises(UsageError, match="unknown config keys"):
                ExperimentConfig(experiment="mt-generate", **{name: 1})

    def test_empty_config_echoes_declared_knobs(self):
        for name, spec in SPECS.items():
            seed = 7 if spec.seeded else None
            echoed = ExperimentConfig(experiment=name, seed=seed).echoed
            seeded = {"seed"} if spec.seeded else set()
            assert set(echoed) == set(spec.knobs) | seeded, name
        assert ExperimentConfig(experiment="mt-dynamics", depth=5).echoed["horizon"] == 512


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
        ExperimentConfig(experiment=experiment, seed=seed, **{knob: high})

        def refuse(**_):
            raise AssertionError("the runner was called with an oversized knob")

        monkeypatch.setitem(SPECS, experiment, dataclasses.replace(spec, runner=refuse))
        with pytest.raises(UsageError, match="is supported up to"):
            run(ExperimentConfig(experiment=experiment, seed=seed, **{knob: high + 1}))

    def test_bounds_are_checked_at_construction(self):
        with pytest.raises(UsageError, match="is supported up to 22"):
            ExperimentConfig(experiment="mt-generate", level=23)

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
    def test_amalgam_rigidity_redraws_the_uncertifiable_residue(self):
        # at odd precision m the normalized glue image of 2^(m-1) vanishes at
        # the certified ternary precision; like 0, it is drawn again
        for m in (3, 5, 7, 9):
            top = "0" * (m - 1) + "1"  # 2^(m-1), least significant digit first
            for seed in range(30):
                report = run(ExperimentConfig(
                    experiment="amalgam-rigidity", seed=seed, precision=m, depth=2))
                assert report.failed_checks == []
                assert all(row["a"] != top for row in report.payload["samples"])


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
            Report("mt-generate", {}, CLAIMS["mt-generate"], "maybe", [], {}, 0.0)

    @pytest.mark.parametrize("verdict, failed", [("fail", []), ("pass", ["c"])])
    def test_verdict_must_agree_with_failed_checks(self, verdict, failed):
        # a passing verdict exactly when no check failed, so exit status agrees
        with pytest.raises(ValueError, match="contradicts failed checks"):
            Report("x", {}, {}, verdict, failed, {}, 0.0)

    def test_report_document(self):
        report = run(ExperimentConfig(experiment="mt-generate", level=3))
        doc = report.to_dict()
        assert doc["schema"] == "liftlab-report/1"
        assert (doc["verdict"], doc["failed_checks"]) == ("pass", [])
        assert doc["payload"]["word"] == "01101001"
        assert doc["claim"] == CLAIMS["mt-generate"]

    def test_saturated_valuations_render_as_lower_bounds(self):
        # at precision 3 a doubling orbit reaches 0 mod 2^3 within 5 steps;
        # the truncation then certifies only valuation >= 3
        report = run(ExperimentConfig(
            experiment="amalgam-rigidity", seed=3, precision=3, depth=5, words=10))
        rows = report.payload["samples"]
        for row in rows:
            start = row["a"].index("1")  # digits are least significant first
            climb = (min(start + i, 3) for i in range(5))
            assert row["binary_valuations"] == [
                ">=3" if v == 3 else str(v) for v in climb
            ]
        assert all(row["binary_valuations"][-1] == ">=3" for row in rows)

    def test_seed_echoed(self):
        report = run(
            ExperimentConfig(experiment="amalgam-rigidity", seed=5, words=2, depth=5)
        )
        assert report.config["seed"] == 5


EDGE_PAYLOADS = [
    {},
    {"empty_list": [], "empty_dict": {}, "nested": [[], {}, [[]], {"x": {}}]},
    {"tuples": (1, (2, "3"), ()), "grid": [[1, 2], [3, 4], []], "mixed": [1, [2], {"a": 3}]},
    {"floats": [-0.0, 1e300, -1e-300, 0.1, float("inf"), float("-inf"), float("nan")]},
    {"ints": [0, -1, 2**100, -(2**70)], "flags": [None, True, False], "one": None, "wall": 1.5},
    {"escapes": ['a"b\\c', "\n\t\r\b\f", "\x00\x1f\x7f", "</script>"], "word": "0110" * 64},
    {"unicode": ["é", "ω", "\U0001f600", "\ud800"], "éè": {"ω": [1]}},
    {"int_keys": {10: "b", 2: "a"}, "nested_int_keys": {10: [1], 2: {"x": None}}},
    {"scalar_keys": [{1.5: [0]}, {True: [1]}, {None: [2]}, {-3: [3]}]},
]


def _experiment(name: str, **config):
    return lambda: run(ExperimentConfig(experiment=name, **config))


def _edge(payload: dict):
    return lambda: Report("edge", {"level": 3}, {"text": "edge"}, "pass", [], payload, 0.25)


# Every report pinned in test_report_digests, solenoid-lift's 2^10-entry
# lists, and hand-made payloads that reach every branch of the writer.
SERIALIZED_REPORTS = {
    **{name: _experiment(name, **config) for name, (config, _) in DIGESTS.items()},
    "solenoid-lift-level-10": _experiment("solenoid-lift", level=10),
    **{f"edge-{i}": _edge(payload) for i, payload in enumerate(EDGE_PAYLOADS)},
}


class TestSerialization:
    """``to_json`` writes exactly what ``json.dumps(..., indent=2)`` writes.

    The digest test hashes the parsed document, so it cannot see whitespace;
    this compares the text itself, with and without json's C encoder.
    """

    @pytest.mark.parametrize("c_encoder", [True, False], ids=["c", "python"])
    @pytest.mark.parametrize("build", SERIALIZED_REPORTS.values(), ids=SERIALIZED_REPORTS.keys())
    def test_text_is_json_dumps_indent_2(self, monkeypatch, c_encoder, build):
        if not c_encoder:
            monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        report = build()
        assert report.to_json() == json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize(
        "payload", [{"x": object()}, {"x": [1, {2, 3}]}, {(1, 2): [1]}, {"x": {(1, 2): 1}}])
    def test_unserializable_payload_is_a_type_error_as_in_json(self, payload):
        report = Report("edge", {}, {}, "pass", [], payload, 0.0)
        with pytest.raises(TypeError):
            json.dumps(report.to_dict(), sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            report.to_json()


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
        assert degrees["9"]["constrained_classes"] == 40362

    def test_covers_full_cycle_census_below_the_exhaustive_bound(self, monkeypatch):
        monkeypatch.setattr(experiments, "EXHAUSTIVE_MAX_DEGREE", 1)
        checks, payload = experiments.run_covers_obstruction(4)
        assert checks == {
            "only_degree_1_admissible": True, "none_simultaneously_compatible": True}
        assert {
            d: (entry["mode"], entry["constrained_classes"],
                entry["simultaneously_compatible"])
            for d, entry in payload["degrees"].items() if d != "1"
        } == {
            "2": ("full-cycle-complete", 2, 0),
            "3": ("full-cycle-complete", 4, 0),
            "4": ("full-cycle-complete", 10, 0),
        }

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
            ("a^b", "malformed token 'a^b'"),
            ("a^1_000", "malformed token 'a^1_000'"),
            ("a^\u0663", "malformed token 'a^\u0663'"),
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

    def test_empty_out_usage_error(self):
        result = run_cli("--experiment", "mt-generate", "--out", "")
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "error: --out must name a file, not ''\n"

    def test_empty_out_in_config_file_usage_error(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"experiment": "mt-generate", "out": ""}))
        result = run_cli("--config", str(config))
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "error: --out must name a file, not ''\n"
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_battery_rejects_a_bad_seed_before_any_report(self, tmp_path, seed):
        out_dir = tmp_path / "reports"
        result = subprocess.run(
            [sys.executable, str(BATTERY), "--seed", seed, "--out-dir", str(out_dir)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 2
        assert result.stderr == "error: --seed must fit in 64 bits\n"
        assert result.stdout == ""
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_battery_out_dir_naming_a_file_usage_error(self, tmp_path):
        squatter = tmp_path / "reports"
        squatter.write_text("not a directory")
        result = run_battery("--out-dir", str(squatter))
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1
        assert result.stdout == ""
        assert list(tmp_path.iterdir()) == [squatter]
        assert squatter.read_text() == "not a directory"

    def test_battery_non_integer_seed_usage_error(self, tmp_path):
        result = run_battery("--seed", "abc", "--out-dir", str(tmp_path / "reports"))
        assert result.returncode == 2
        assert result.stderr == "error: argument --seed: invalid int value: 'abc'\n"
        assert not (tmp_path / "reports").exists()

    def test_battery_unwritable_report_usage_error(self, tmp_path):
        # the last experiment's report path is taken by a directory
        squatter = tmp_path / "reports" / f"{EXPERIMENTS[-1]}.json"
        squatter.mkdir(parents=True)
        result = run_battery("--out-dir", str(tmp_path / "reports"))
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1
        assert not (tmp_path / "reports" / "summary.json").exists()

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


def _abbreviates(token: str, option: str) -> bool:
    """Whether argparse reads the token as ``option``, alone or with ``=value``."""
    prefix = token.split("=", 1)[0]
    return len(prefix) > 2 and option.startswith(prefix)


def _asks_for_help(token: str) -> bool:
    return token.startswith("-h") or _abbreviates(token, "--help")


# a junk token never names a report path, so that every report lands in the
# fresh directory the example runs in
junk = st.text(max_size=8).filter(
    lambda token: not _asks_for_help(token) and not _abbreviates(token, "--out"))
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
# a config's "out" names no directory, so the report lands in the one the
# example runs in
config_documents = st.one_of(
    st.dictionaries(
        st.sampled_from(["experiment", "seed", "out", "config", "bogus", *KNOB_TYPES]),
        json_values,
        max_size=5,
    ).filter(lambda doc: os.sep not in str(doc.get("out", ""))),
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


# the outcomes of a fake runner's checks: "c0" and, for an experiment that
# declares witness checks, those, or else "c1"
outcomes = st.tuples(st.booleans(), st.booleans(), st.booleans())


def fake_checks(spec: experiments.Spec, outcome: tuple[bool, ...]) -> dict[str, bool]:
    return dict(zip(("c0", *(spec.witnesses or ("c1",))), outcome))


def expected_verdict(spec: experiments.Spec, checks: dict[str, bool]) -> str:
    """The verdict rule, over fake checks of which only "c0" is never a witness check."""
    if all(checks.values()):
        return "witness-found" if spec.witnesses else "pass"
    return "no-witness-at-horizon" if spec.witnesses and checks["c0"] else "fail"


def fake_runners(mp: pytest.MonkeyPatch, checks: dict[str, dict[str, bool]]) -> None:
    """Make each experiment's runner return its given checks and an empty payload."""
    for name, spec in SPECS.items():
        mp.setitem(SPECS, name, dataclasses.replace(
            spec, runner=lambda checks=checks[name], **_: (checks, {})))


class TestExitContract:
    @settings(max_examples=300, deadline=None)
    @given(
        lead=argv_leads,
        pieces=st.lists(argv_pieces, max_size=5),
        document=config_documents,
        outcome=outcomes,
    )
    def test_every_input_exits_0_1_or_2(self, lead, pieces, document, outcome):
        """Exit 0 or 1 with a JSON report, or exit 2 with one stderr line.

        The verdict follows the rule, the exit status is 1 exactly when a check
        failed, and only an experiment that declares witness checks reports
        whether it found witnesses.
        """
        checks = {name: fake_checks(spec, outcome) for name, spec in SPECS.items()}
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.chdir(tmp)  # a config's "out" is relative
            fake_runners(mp, checks)
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
            spec, ran = SPECS[report["experiment"]], checks[report["experiment"]]
            assert report["verdict"] == expected_verdict(spec, ran)
            assert report["failed_checks"] == [name for name, ok in ran.items() if not ok]
            assert code == (1 if report["failed_checks"] else 0)
            if not spec.witnesses:
                assert report["verdict"] in ("pass", "fail")


# ---------------------------------------------------------------------------
# the same contract for the battery script


def _load_battery():
    spec = importlib.util.spec_from_file_location("run_experiments", BATTERY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# nor the battery's output directory
battery_junk = junk.filter(lambda token: not _abbreviates(token, "--out-dir"))
# "FRESH", "FILE" and "MISSING/nested" stand for paths in a fresh directory
battery_pieces = st.one_of(
    st.tuples(st.just("--seed"), st.one_of(
        numbers, st.sampled_from(["0", str(2**64 - 1), str(2**64)]), battery_junk)),
    st.tuples(st.just("--out-dir"), st.sampled_from(["FRESH", "FILE", "MISSING/nested"])),
    st.tuples(battery_junk),
)


class TestBatteryExitContract:
    battery = _load_battery()

    @settings(max_examples=100, deadline=None)
    @given(
        pieces=st.lists(battery_pieces, max_size=4),
        drawn=st.lists(outcomes, min_size=len(SPECS), max_size=len(SPECS)),
    )
    def test_every_input_exits_0_1_or_2(self, pieces, drawn):
        """Exit 0 or 1 with a summary line per experiment, or exit 2 with one stderr line."""
        checks = {name: fake_checks(spec, outcome)
                  for (name, spec), outcome in zip(SPECS.items(), drawn)}
        verdicts = [expected_verdict(SPECS[name], checks[name]) for name in SPECS]
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.chdir(tmp)  # the default --out-dir is relative
            fake_runners(mp, checks)
            pathlib.Path("FILE").write_text("")
            argv = [token for piece in pieces for token in piece]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.battery.main(argv)
            written = [json.loads(path.read_text(encoding="utf-8"))
                       for path in pathlib.Path(tmp).rglob("summary.json")]
        if code == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
            assert written == []
        else:
            assert err.getvalue() == ""
            summary = [line.split()[:2] for line in out.getvalue().splitlines()]
            assert summary == [list(pair) for pair in zip(SPECS, verdicts)]
            passing = all(all(ran.values()) for ran in checks.values())
            assert code == (0 if passing else 1)
            [document] = written
            assert [(name, entry["verdict"]) for name, entry in document.items()] == list(
                zip(SPECS, verdicts))
            assert max(entry["exit_code"] for entry in document.values()) == code

    # every verdict of an experiment with witness checks, a failed witness
    # check beside a failed one of another kind, and both verdicts of an
    # experiment without witness checks
    OUTCOMES = [(True, True, True), (False, True, True), (True, False, True),
                (True, True, False), (False, False, True)]

    @pytest.mark.parametrize("offset", range(len(OUTCOMES)))
    def test_summary_records_each_experiment(self, tmp_path, monkeypatch, offset):
        """summary.json: verdict, failed checks, exit code, wall time and report file."""
        checks = {name: fake_checks(spec, self.OUTCOMES[(i + offset) % len(self.OUTCOMES)])
                  for i, (name, spec) in enumerate(SPECS.items())}
        fake_runners(monkeypatch, checks)
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.battery.main(["--out-dir", str(tmp_path)])
        summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
        assert list(summary) == list(SPECS)
        for name, entry in summary.items():
            assert sorted(entry) == [
                "exit_code", "failed_checks", "report", "verdict", "wall_time_s"]
            failed = [check for check, ok in checks[name].items() if not ok]
            assert (entry["verdict"], entry["failed_checks"], entry["exit_code"]) == (
                expected_verdict(SPECS[name], checks[name]), failed, 1 if failed else 0)
            assert entry["report"] == f"{name}.json"
            report = json.loads((tmp_path / entry["report"]).read_text(encoding="utf-8"))
            assert entry["wall_time_s"] == report["wall_time_s"] >= 0
        assert code == 1
