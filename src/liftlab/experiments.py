"""The named experiments behind the command line driver.

``SPECS`` declares each experiment once: its runner, its claim, whether it
draws random samples, and its knobs with their types, defaults and bounds.
Config validation, the command line flags, ``--help`` and the config echoed
into each report all read it. ``ExperimentConfig`` checks a config's keys,
types, seed and bounds and applies its defaults when it is built, before any
work starts. A runner receives the echoed knob values (and the seed, if it
draws samples), computes a deterministic payload, and returns it with its
named checks; ``reports.verdict`` reads the verdict off those that failed.
Randomized runners derive every sample from the seed; nothing reads ambient
randomness or the clock (wall time is measured by the orchestrator, outside
the deterministic region). A model that a runner finds inconsistent
(``lifting.InconsistentModel``) fails the check ``model_consistent``, with a
payload naming the inconsistency.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from time import perf_counter
from typing import Callable

from . import amalgam, covers, hawaiian, lifting, symdyn
from .profinite import GluePrecisionError, TruncatedPadic, rigidity_witness
from .reports import Report, verdict


class UsageError(ValueError):
    """Invalid experiment name, missing seed, or mistyped or out-of-range knobs."""


def _witness_json(witness: symdyn.OrbitPairWitness) -> dict:
    show = min(8, witness.x.radius)
    return {
        "radius": witness.x.radius,
        "x_center": symdyn.truncate_window(witness.x, show).symbols,
        "y_center": symdyn.truncate_window(witness.y, show).symbols,
        "shift": witness.shift_by,
        "start_distance": str(Fraction(1, 2**witness.start_distance)),
        "end_distance": str(Fraction(1, 2**witness.end_distance)),
    }


# ---------------------------------------------------------------------------


def run_mt_generate(level: int):
    word = symdyn.mt_substitution(level)
    doubling = symdyn.mt_doubling(level)
    parity = symdyn.popcount_parity_prefix(len(word))
    checks = {"doubling_agrees": word == doubling, "popcount_agrees": word == parity}
    return checks, {"n": level, "length": len(word), "word": word, **checks}


def run_mt_dynamics(level: int, depth: int, horizon: int, words: int):
    prefix = symdyn.mt_prefix(2**level)
    counts = symdyn.factor_counts(prefix, range(1, 7))
    period = symdyn.aperiodicity_check(prefix[:4096], 128)
    gap, gap_factor = symdyn.max_recurrence_gap(prefix, 8)

    radius = horizon + max(depth, 2) + 1
    windows = symdyn.omega0_windows(radius, words)
    proximal = symdyn.proximal_search(windows, depth, horizon)
    separation = symdyn.non_equicontinuity_witness(windows, depth, horizon)

    payload = {
        "prefix_length": len(prefix),
        "factor_counts": {str(L): c for L, c in counts.items()},
        "least_period_up_to_128": period,
        "recurrence": {"factor_length": 8, "max_gap": gap, "worst_factor": gap_factor},
        "witness_depth": depth,
        "witness_horizon": horizon,
        "proximal": None if proximal is None else _witness_json(proximal),
        "separation": None if separation is None else _witness_json(separation),
    }
    checks = {
        "aperiodic": period is None,
        "factors_recur": gap is not None,
        "proximal_witness": proximal is not None,
        "separation_witness": separation is not None,
    }
    return checks, payload


def run_tower_equicontinuity(level: int, words: int, seed: int):
    rng = Random(seed)

    solenoid = lifting.solenoid_tower(2, level)
    cyclic = symdyn.StrictTower(solenoid.levels, solenoid.bonds)
    cyclic_table = symdyn.equicontinuity_modulus(cyclic)

    random_tables = []
    for _ in range(words):
        tower_seed = rng.randrange(2**32)
        tower = symdyn.random_strict_tower(tower_seed)
        table = symdyn.equicontinuity_modulus(tower)
        random_tables.append(
            {
                "tower_seed": tower_seed,
                "levels": len(tower.levels),
                "identity_modulus": all(
                    row["delta_level"] == row["level"] for row in table
                ),
            }
        )

    rejected = []
    lower, upper = lifting.solenoid_tower(2, 2).levels  # swap on 2 points, +1 on Z/4
    for label, bond in (
        ("non-surjective bond", {x: 0 for x in range(4)}),
        ("non-equivariant bond", {0: 0, 1: 1, 2: 1, 3: 0}),
    ):
        try:
            symdyn.StrictTower([lower, upper], [bond])
            rejected.append({"defect": label, "rejected": False})
        except ValueError as err:
            rejected.append({"defect": label, "rejected": True, "reason": str(err)})

    checks = {
        "cyclic_identity_modulus": all(
            row["delta_level"] == row["level"] for row in cyclic_table),
        "random_identity_moduli": all(entry["identity_modulus"] for entry in random_tables),
        "defects_rejected": all(entry["rejected"] for entry in rejected),
    }
    payload = {
        "cyclic_tower": {"base": 2, "levels": level, "modulus_table": cyclic_table},
        "random_towers": random_tables,
        "rejected_examples": rejected,
    }
    return checks, payload


def _find_fibre_point(sys: lifting.MonodromySystem, text: str):
    for point in sys.fibre:
        if str(point) == text:
            return point
    raise UsageError(f"start point {text!r} is not in the fibre")


def run_solenoid_lift(level: int, word: str, start: str):
    sys = lifting.solenoid_level(2, level)
    letters = lifting.parse_loop_word(word)
    start_point = _find_fibre_point(sys, start)
    endpoint, crossed = lifting.lift_word_flagged(sys, letters, start_point)
    orbits = lifting.orbit_partition(sys)

    payload = {
        "word": word,
        "start": str(start_point),
        "endpoint": str(endpoint),
        "crossed_truncation": crossed,
        "orbit_count": len(orbits),
        "component_degrees": lifting.component_degrees(sys, orbits),
        "system": lifting.system_to_json(sys),
    }
    # the loop acts by +1 on Z/2^level, transitively
    exponent_sum = sum(exp for _, exp in letters)
    checks = {
        "endpoint_agrees": endpoint == (start_point + exponent_sum) % 2**level,
        "transitive": [len(orbit) for orbit in orbits] == [2**level],
        "no_truncation_crossed": not crossed,
    }
    return checks, payload


def run_amalgam_rigidity(precision: int, words: int, depth: int, seed: int):
    """``words`` residues, each doubled ``depth`` times.

    Like 0, a residue whose normalized glue image vanishes at the certified
    ternary precision is drawn again: at odd precision m that is 2^(m-1).
    """
    rng = Random(seed)

    rows = []
    for _ in range(words):
        while True:
            a = TruncatedPadic(2, precision, rng.randrange(1, 2**precision))
            try:
                report = rigidity_witness(a, depth)
                break
            except GluePrecisionError:
                continue
        rows.append(
            {
                "a": a.digits(),
                "binary_valuations": [
                    f">={v}" if v == precision else str(v) for v in report.u_valuations
                ],
                "ternary_step_distance": str(Fraction(1, 3**report.step_valuation)),
                "distances_constant": report.distances_constant,
                "valuations_march": report.valuations_march,
                "diverges": report.diverges,
            }
        )
    checks = {"all_diverge": all(row["diverges"] for row in rows)}
    return checks, {"binary_precision": precision, "iterations": depth,
                    "samples": rows, **checks}


def run_amalgam_deck(precision: int):
    model = amalgam.AmalgamModel(precision)
    survivors = amalgam.translation_deck_search(model)
    checks = {"identity_only": len(survivors) == 1 and survivors[0].binary_offset == 0
              and survivors[0].ternary_offset == 0}
    payload = {
        "binary_precision": precision,
        "survivors": [
            {
                "binary_offset": pair.binary_offset,
                "ternary_offset": pair.ternary_offset,
                "ternary_precision": pair.ternary_precision,
            }
            for pair in survivors
        ],
        **checks,
    }
    if precision <= amalgam.CENTRALIZER_MAX_PRECISION:
        cross_check = amalgam.centralizer_deck_search(model)
        payload["centralizer_cross_check"] = cross_check
        checks["cross_check_agrees"] = cross_check == sorted(
            pair.binary_offset for pair in survivors)
    return checks, payload


# degrees above this take the full-cycle census; read at call time
EXHAUSTIVE_MAX_DEGREE = 8


def run_covers_obstruction(max_degree: int):
    degrees = {}
    for d in range(1, max_degree + 1):
        entry: dict = {
            "admissible": covers.factorization_obstruction(d),
            "power_of_2": covers.is_power(d, 2),
            "power_of_3": covers.is_power(d, 3),
        }
        if d > 1:
            if d <= EXHAUSTIVE_MAX_DEGREE:
                mode, key = "exhaustive", "classes"
                reps = covers.iter_connected_coverings(d)
            elif entry["power_of_2"] or entry["power_of_3"]:
                # complete over the only covers that satisfy one side's
                # condition; that side holds on each by construction
                petal = "a" if entry["power_of_2"] else "b"
                mode, key = "full-cycle-complete", "constrained_classes"
                reps = covers.full_cycle_coverings(d, petal)
            else:
                # neither side's cycle condition is satisfiable at this degree
                mode, key, reps = "arithmetic", None, ()
            count = simultaneous = 0
            for rep in reps:
                count += 1
                a_side = covers.cyclic_quotient_compatible(rep, "a", 2)
                simultaneous += a_side and covers.cyclic_quotient_compatible(rep, "b", 3)
            entry["mode"] = mode
            if key:
                entry[key] = count
            entry["simultaneously_compatible"] = simultaneous
        degrees[str(d)] = entry
    admissible = [int(d) for d, entry in degrees.items() if entry["admissible"]]
    checks = {
        "only_degree_1_admissible": admissible == [1],
        "none_simultaneously_compatible": not any(
            entry.get("simultaneously_compatible") for entry in degrees.values()),
    }
    return checks, {"admissible_degrees": admissible, "degrees": degrees}


def run_hawaiian_suite(circles: int, level: int, words: int, seed: int):
    if level > circles:
        raise UsageError("--level cannot exceed --circles")
    rng = Random(seed)

    per_level = []
    for n in range(1, level + 1):
        graph = hawaiian.HnGraph(n, circles)
        connected = hawaiian.is_connected(graph)
        fibre_size = len(graph.vertices())
        targets = hawaiian.all_sign_vectors(n)
        source = hawaiian.ALL_PLUS
        surjective = all(
            hawaiian.lift_word_hn(
                n, hawaiian.connect_fibre_points(n, source, t), source
            )
            == t
            for t in targets
        )
        deck = hawaiian.deck_group_hn(n)
        deck_ok = len(deck) == 2**n
        if n <= 8:
            fibre = hawaiian.hn_level(n, n).fibre
            deck_ok = deck_ok and hawaiian.deck_commutes_with_flips(n, deck, fibre)
        row = {
            "level": n,
            "connected": connected,
            "fibre_size": fibre_size,
            "boundary_surjective": surjective,
            "surjectivity_targets": len(targets),
            "deck_order": len(deck),
            "deck_verified": deck_ok,
        }
        per_level.append(row)

    kernel_agreements = 0
    for _ in range(words):
        word = hawaiian.random_kernel_word(rng, circles)
        n = rng.randint(1, level)
        if hawaiian.kernel_check(word, n):
            kernel_agreements += 1

    tower = hawaiian.hn_tower(level)
    violations = lifting.tower_strictness_check(tower)
    commute_ok = True
    for _ in range(100 if level >= 2 else 0):
        n = rng.randint(1, level - 1)
        upper, lower = tower.levels[n], tower.levels[n - 1]
        bond = tower.bonds[n - 1]
        word = tuple(
            (rng.randint(1, level), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 8))
        )
        start = upper.fibre[rng.randrange(len(upper.fibre))]
        left = bond[lifting.lift_word(upper, word, start)]
        right = lifting.lift_word(lower, word, bond[start])
        commute_ok = commute_ok and left == right

    disconnect_demo = not hawaiian.is_connected(
        hawaiian.HnGraph(min(3, level), circles), omit_circle=1
    )

    flags = {
        "tower_strict": not violations,
        "lift_bond_commutes": commute_ok,
        "dropping_a_circle_disconnects": disconnect_demo,
    }
    checks = {
        "connected": all(row["connected"] for row in per_level),
        "fibre_sizes": all(row["fibre_size"] == 2 ** row["level"] for row in per_level),
        "boundary_surjective": all(row["boundary_surjective"] for row in per_level),
        "deck_verified": all(row["deck_verified"] for row in per_level),
        "kernel_words_agree": kernel_agreements == words,
        **flags,
    }
    payload = {
        "circles": circles,
        "levels": per_level,
        "kernel_words": {"sampled": words, "agreed": kernel_agreements},
        **flags,
        "graph_level_2": hawaiian.hn_graph_to_json(
            hawaiian.HnGraph(min(2, level), circles)
        ),
    }
    return checks, payload


def run_spiral_orbits(horizon: int):
    sys = lifting.spiral_system(horizon)
    orbits = lifting.orbit_partition(sys)
    spiral_orbit = max(orbits, key=len)
    closure = lifting.orbit_closure(sys, spiral_orbit)
    top_fixed = lifting.lift_word(sys, lifting.parse_loop_word("a"), "top") == "top"

    checks = {
        "orbit_sizes": sorted(len(o) for o in orbits) == [1, 1, 2 * horizon + 1],
        "closure_adds_both_boundaries": set(closure) == set(spiral_orbit) | {"bot", "top"},
        "boundary_fixed": top_fixed,
    }
    payload = {
        "truncation": horizon,
        "orbit_sizes": [len(o) for o in orbits],
        "component_degrees": lifting.component_degrees(sys, orbits),
        "spiral_orbit_closure_adds": sorted(
            str(p) for p in set(closure) - set(spiral_orbit)
        ),
        "boundary_fixed": top_fixed,
    }
    if horizon <= 16:
        payload["system"] = lifting.system_to_json(sys)
    return checks, payload


def run_rotation_density(horizon: int):
    alpha = lifting.golden_ratio_64bit()
    checkpoints = [horizon // 4, horizon // 2, horizon]
    gaps = {str(n): lifting.rotation_orbit_gaps(alpha, n) for n in checkpoints}
    control_gaps = {
        str(n): lifting.rotation_orbit_gaps(Fraction(1, 3), n) for n in checkpoints
    }
    first, middle, last = gaps.values()
    checks = {
        "strictly_decreasing": first > middle > last,
        "control_constant": len(set(control_gaps.values())) == 1,
    }
    payload = {
        "alpha": str(alpha),
        "orbit_sizes": checkpoints,
        "max_gaps": {k: str(v) for k, v in gaps.items()},
        "max_gaps_float": {k: float(v) for k, v in gaps.items()},
        "control_alpha": "1/3",
        "control_gaps": {k: str(v) for k, v in control_gaps.items()},
        **checks,
    }
    return checks, payload


# ---------------------------------------------------------------------------
# the experiment table


@dataclass(frozen=True)
class Knob:
    """One option of an experiment.

    ``default`` is a value, or a function of the knobs resolved before this
    one whose docstring says how it is derived. ``low`` and ``high`` bound a
    numeric knob beyond the floor of 1 that every numeric knob has; ``why``
    gives the reason for them.
    """

    type: type
    default: object
    low: int | None = None
    high: int | None = None
    why: str = ""


@dataclass(frozen=True)
class Spec:
    """One experiment: its runner, claim and knobs, whether it samples, its witness checks."""

    runner: Callable[..., tuple[dict[str, bool], dict]]
    claim_id: str
    statement: str
    knobs: dict[str, Knob]
    seeded: bool = False
    witnesses: tuple[str, ...] = ()

    @property
    def claim(self) -> dict[str, str]:
        """What the run checks, stated mathematically."""
        return {"id": self.claim_id, "statement": self.statement}


def _horizon_from_depth(knobs: dict) -> int:
    """2^(depth+4)"""
    return 2 ** (knobs["depth"] + 4)


SPECS: dict[str, Spec] = {
    "mt-generate": Spec(
        run_mt_generate,
        "constructions-agree",
        "The two-letter substitution, the doubling construction, and the "
        "bit-count parity rule generate the same binary sequence.",
        {"level": Knob(int, 5, high=22, why="the report holds all 2^level symbols")},
    ),
    "mt-dynamics": Spec(
        run_mt_dynamics,
        "mixed-orbit-behaviour",
        "The doubled sequence is aperiodic, every short factor recurs "
        "with a bounded gap, and window pairs both approach (proximal "
        "evidence) and separate (non-equicontinuity evidence) under "
        "shifting, at the stated depth and horizon.",
        {
            "level": Knob(int, 14, low=8, high=18, why="the period scan needs 256 "
                          "symbols, and the prefix has 2^level"),
            "depth": Knob(int, 4, high=7, why="each step multiplies the witness "
                          "search by about 4"),
            "horizon": Knob(int, _horizon_from_depth, high=2048, why="each window "
                            "holds 2 * horizon symbols; 2048 is the default at the "
                            "top depth"),
            "words": Knob(int, 192, high=447, why="both witness scans compare "
                          "every pair of windows, and C(447, 2) = 99,681"),
        },
        witnesses=("proximal_witness", "separation_witness"),
    ),
    "tower-equicontinuity": Spec(
        run_tower_equicontinuity,
        "strict-towers-equicontinuous",
        "A strict tower of finite shift systems acts equicontinuously: "
        "agreement depth in the thread metric is preserved by every "
        "iterate, so the modulus is the identity; defective towers are "
        "rejected at construction.",
        {
            "level": Knob(int, 8, high=12, why="the cyclic tower's top level "
                          "has 2^level points, each stepped once"),
            "words": Knob(int, 20, high=1000, why="the report holds one random "
                          "tower's modulus check per word"),
        },
        seeded=True,
    ),
    "solenoid-lift": Spec(
        run_solenoid_lift,
        "solenoid-monodromy",
        "Loop lifting in the k-fold self-cover tower of the circle acts "
        "by +1 on the k-ary residue fibre, transitively at every level.",
        {
            "level": Knob(int, 3, high=16, why="the report lists "
                          "the 2^level-point fibre"),
            "word": Knob(str, "a^5"),
            "start": Knob(str, "0"),
        },
    ),
    "amalgam-rigidity": Spec(
        run_amalgam_rigidity,
        "doubling-scales-disagree",
        "Repeated doubling contracts binary residues one valuation step "
        "per iteration while the glued ternary images stay at one "
        "constant scale, so no nontrivial translation pair commutes "
        "with the glue.",
        {
            "precision": Knob(int, 64, low=2, high=1024, why="one binary digit "
                              "certifies no residue's glue image, and each "
                              "sample's row holds its precision binary digits"),
            "words": Knob(int, 50, high=1000, why="the report holds one row per "
                          "sample"),
            "depth": Knob(int, 30, low=2, high=256, why="the witness compares "
                          "consecutive doublings, and each row lists one "
                          "valuation per doubling"),
        },
        seeded=True,
    ),
    "amalgam-deck": Spec(
        run_amalgam_deck,
        "glued-system-rigid",
        "Exhaustive translation-pair search over the glued double "
        "solenoid at this truncation finds only the identity symmetry.",
        {"precision": Knob(int, 6, low=2, high=10, why="the glued b-step needs "
                           "two binary digits, and the pair search is quadratic "
                           "in the fibre")},
    ),
    "covers-obstruction": Spec(
        run_covers_obstruction,
        "no-common-cover-degree",
        "A connected cover of the figure eight compatible with the "
        "binary side needs a full cycle of 2-power length, with the "
        "ternary side a 3-power length; both hold only in degree 1.",
        {"max_degree": Knob(int, 12, high=12, why="the next full-cycle family, at "
                            "degree 16, is too large to list")},
    ),
    "hawaiian-suite": Spec(
        run_hawaiian_suite,
        "squaring-tower-connected",
        "Every level of the squaring tower over nested circles is "
        "connected, letter-count parity classifies lifts with a "
        "surjective boundary map, and the level-n deck group is the "
        "full sign group of order 2^n acting freely and transitively.",
        {
            "circles": Knob(int, 16, high=64, why="each level graph has a loop per "
                            "circle at every vertex"),
            "level": Knob(int, 12, high=12, why="kernel words are checked against "
                          "every start vector"),
            "words": Knob(int, 1000, high=10_000, why="each sampled word is "
                          "lifted from every start vector of its level"),
        },
        seeded=True,
    ),
    "spiral-orbits": Spec(
        run_spiral_orbits,
        "spiral-decomposes",
        "The compactified spiral splits into one traversing orbit and "
        "two fixed boundary circles; the traversing orbit closes up on "
        "both boundaries.",
        {"horizon": Knob(int, 32, high=10_000, why="the fibre holds 2 * horizon + 3 "
                         "points")},
    ),
    "rotation-density": Spec(
        run_rotation_density,
        "irrational-orbits-dense",
        "The largest gap of an irrational rotation orbit shrinks as the "
        "orbit grows, while a rational rotation's gap stalls.",
        {"horizon": Knob(int, 1000, low=12, high=100_000, why="the 1/3 control "
                         "orbit of horizon // 4 points shows its gap 1/3 only from 3 "
                         "points on, and each orbit is sorted exactly")},
    ),
}

# The type of each knob name; a name means the same option in every experiment.
KNOB_TYPES: dict[str, type] = {
    name: knob.type for spec in SPECS.values() for name, knob in spec.knobs.items()
}


def flag(name: str) -> str:
    """The command line flag of a config key."""
    return "--" + name.replace("_", "-")


class ExperimentConfig:
    """One run: the experiment, its ``out`` path, and the config its report echoes.

    Every check of keys, types, seed and bounds happens here, once, before
    any work starts: known keys and name, types, a floor of 1 on numeric
    knobs, a nonempty ``out``, a 64-bit seed, a seed for experiments that
    draw samples, then the bounds of each declared knob once its default is
    applied. A key given as None counts as not given. ``echoed`` holds the
    declared knobs and any seed given; an undeclared knob is accepted and not
    echoed. A runner raises UsageError for what only it can check: a loop
    word, a fibre point, ``--level`` against ``--circles``.
    """

    def __init__(self, /, experiment: str | None = None, **given) -> None:
        types = {"seed": int, "out": str, **KNOB_TYPES}
        unknown = set(given) - set(types)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        if experiment is None:
            raise UsageError("an experiment name is required (--experiment)")
        if not isinstance(experiment, str) or experiment not in SPECS:
            raise UsageError(
                f"unknown experiment {experiment!r}; choose from {', '.join(SPECS)}"
            )
        given = {key: value for key, value in given.items() if value is not None}
        for key, value in given.items():
            if type(value) is not types[key]:
                what = "an integer" if types[key] is int else "a string"
                raise UsageError(f"{flag(key)} must be {what}, not {value!r}")
            if type(value) is int and key != "seed" and value < 1:
                raise UsageError(f"{flag(key)} must be >= 1")
        if given.get("out") == "":
            raise UsageError("--out must name a file, not ''")
        seed = given.get("seed")
        if seed is not None and not 0 <= seed < 2**64:
            raise UsageError("--seed must fit in 64 bits")
        spec = SPECS[experiment]
        if spec.seeded and seed is None:
            raise UsageError(
                f"experiment {experiment} draws random samples; --seed is mandatory"
            )
        echoed: dict = {}
        for name, knob in spec.knobs.items():
            default = knob.default(echoed) if callable(knob.default) else knob.default
            value = given.get(name, default)
            reason = f": {knob.why}" if knob.why else ""
            if knob.low is not None and value < knob.low:
                raise UsageError(f"{flag(name)} must be >= {knob.low}{reason}")
            if knob.high is not None and value > knob.high:
                raise UsageError(f"{flag(name)} is supported up to {knob.high}{reason}")
            echoed[name] = value
        if seed is not None:
            echoed["seed"] = seed
        self.experiment = experiment
        self.out: str | None = given.get("out")
        self.echoed = echoed


def run(config: ExperimentConfig) -> Report:
    """Execute one experiment and assemble its report."""
    spec = SPECS[config.experiment]
    keys = [*spec.knobs, "seed"] if spec.seeded else spec.knobs
    args = {key: config.echoed[key] for key in keys}
    started = perf_counter()
    try:
        checks, payload = spec.runner(**args)
    except lifting.InconsistentModel as err:
        checks, payload = {"model_consistent": False}, {"inconsistent_model": str(err)}
    elapsed = perf_counter() - started
    failed = [name for name, ok in checks.items() if not ok]
    return Report(config.experiment, config.echoed, spec.claim,
                  verdict(failed, spec.witnesses), failed, payload, elapsed)
