"""What the traced run wraps, the per-layer metrics it reports, and what each
metric should move.

Layers are liftlab's modules. ``TARGETS`` names the public functions wrapped
from outside the package, each with how it is recorded:

- ``time``: a span per call, for self time and a call count;
- ``count``: a call count only, for leaf functions called more than about
  10^5 times per pass, where a span per call would distort the run;
- ``gen``: a span per ``next()`` of a generator, so the consumer's work
  between yields is not charged to the generator.

Several targets may share one span name; their numbers then add up.

``METRICS`` lists every per-layer metric with its unit, which way is better,
and the end-to-end metric and workloads it should move. A metric name ending
in ``.s`` or ``.self_s`` is the self time of the span named by the rest, one
ending in ``.calls`` its call count; any other name is a counter that an
observer (see ``tracer``) adds to.
"""

from __future__ import annotations

TIME, COUNT, GEN = "time", "count", "gen"

# (module, attribute, span name, mode); "Class.method" attributes wrap methods.
TARGETS = (
    ("liftlab.cli", "main", "cli.main", TIME),
    ("liftlab.experiments", "run", "experiments.run", TIME),
    ("liftlab.reports", "Report.to_json", "reports.to_json", TIME),
    ("liftlab.covers", "iter_connected_coverings", "covers.iter_connected_coverings", GEN),
    ("liftlab.covers", "full_cycle_coverings", "covers.full_cycle_coverings", GEN),
    ("liftlab.covers", "cyclic_quotient_compatible", "covers.cyclic_quotient_compatible", TIME),
    ("liftlab.lifting", "deck_search", "lifting.deck_search", TIME),
    ("liftlab.lifting", "MonodromySystem.__init__", "lifting.MonodromySystem", TIME),
    ("liftlab.lifting", "tower_strictness_check", "lifting.tower_strictness_check", TIME),
    ("liftlab.lifting", "lift_word", "lifting.lift_word", TIME),
    ("liftlab.lifting", "orbit_partition", "lifting.orbit_partition", TIME),
    ("liftlab.lifting", "orbit_closure", "lifting.orbit_closure", TIME),
    ("liftlab.lifting", "rotation_orbit_gaps", "lifting.rotation_orbit_gaps", TIME),
    ("liftlab.lifting", "system_to_json", "lifting.system_to_json", TIME),
    ("liftlab.hawaiian", "kernel_check", "hawaiian.kernel_check", TIME),
    ("liftlab.hawaiian", "lift_word_hn", "hawaiian.lift_word_hn", TIME),
    ("liftlab.hawaiian", "flip", "hawaiian.flip", COUNT),
    ("liftlab.hawaiian", "apply_deck", "hawaiian.apply_deck", COUNT),
    ("liftlab.hawaiian", "deck_group_hn", "hawaiian.deck_group_hn", TIME),
    ("liftlab.hawaiian", "hn_tower", "hawaiian.hn_tower", TIME),
    ("liftlab.hawaiian", "is_connected", "hawaiian.is_connected", TIME),
    ("liftlab.amalgam", "translation_deck_search", "amalgam.translation_deck_search", TIME),
    ("liftlab.amalgam", "centralizer_deck_search", "amalgam.centralizer_deck_search", TIME),
    ("liftlab.amalgam", "b_step", "amalgam.b_step", TIME),
    ("liftlab.profinite", "glue_forward", "profinite.glue_forward", TIME),
    ("liftlab.profinite", "glue_backward", "profinite.glue_backward", TIME),
    ("liftlab.profinite", "rigidity_witness", "profinite.rigidity_witness", TIME),
    ("liftlab.profinite", "padic_add", "profinite.padic", COUNT),
    ("liftlab.profinite", "padic_neg", "profinite.padic", COUNT),
    ("liftlab.profinite", "padic_sub", "profinite.padic", COUNT),
    ("liftlab.profinite", "padic_scale", "profinite.padic", COUNT),
    ("liftlab.profinite", "padic_valuation", "profinite.padic", COUNT),
    ("liftlab.profinite", "padic_distance", "profinite.padic", COUNT),
    ("liftlab.profinite", "padic_project", "profinite.padic", COUNT),
    ("liftlab.symdyn", "proximal_search", "symdyn.proximal_search", TIME),
    ("liftlab.symdyn", "non_equicontinuity_witness", "symdyn.non_equicontinuity_witness", TIME),
    ("liftlab.symdyn", "word_metric", "symdyn.word_metric", COUNT),
    ("liftlab.symdyn", "shift", "symdyn.shift", COUNT),
    ("liftlab.symdyn", "equicontinuity_modulus", "symdyn.equicontinuity_modulus", TIME),
    ("liftlab.symdyn", "StrictTower.__init__", "symdyn.StrictTower", TIME),
    ("liftlab.symdyn", "max_recurrence_gap", "symdyn.max_recurrence_gap", TIME),
    ("liftlab.symdyn", "factor_counts", "symdyn.factor_counts", TIME),
    ("liftlab.symdyn", "mt_substitution", "symdyn.generators", TIME),
    ("liftlab.symdyn", "mt_doubling", "symdyn.generators", TIME),
    ("liftlab.symdyn", "popcount_parity_prefix", "symdyn.generators", TIME),
    ("liftlab.symdyn", "mt_prefix", "symdyn.generators", TIME),
)

WORKLOADS = ("covers", "squaring", "glue", "shift")
ALL = WORKLOADS
COVER_DEGREES = range(2, 8)


def _m(name, unit, better, moves, workloads):
    return {"name": name, "unit": unit, "better": better, "moves": moves,
            "workloads": workloads}


METRICS = (
    _m("cli.import_s", "s", "lower", "setup_s", ALL),
    _m("cli.main.self_s", "s", "lower", "wall_ref", ("glue", "shift")),
    _m("experiments.run.calls", "count", "lower", "wall_ref", ("squaring",)),
    _m("experiments.run.self_s", "s", "lower", "wall_ref", ("squaring",)),
    _m("reports.to_json.s", "s", "lower", "wall_ref peak_rss_mb", ("shift",)),
    _m("reports.bytes", "bytes", "lower", "wall_ref peak_rss_mb", ("shift",)),
    _m("covers.iter_connected_coverings.s", "s", "lower", "wall_ref", ("covers",)),
    _m("covers.iter_connected_coverings.classes", "count", "higher", "wall_ref", ("covers",)),
    *(
        _m(f"covers.iter_connected_coverings.d{k}.s", "s", "lower", "wall_ref", ("covers",))
        for k in COVER_DEGREES
    ),
    _m("covers.full_cycle_coverings.s", "s", "lower", "wall_ref", ("covers",)),
    _m("covers.full_cycle_coverings.yielded", "count", "higher", "wall_ref", ("covers",)),
    _m("covers.full_cycle_coverings.yield_ratio", "ratio", "higher", "wall_ref", ("covers",)),
    _m("covers.cyclic_quotient_compatible.calls", "count", "lower", "wall_ref", ("covers",)),
    _m("covers.cyclic_quotient_compatible.s", "s", "lower", "wall_ref", ("covers",)),
    _m("lifting.deck_search.calls", "count", "lower", "wall_ref", ("covers",)),
    _m("lifting.deck_search.s", "s", "lower", "wall_ref", ("covers",)),
    _m("lifting.deck_search.results", "count", "higher", "wall_ref", ("covers",)),
    _m("lifting.MonodromySystem.calls", "count", "lower", "wall_ref peak_rss_mb", ("squaring",)),
    _m("lifting.MonodromySystem.s", "s", "lower", "wall_ref peak_rss_mb", ("squaring",)),
    _m("lifting.tower_strictness_check.s", "s", "lower", "wall_ref peak_rss_mb", ("squaring",)),
    _m("lifting.lift_word.calls", "count", "lower", "wall_ref peak_rss_mb", ("squaring",)),
    _m("lifting.lift_word.s", "s", "lower", "wall_ref peak_rss_mb", ("squaring",)),
    _m("lifting.orbit_partition.s", "s", "lower", "wall_ref", ("shift",)),
    _m("lifting.orbit_closure.s", "s", "lower", "wall_ref", ("shift",)),
    _m("lifting.rotation_orbit_gaps.s", "s", "lower", "wall_ref", ("shift",)),
    _m("lifting.system_to_json.s", "s", "lower", "wall_ref", ("shift",)),
    _m("hawaiian.kernel_check.calls", "count", "lower", "wall_ref peak_rss_mb", ("squaring",)),
    _m("hawaiian.kernel_check.s", "s", "lower", "wall_ref peak_rss_mb", ("squaring",)),
    _m("hawaiian.lift_word_hn.calls", "count", "lower", "wall_ref peak_rss_mb", ("squaring",)),
    _m("hawaiian.lift_word_hn.s", "s", "lower", "wall_ref peak_rss_mb", ("squaring",)),
    _m("hawaiian.flip.calls", "count", "lower", "wall_ref peak_rss_mb", ("squaring",)),
    _m("hawaiian.apply_deck.calls", "count", "lower", "wall_ref peak_rss_mb", ("squaring",)),
    _m("hawaiian.deck_group_hn.s", "s", "lower", "wall_ref peak_rss_mb", ("squaring",)),
    _m("hawaiian.hn_tower.s", "s", "lower", "wall_ref peak_rss_mb", ("squaring",)),
    _m("hawaiian.is_connected.s", "s", "lower", "wall_ref peak_rss_mb", ("squaring",)),
    _m("amalgam.translation_deck_search.s", "s", "lower", "wall_ref", ("glue",)),
    _m("amalgam.translation_deck_search.pairs", "count", "lower", "wall_ref", ("glue",)),
    _m("amalgam.translation_deck_search.survivors", "count", "lower", "wall_ref", ("glue",)),
    _m("amalgam.centralizer_deck_search.s", "s", "lower", "wall_ref", ("glue",)),
    _m("amalgam.b_step.calls", "count", "lower", "wall_ref", ("glue",)),
    _m("amalgam.b_step.s", "s", "lower", "wall_ref", ("glue",)),
    _m("profinite.glue_forward.calls", "count", "lower", "wall_ref", ("glue",)),
    _m("profinite.glue_forward.s", "s", "lower", "wall_ref", ("glue",)),
    _m("profinite.glue_backward.calls", "count", "lower", "wall_ref", ("glue",)),
    _m("profinite.glue_backward.s", "s", "lower", "wall_ref", ("glue",)),
    _m("profinite.rigidity_witness.calls", "count", "lower", "wall_ref", ("glue",)),
    _m("profinite.rigidity_witness.s", "s", "lower", "wall_ref", ("glue",)),
    _m("profinite.padic.calls", "count", "lower", "wall_ref", ("glue",)),
    _m("symdyn.proximal_search.s", "s", "lower", "wall_ref", ("shift",)),
    _m("symdyn.non_equicontinuity_witness.s", "s", "lower", "wall_ref", ("shift",)),
    _m("symdyn.word_metric.calls", "count", "lower", "wall_ref", ("shift",)),
    _m("symdyn.shift.calls", "count", "lower", "wall_ref", ("shift",)),
    _m("symdyn.equicontinuity_modulus.s", "s", "lower", "wall_ref", ("shift",)),
    _m("symdyn.equicontinuity_modulus.pairs_checked", "count", "lower", "wall_ref", ("shift",)),
    _m("symdyn.StrictTower.s", "s", "lower", "wall_ref", ("shift",)),
    _m("symdyn.max_recurrence_gap.s", "s", "lower", "wall_ref", ("shift",)),
    _m("symdyn.factor_counts.s", "s", "lower", "wall_ref", ("shift",)),
    _m("symdyn.generators.s", "s", "lower", "wall_ref", ("shift",)),
    _m("trace.overhead", "ratio", "lower", "none: traced over untraced wall time", ALL),
)

# Exact work counters of one traced pass at the default seed. A later change
# that moves one of them does different work, not the same work faster.
PINNED_COUNTS = {
    "covers": {
        "covers.iter_connected_coverings.classes": 9_840,  # degrees 2..7, twice
        "covers.full_cycle_coverings.yielded": 5_116,  # 5,100 + 10 + 4 + 2
        "covers.cyclic_quotient_compatible.calls": 14_980,
        "lifting.deck_search.calls": 4_920,
        "lifting.deck_search.results": 5_187,
        "experiments.run.calls": 1,
    },
    "squaring": {
        "hawaiian.flip.calls": 295_996,
        "hawaiian.apply_deck.calls": 291_612,
        "hawaiian.lift_word_hn.calls": 34_854,
        "hawaiian.kernel_check.calls": 1_000,
        "lifting.lift_word.calls": 200,
        "experiments.run.calls": 1,
    },
    "glue": {
        "amalgam.translation_deck_search.pairs": 1_398_096,  # sum of 4^m, m = 2..10
        "amalgam.translation_deck_search.survivors": 13,  # 9 identities, 4 spurious
        "amalgam.b_step.calls": 120,
        "profinite.glue_forward.calls": 91_136,
        "profinite.glue_backward.calls": 88_692,  # 88,572 round trips + 120 b-steps
        "profinite.rigidity_witness.calls": 200,
        "profinite.padic.calls": 72_000,
        "experiments.run.calls": 10,  # the round trips are library calls
    },
    "shift": {
        "symdyn.word_metric.calls": 11_389,
        "symdyn.shift.calls": 22_774,
        "symdyn.equicontinuity_modulus.pairs_checked": 8_301,
        "experiments.run.calls": 6,
    },
}
