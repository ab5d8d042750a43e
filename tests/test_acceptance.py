"""End-to-end acceptance checks, one test per headline claim.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
criterion.  Everything here is seeded and deterministic; the slowest pieces
(the 256-rule coefficient sweep and the 10,000-machine scan) finish in well
under a minute on one core.
"""

import random

import pytest

from ccl import (TM, RuleSpec, coefficient_classification,
                 compressed_length, deflate, detect_spikes, encode_diagram,
                 evolve_ca, ic_profile, initial_condition,
                 initial_condition_number, least_squares_fit,
                 reached_states_sequence, sample_rule_space)
from ccl.cli import main
from ccl.transition import _exponents
from oracles import damerau_levenshtein
from rfc1951 import inflate

COMPLEX_RULES = frozenset({30, 45, 73, 75, 86, 89, 101, 110, 124, 135,
                           137, 149, 193})
SIMPLE_RULES = frozenset({0, 8, 90, 128, 136, 255})


def test_criterion_01_eca_clusters_recover_reference_classes(eca_report_200):
    high_id = max(e.cluster for e in eca_report_200.entries)
    high = {e.rule.rule_number for e in eca_report_200.entries
            if e.cluster == high_id}
    low = {e.rule.rule_number for e in eca_report_200.entries
           if e.cluster == 0}
    assert COMPLEX_RULES <= high
    assert SIMPLE_RULES <= low
    assert len(high - COMPLEX_RULES) <= 4


def test_criterion_02_compressed_length_ordering(eca_report_200):
    c = {e.rule.rule_number: e.c_compressed for e in eca_report_200.entries}
    assert c[0] < c[90] < c[30]
    assert abs(c[0] - c[255]) <= 2


def test_criterion_03_gray_code_suite():
    for n in range(2 ** 16):
        assert initial_condition_number(initial_condition(n)) == n
    for n in range(2 ** 12):
        a = initial_condition(n).cells
        b = initial_condition(n + 1).cells
        w = max(len(a), len(b))
        assert damerau_levenshtein(
            (0,) * (w - len(a)) + a, (0,) * (w - len(b)) + b
        ) == 1
    assert initial_condition_number(initial_condition(32)) == 32


def test_criterion_04_exponent_formula_matches_oracle():
    rng = random.Random(41)
    for _ in range(1000):
        n = rng.randint(2, 12)
        t = rng.randint(1, 500)
        table = {j: rng.randint(0, 10 ** 6) for j in range(1, n + 1)}
        got = _exponents([[table[j]] for j in range(1, n + 1)], [t])[0]
        want = sum(
            abs(table[j + 1] - table[j]) for j in range(1, n)
        ) / ((n - 1) * t)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_criterion_05_least_squares_exact_and_orthogonal():
    rng = random.Random(7)
    for _ in range(500):
        m = rng.randint(2, 40)
        intercept = rng.uniform(-50.0, 50.0)
        slope = rng.uniform(-50.0, 50.0)
        seq = [intercept + slope * x for x in range(1, m + 1)]
        got_intercept, got_slope = least_squares_fit(seq)
        assert got_slope == pytest.approx(slope, rel=1e-12, abs=1e-9)
        assert got_intercept == pytest.approx(intercept, rel=1e-12, abs=1e-9)
    for _ in range(500):
        m = rng.randint(2, 40)
        seq = [rng.uniform(-1e4, 1e4) for _ in range(m)]
        got_intercept, got_slope = least_squares_fit(seq)
        residuals = [
            y - (got_intercept + got_slope * x)
            for x, y in enumerate(seq, start=1)
        ]
        scale = max(1.0, max(abs(y) for y in seq))
        assert abs(sum(residuals)) / scale < 1e-9
        assert abs(
            sum(x * r for x, r in enumerate(residuals, start=1))
        ) / (scale * m) < 1e-9


def test_criterion_06_spike_locations_for_rules_22_and_109():
    spikes_22 = detect_spikes(ic_profile(RuleSpec.eca(22), 21, 150,
                                         threads=4))
    assert spikes_22 == [8, 14, 17, 20]
    spikes_109 = detect_spikes(ic_profile(RuleSpec.eca(109), 21, 150,
                                          threads=4))
    assert {2, 3, 11, 13} <= set(spikes_109)


def test_criterion_07_top_coefficients_and_sign_margins():
    report = coefficient_classification(
        [RuleSpec.eca(r) for r in range(256)], threads=4
    )
    top4 = {rec.rule.rule_number for rec in report.records[:4]}
    assert top4 == {22, 151, 109, 73}
    by_rule = {rec.rule.rule_number: rec.C for rec in report.records}
    assert by_rule[110] > 0
    assert abs(by_rule[30]) < 0.1 * by_rule[110]
    assert abs(by_rule[1]) < 0.1 * by_rule[110]


def test_criterion_08_classify_outputs_identical_across_threads(tmp_path):
    trees = []
    for label, threads in (("a", "1"), ("b", "4")):
        out = tmp_path / label
        code = main(["classify", "--out", str(out), "--create",
                     "--threads", threads])
        assert code == 0
        trees.append({
            p.name: p.read_bytes() for p in sorted(out.iterdir())
        })
    assert trees[0] == trees[1]
    assert set(trees[0]) >= {"classification.csv", "classification.json",
                             "ranking.svg"}


def test_criterion_09_compression_sanity_and_roundtrip():
    constant = b"\x07" * 10240
    noise = random.Random(0).randbytes(10240)
    assert compressed_length(constant) < 0.01 * len(constant)
    assert compressed_length(noise) > 0.9 * len(noise)
    diagram = encode_diagram(evolve_ca(RuleSpec.eca(30),
                                       initial_condition(1), 120))
    for payload in (constant, noise, diagram, b""):
        assert inflate(deflate(payload)) == payload


def test_criterion_10_tm_space_size_and_state_reach_bounds():
    assert RuleSpec.tm(2, 3, 0).space_size == 2_985_984
    for rule in sample_rule_space(TM, 3, 2, 10000, 0):
        seq = reached_states_sequence(rule, 200)
        assert len(seq) == 201
        assert 1 <= seq[0] and seq[-1] <= 2
        assert all(a <= b for a, b in zip(seq, seq[1:]))
