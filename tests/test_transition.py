import json
import random
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccl import (RuleSpec, characteristic_exponent, coefficient_classification,
                 compressed_length, detect_spikes, encode_diagram, evolve_ca,
                 ic_profile, initial_condition, initial_condition_number,
                 interesting_initial_conditions, least_squares_fit,
                 transition, transition_record)
from ccl.cli import main
from ccl.transition import _exponents

SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"


def exponent(lengths, t):
    """The one exponent formula over the lengths of consecutive initial
    conditions, run for ``t`` steps."""
    return _exponents([[c] for c in lengths], t)[0]


class TestCharacteristicExponent:
    def test_worked_example(self):
        assert exponent([10, 20, 40], 10) == 1.5

    def test_constant_lengths_give_zero(self):
        assert exponent([77] * 8, 25) == 0.0

    def test_measures_conditions_one_to_n(self, monkeypatch):
        seen = []

        def fake_grid(rules, ics, t_block, blocks, threads=None):
            seen.extend(initial_condition_number(ic) for ic in ics)
            return [[[len(ic)] * blocks for ic in ics] for _ in rules]

        monkeypatch.setattr(transition, "_grid", fake_grid)
        characteristic_exponent(RuleSpec.eca(22), 4, 5)
        assert seen == [1, 2, 3, 4]

    def test_scale_covariance(self):
        lengths = [11.0 * j * j for j in range(1, 7)]
        base = exponent(lengths, 9)
        scaled = exponent([5 * c for c in lengths], 9)
        assert scaled == pytest.approx(5 * base, rel=1e-12)

    def test_doubling_time_halves_the_value(self):
        lengths = [100 + 7 * j for j in range(1, 6)]
        a = exponent(lengths, 30)
        b = exponent(lengths, 60)
        assert a == pytest.approx(2 * b, rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                 min_size=2, max_size=20),
        st.integers(min_value=1, max_value=500),
    )
    def test_matches_one_line_oracle(self, lengths, t):
        n = len(lengths)
        got = exponent(lengths, t)
        want = sum(
            abs(lengths[i + 1] - lengths[i]) for i in range(n - 1)
        ) / (t * (n - 1))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda cols: st.lists(
                st.lists(st.integers(min_value=0, max_value=10**6),
                         min_size=cols, max_size=cols),
                min_size=2, max_size=12)),
        st.integers(min_value=1, max_value=500),
    )
    def test_column_b_is_divided_by_its_runtime(self, table, t_block):
        """Column b (from 0) of a lengths table is the runtime
        (b+1)*t_block, so that is its divisor."""
        rows = len(table)
        got = _exponents(table, t_block)
        assert len(got) == len(table[0])
        for b, value in enumerate(got):
            diffs = sum(abs(table[i + 1][b] - table[i][b])
                        for i in range(rows - 1))
            want = diffs / (rows - 1) / ((b + 1) * t_block)
            assert value == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_nonnegative_and_parameter_checks(self):
        rule = RuleSpec.eca(22)
        assert characteristic_exponent(rule, 2, 4) >= 0
        with pytest.raises(ValueError):
            characteristic_exponent(rule, 1, 4)
        with pytest.raises(ValueError):
            characteristic_exponent(rule, 2, 0)


class TestLeastSquaresFit:
    def test_perfect_line(self):
        assert least_squares_fit([1, 2, 3]) == (0.0, 1.0)

    def test_constant(self):
        intercept, slope = least_squares_fit([4.0, 4.0, 4.0, 4.0])
        assert (intercept, slope) == (4.0, 0.0)

    def test_known_ten_point_sequence(self):
        seq = [3.0, 5.2, 7.5, 9.9, 12, 15, 17, 20, 22, 24]
        intercept, slope = least_squares_fit(seq)
        np_intercept, np_slope = np.polynomial.polynomial.polyfit(
            np.arange(1, 11), seq, 1
        )
        assert slope == pytest.approx(np_slope, rel=1e-12)
        assert intercept == pytest.approx(np_intercept, rel=1e-12)
        assert slope == pytest.approx(2.38, abs=0.01)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=-50, max_value=50),
        st.integers(min_value=2, max_value=30),
    )
    def test_collinear_input_recovered_exactly(self, intercept, slope, m):
        seq = [intercept + slope * x for x in range(1, m + 1)]
        got_intercept, got_slope = least_squares_fit(seq)
        assert got_slope == pytest.approx(slope, rel=1e-12, abs=1e-9)
        assert got_intercept == pytest.approx(intercept, rel=1e-12, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=2,
                    max_size=25))
    def test_residuals_orthogonal(self, seq):
        intercept, slope = least_squares_fit(seq)
        residuals = [
            y - (intercept + slope * x)
            for x, y in enumerate(seq, start=1)
        ]
        scale = max(1.0, max(abs(y) for y in seq))
        assert abs(sum(residuals)) / scale < 1e-9
        assert abs(
            sum(x * r for x, r in enumerate(residuals, start=1))
        ) / (scale * len(seq)) < 1e-9

    def test_too_short(self):
        with pytest.raises(ValueError):
            least_squares_fit([1.0])


class TestSpikeDetector:
    def test_flat_profile_has_no_spikes(self):
        assert detect_spikes([50] * 20) == []
        assert detect_spikes([7]) == []

    def test_single_spike_found_and_feet_ignored(self):
        profile = [10, 10, 11, 10, 50, 10, 10, 9, 10]
        assert detect_spikes(profile) == [4]

    def test_spike_at_either_edge(self):
        assert detect_spikes([60, 10, 11, 10, 10, 11, 10]) == [0]
        assert detect_spikes([10, 11, 10, 10, 11, 10, 60]) == [6]

    def test_plateau_spike_reports_both_shoulders(self):
        profile = [10, 10, 11, 48, 50, 10, 10, 11, 10, 10]
        assert detect_spikes(profile) == [3, 4]

    def test_threshold_is_configurable(self):
        profile = [10, 10, 30, 10, 10, 12, 10, 11, 10, 11]
        assert detect_spikes(profile, q=3.0) == [2]
        assert detect_spikes(profile, q=25.0) == []

    @pytest.mark.parametrize("q", [-1.0, -1e-9, float("nan")])
    def test_threshold_must_be_nonnegative(self, q):
        with pytest.raises(ValueError):
            detect_spikes([10, 10, 30, 10, 10, 12, 10, 11, 10, 11], q=q)


class TestTransitionSequence:
    def test_matches_per_block_exponents_at_pinned_width(self):
        rule = RuleSpec.eca(22)
        n, t_block, blocks = 4, 20, 3
        seq = transition_record(rule, n, t_block, blocks).S_c
        # The window of the sweep: the longest condition plus the light
        # cone of the full runtime.
        w = len(initial_condition(n)) + 2 * (t_block * blocks + 1)
        for b in range(1, blocks + 1):
            lengths = [
                compressed_length(encode_diagram(evolve_ca(
                    rule, initial_condition(j), b * t_block, width=w)))
                for j in range(1, n + 1)
            ]
            diffs = [abs(hi - lo) for lo, hi in zip(lengths, lengths[1:])]
            assert seq[b - 1] == sum(diffs) / len(diffs) / (b * t_block)

    def test_needs_two_blocks(self):
        with pytest.raises(ValueError):
            transition_record(RuleSpec.eca(22), 4, 20, 1)

    def test_stub_free_zero_composition(self):
        # a system whose lengths ignore the initial condition has an
        # identically zero sequence and coefficient, with no tolerance.
        seq = [exponent([1234] * 5, t) for t in (10, 20, 30, 40)]
        assert seq == [0.0, 0.0, 0.0, 0.0]
        assert least_squares_fit(seq) == (0.0, 0.0)

    def test_record_carries_its_fit(self, tmp_path):
        rec = transition_record(RuleSpec.eca(22), 4, 20, 3)
        assert rec.C == rec.fit[1]
        assert len(rec.S_c) == 3
        assert main(["transition", "--rules", "22", "--n", "4", "--t-block",
                     "20", "--blocks", "3", "--top", "0",
                     "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "coefficients.json").read_text())
        entry = doc["entries"][0]
        assert entry["coefficient"] == rec.C
        assert entry["intercept"] == rec.fit[0]
        assert entry["S_c"] == list(rec.S_c)


class TestIcProfile:
    def test_lengths_align_with_ic_numbers(self):
        rule = RuleSpec.eca(110)
        profile = ic_profile(rule, 6, 40)
        assert len(profile) == 6
        # spot-check one entry against a direct measurement in the same
        # window.
        width = len(initial_condition(5)) + 2 * (40 + 1)
        want = compressed_length(
            encode_diagram(evolve_ca(rule, initial_condition(3), 40,
                                     width=width))
        )
        assert profile[3] == want

    def test_dead_rule_profile_is_near_constant(self):
        profile = ic_profile(RuleSpec.eca(0), 8, 50)
        spread = max(profile) - min(profile)
        assert spread <= 8

    def test_steps_must_be_positive(self):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            ic_profile(RuleSpec.eca(22), 4, 0)

    def test_threaded_profile_identical(self):
        a = ic_profile(RuleSpec.eca(73), 8, 40, threads=4)
        b = ic_profile(RuleSpec.eca(73), 8, 40)
        assert a == b


class TestInterestingInitialConditions:
    def test_invariants_on_a_quick_run(self):
        found = interesting_initial_conditions(
            RuleSpec.eca(22), count=5, t=120, blocks=3, m=12
        )
        assert list(found.ics) == sorted(set(found.ics))
        assert all(0 <= j < 12 for j in found.ics)
        assert len(found.ics) <= 5
        assert len(found.profile) == 12

    def test_dead_rule_warns_and_finds_little(self):
        found = interesting_initial_conditions(
            RuleSpec.eca(0), count=5, t=90, blocks=3, m=10
        )
        assert not found.coefficient > 1.0
        assert found.coefficient == pytest.approx(0.0, abs=0.1)

    def test_runtime_must_split_into_blocks(self):
        with pytest.raises(ValueError):
            interesting_initial_conditions(RuleSpec.eca(22), 5, 100, 3, 10)

    @pytest.mark.parametrize("kwargs, message", [
        ({"m": 2}, "at least three initial conditions"),
        ({"t": 60, "blocks": 1}, "at least two blocks")],
        ids=["m-2", "blocks-1"])
    def test_scan_shape_checked(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            interesting_initial_conditions(RuleSpec.eca(22), **kwargs)

    @pytest.mark.parametrize("t", [0, -4])
    def test_runtime_must_be_positive(self, t):
        with pytest.raises(ValueError, match="positive multiple"):
            interesting_initial_conditions(RuleSpec.eca(22), t=t, blocks=2)

    @pytest.mark.parametrize("number", [22, 30, 73, 109])
    def test_coefficient_is_the_sweep_coefficient(self, number):
        rule = RuleSpec.eca(number)
        found = interesting_initial_conditions(rule, t=60, blocks=3, m=8)
        assert found.coefficient == transition_record(
            rule, n=7, t_block=20, blocks=3).C

    def test_rule_22_jump_sites(self):
        found = interesting_initial_conditions(RuleSpec.eca(22), threads=4)
        assert {8, 14, 17, 20} <= set(found.ics)
        assert found.coefficient > 1.0

    def test_rule_109_jump_sites(self):
        found = interesting_initial_conditions(RuleSpec.eca(109), threads=4)
        assert {2, 3, 11, 13} <= set(found.ics)
        assert found.coefficient > 1.0


class TestCoefficientClassification:
    def test_empty_rule_set_rejected(self):
        with pytest.raises(ValueError, match="rule set must be non-empty"):
            coefficient_classification([])

    def test_small_set_orders_and_clusters(self):
        rules = [RuleSpec.eca(n) for n in (22, 0, 4)]
        report = coefficient_classification(rules, n=6, t_block=30, blocks=3)
        numbers = [rec.rule.rule_number for rec in report.records]
        assert numbers[0] == 22
        cs = [rec.C for rec in report.records]
        assert cs == sorted(cs, reverse=True)
        assert report.clusters[0] >= report.clusters[-1]

    def test_csv_and_json_layout(self, tmp_path):
        """Each CSV row holds the fields of the JSON entry of its rank, the
        coefficient written with .12g."""
        assert main(["transition", "--rules", "22,0", "--n", "4",
                     "--t-block", "20", "--blocks", "3", "--top", "0",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "coefficients.csv").read_text().splitlines()
        assert lines[0] == "rule,kind,colors,coefficient,cluster"
        assert len(lines) == 3
        doc = json.loads((tmp_path / "coefficients.json").read_text())
        schema = json.loads(
            (SCHEMAS / "coefficients.schema.json").read_text()
        )
        jsonschema.validate(doc, schema)
        assert [line.split(",") for line in lines[1:]] == [
            [str(e["rule"]), e["kind"], str(e["colors"]),
             format(e["coefficient"], ".12g"), str(e["cluster"])]
            for e in doc["entries"]]

    def test_threaded_identical(self):
        rules = [RuleSpec.eca(n) for n in (22, 30, 0, 110)]
        a = coefficient_classification(rules, n=4, t_block=20, blocks=3,
                                       threads=4)
        b = coefficient_classification(rules, n=4, t_block=20, blocks=3)
        assert a == b
