import pickle
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccl import (CA, TM, RuleSpec, SpaceTimeDiagram, ca_complexity,
                 evolve_ca, initial_condition, rank_rules,
                 reached_states_sequence, state_sequence)
from ccl import automaton
from ccl.automaton import (_bits_to_cells, _centre_split, _evolve_bits,
                           _evolve_bytes, _first_visits, _run)
from oracles import (BLANK_TM, TmConfiguration, ca_step, mirror,
                     neighborhoods, tm_step)


def brute_evolve(rule_number, init, steps):
    """Independent reference evolution: direct digit lookup per cell, with
    the outside background following the image of the all-same neighborhood."""
    width = len(init) + 2 * (steps + 1)
    off = (width - len(init)) // 2
    row = [0] * width
    row[off : off + len(init)] = list(init)
    rows = [list(row)]
    bg = 0
    for _ in range(steps):
        padded = [bg] + row + [bg]
        row = [
            (rule_number >> (padded[i] * 4 + padded[i + 1] * 2 + padded[i + 2]))
            & 1
            for i in range(width)
        ]
        bg = (rule_number >> (7 if bg else 0)) & 1
        rows.append(list(row))
    return rows


class TestRuleSpec:
    def test_bounds(self):
        RuleSpec.eca(255)
        with pytest.raises(ValueError):
            RuleSpec.eca(256)
        with pytest.raises(ValueError):
            RuleSpec.eca(-1)
        with pytest.raises(ValueError):
            RuleSpec(CA, 1, 0)
        with pytest.raises(ValueError):
            RuleSpec(CA, 2, 0, states=2)

    def test_space_sizes(self):
        assert RuleSpec.eca(0).space_size == 256
        assert RuleSpec.ca(3, 0).space_size == 3 ** 27
        assert RuleSpec.tm(2, 3, 0).space_size == 12 ** 6

    def test_tm_bounds(self):
        RuleSpec.tm(2, 3, 12 ** 6 - 1)
        with pytest.raises(ValueError):
            RuleSpec.tm(2, 3, 12 ** 6)

    def test_tm_needs_a_state(self):
        with pytest.raises(ValueError, match="states must be >= 1"):
            RuleSpec.tm(0, 2, 0)

    @pytest.mark.parametrize("args, name", [
        ((CA, 2, 30.5), "rule_number"), ((TM, 2, 5.0, 2), "rule_number"),
        ((CA, 2.0, 30), "colors"), ((CA, 2, "30"), "rule_number"),
        ((TM, 2, 5, 2.0), "states"),
    ], ids=["float-rule", "float-tm-rule", "float-colors", "string-rule",
            "float-states"])
    def test_non_integer_fields_refused(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            RuleSpec(*args)

    def test_numpy_integer_rule_number_accepted(self):
        """Every integer field is stored as an int, so the space size is
        exact past 2**63 and a numpy field equals and hashes like an int."""
        for args, plain in [((CA, 2, np.int64(30)), (CA, 2, 30)),
                            ((CA, np.int64(2), 30), (CA, 2, 30)),
                            ((TM, 2, 5, np.int64(2)), (TM, 2, 5, 2))]:
            spec = RuleSpec(*args)
            assert spec == RuleSpec(*plain)
            assert hash(spec) == hash(RuleSpec(*plain))
            assert [type(v) for v in spec[1:]] == [int, int, int]
            assert spec.space_size == RuleSpec(*plain).space_size

    def test_every_construction_path_is_checked(self):
        spec = RuleSpec.eca(30)
        with pytest.raises(ValueError, match="outside the"):
            spec._replace(rule_number=256)
        with pytest.raises(ValueError, match="outside the"):
            RuleSpec._make([CA, 2, 256, 1])
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and type(copy) is RuleSpec

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([(CA, 2, 1), (CA, 3, 1), (CA, 4, 1), (TM, 2, 1),
                            (TM, 2, 2), (TM, 3, 2), (TM, 4, 3)]),
           st.integers(min_value=-3, max_value=3), st.booleans())
    def test_space_check_matches_the_size(self, shape, offset, near_size):
        """Around the size and around the power of two below it, where
        the check switches from the bit count to the size itself."""
        kind, colors, states = shape
        spec = RuleSpec(kind, colors, 0, states)
        size = spec.space_size
        n = size + offset if near_size else (
            1 << (size.bit_length() - 1)) + offset
        assert spec._space_exceeds(n) == (n < size)
        if 0 <= n < size:
            assert RuleSpec(kind, colors, n, states).rule_number == n
        else:
            with pytest.raises(ValueError, match="outside the"):
                RuleSpec(kind, colors, n, states)

    def test_huge_spaces_are_checked_without_their_size(self):
        """300**27000000 has 67 million digits; none of these builds it."""
        assert RuleSpec.ca(300, 5).rule_number == 5
        with pytest.raises(ValueError, match=r"outside the 300\*\*27000000-"):
            RuleSpec.ca(300, -1)
        assert RuleSpec.tm(10 ** 6, 2, 0)._space_exceeds(10 ** 5)


class TestCaStep:
    def test_rule_0_blanks_any_row(self):
        out = ca_step([1, 0, 1, 1, 0], RuleSpec.eca(0))
        assert list(out) == [0, 0, 0, 0, 0]

    def test_rule_204_is_identity(self):
        row = [0, 1, 1, 0, 1, 0, 0, 1]
        assert list(ca_step(row, RuleSpec.eca(204))) == row

    def test_rule_30_lights_the_three_neighborhoods(self):
        # 30 = 00011110 in binary: patterns 001, 010, 100 (and 011, 110)
        # map to 1, so the cells at and next to a lone 1 all turn on.
        assert list(ca_step([0, 0, 1, 0, 0], RuleSpec.eca(30))) == [
            0, 1, 1, 1, 0,
        ]

    def test_value_and_shape_errors(self):
        with pytest.raises(ValueError):
            ca_step([0, 2, 0], RuleSpec.eca(30))
        with pytest.raises(ValueError):
            ca_step([0, 1], RuleSpec.eca(30))
        with pytest.raises(ValueError):
            ca_step([0, 1, 0], RuleSpec.tm(2, 3, 5))

    def test_three_color_step(self):
        # rule number 2*3^idx maps exactly neighborhood idx to color 2.
        idx = 1 * 9 + 2 * 3 + 0  # neighborhood (1, 2, 0)
        rule = RuleSpec.ca(3, 2 * (3 ** idx))
        out = ca_step([0, 1, 2, 0, 0], rule)
        assert list(out) == [0, 0, 2, 0, 0]

    def test_nonzero_background_applies_at_edges(self):
        out = ca_step([0, 0, 0], RuleSpec.eca(4), background=1)
        # with 1s outside, the edge neighborhoods are 100 and 001; rule 4
        # keeps only 010 alive, so everything dies.
        assert list(out) == [0, 0, 0]
        out = ca_step([1, 0, 1], RuleSpec.eca(204), background=1)
        assert list(out) == [1, 0, 1]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_evolution_matches_iterated_steps(self, data):
        colors = data.draw(st.sampled_from([2, 3]))
        rule = RuleSpec.ca(colors, data.draw(
            st.integers(0, colors ** colors ** 3 - 1)))
        init = data.draw(st.lists(st.integers(0, colors - 1), min_size=1,
                                  max_size=6))
        steps = data.draw(st.integers(0, 25))
        d = evolve_ca(rule, init, steps)
        row, bg = d.cells[0], 0
        for j in range(1, steps + 1):
            row = ca_step(row, rule, bg)
            bg = int(ca_step([bg] * 3, rule, bg)[1])
            assert np.array_equal(d.cells[j], row), f"row {j}"


class TestCentreSplit:
    def test_split_reproduces_every_rule_table(self):
        # The bit kernel steps by g0 and g1, the rule's images of (l, r)
        # with the centre 0 and 1; on every ECA they must give the image
        # that the oracle's own digit lookup gives for each neighborhood.
        for number in range(256):
            rule, split = RuleSpec.eca(number), _centre_split(number)
            for l in (0, 1):
                for c in (0, 1):
                    for r in (0, 1):
                        want = int(ca_step([l, c, r], rule)[1])
                        assert split[c](l, r) & 1 == want, (number, l, c, r)


def byte_rows(rows):
    """Cell array of the byte-row kernel's rows."""
    return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), -1)


def oracle_diagram(rule, init, steps, width):
    """Rows 0..steps and their backgrounds, one ``ca_step`` at a time."""
    row = np.zeros(width, dtype=np.uint8)
    off = (width - len(init)) // 2
    row[off:off + len(init)] = init
    rows, bgs = [row], [0]
    for _ in range(steps):
        rows.append(ca_step(rows[-1], rule, bgs[-1]))
        bgs.append(int(ca_step([bgs[-1]] * 3, rule, bgs[-1])[1]))
    return np.array(rows), bgs


def first_repeat(rows, bgs):
    """The least j whose row equals an earlier row moved sideways on the
    same background, found by comparing the cells that differ from it."""
    def body(j):
        cells = np.flatnonzero(rows[j] != bgs[j])
        return bgs[j], tuple(cells - cells[:1].sum()), tuple(rows[j][cells])

    seen = set()
    for j in range(len(rows)):
        if body(j) in seen:
            return j
        seen.add(body(j))
    return None


def assert_kernels_match_oracle(rule, init, steps, width):
    want, _ = oracle_diagram(rule, init, steps, width)
    if rule.colors == 2:
        rows, _ = _evolve_bits(rule.rule_number, init, steps, width)
        got = _bits_to_cells(rows, width)
        assert np.array_equal(got, want)
    assert np.array_equal(byte_rows(_evolve_bytes(rule, init, steps, width)),
                          want)
    assert np.array_equal(evolve_ca(rule, init, steps, width).cells, want)


class TestShiftRepeatSkip:
    # Both kernels step every row; these diagrams are the ones a kernel
    # that copied rows after a shift-repeat would get wrong.  From one cell
    # these rules' patterns move (2 left, 24 and 184 right), die (8) or
    # blink with the background (1), each first repeating at the given step.
    # Rule 3 moves while the background blinks, so a moved row must be
    # filled with its own background.  Rule 7 blinks its way to the empty
    # row at step 2, so a key that took the one-cell row 0 for the empty
    # row would go wrong from step 3.
    NAMED = {2: 1, 24: 1, 184: 1, 8: 2, 1: 2, 3: 2, 7: 4}

    @pytest.mark.parametrize("number", list(NAMED))
    def test_named_rules_at_and_around_their_first_repeat(self, number):
        rule = RuleSpec.eca(number)
        rows, bgs = oracle_diagram(rule, (1,), 12, 27)
        first = first_repeat(rows, bgs)
        assert first == self.NAMED[number]
        # a repeat at the last row, one at the last step checked, and later
        for steps in range(max(first - 1, 0), first + 4):
            for extra in (0, 3):
                assert_kernels_match_oracle(rule, (1,), steps,
                                            2 * steps + 3 + extra)
        assert_kernels_match_oracle(rule, (1,), 30, 63)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_skipping_kernels_match_the_stepping_oracle(self, data):
        colors = data.draw(st.sampled_from([2, 3, 4, 7]), label="colors")
        number = data.draw(st.one_of(
            st.sampled_from(list(self.NAMED)) if colors == 2 else st.nothing(),
            st.integers(0, colors ** colors ** 3 - 1)), label="rule")
        init = data.draw(st.lists(st.integers(0, colors - 1), min_size=1,
                                  max_size=6), label="init")
        steps = data.draw(st.integers(0, 30), label="steps")
        width = len(init) + 2 * (steps + 1) + data.draw(st.integers(0, 3))
        assert_kernels_match_oracle(RuleSpec.ca(colors, number), init,
                                    steps, width)

    @pytest.mark.parametrize("colors", [2, 3, 7])
    def test_cells_are_read_only_for_every_color_class(self, colors):
        d = evolve_ca(RuleSpec.ca(colors, 1), (1,), 3)
        assert not d.cells.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            d.cells[0, 0] = 1


def eca_draw(data, steps_max=30):
    """An ECA drawn with its odd rules, whose background alternates, an
    initial condition, a runtime from 0 and a window wider than the least."""
    number = data.draw(st.one_of(st.integers(0, 255),
                                 st.integers(0, 127).map(lambda n: 2 * n + 1)),
                       label="rule")
    init = data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=6),
                     label="init")
    steps = data.draw(st.integers(0, steps_max), label="steps")
    width = len(init) + 2 * (steps + 1) + data.draw(st.integers(0, 3))
    return number, init, steps, width


class TestReadMask:
    # The bit kernel reports which of the eight neighborhoods its rows
    # 0..steps-1 read.  A rule that agrees with another on those images
    # evolves the same diagram, so the mask and the images on it key the
    # grid's memo.
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_reads_are_the_neighborhoods_the_oracle_steps_read(self, data):
        number, init, steps, width = eca_draw(data)
        rule = RuleSpec.eca(number)
        rows, bgs = oracle_diagram(rule, init, steps, width)
        want = set().union(*(neighborhoods(rows[j], rule, bgs[j])
                             for j in range(steps)))
        assert _evolve_bits(number, init, steps, width)[1] == sum(
            1 << p for p in want)
        assert evolve_ca(rule, init, steps, width)._reads == sum(
            1 << p for p in want)

    def test_no_step_reads_nothing_and_more_colors_report_no_mask(self):
        assert _evolve_bits(30, (1,), 0, 3)[1] == 0
        assert evolve_ca(RuleSpec.eca(30), (1,), 0)._reads == 0
        assert evolve_ca(RuleSpec.ca(3, 7), (1,), 5)._reads is None

    def test_mask_stays_out_of_equality_and_repr(self):
        d = evolve_ca(RuleSpec.eca(30), (1,), 5)
        bare = SpaceTimeDiagram(d.width, d.cells)
        assert d._reads == 255 and bare._reads is None
        assert bare == d and repr(bare) == repr(d)

    def test_width_must_match_the_cells(self):
        d = evolve_ca(RuleSpec.eca(30), (1,), 5)
        with pytest.raises(ValueError, match="of the stated width"):
            SpaceTimeDiagram(d.width + 1, d.cells)

    def test_a_diagram_equals_no_other_type(self):
        d = evolve_ca(RuleSpec.eca(30), (1,), 5)
        assert (d == 5) is False
        assert (d != evolve_ca(RuleSpec.eca(30), (1,), 5)) is False
        assert (d != evolve_ca(RuleSpec.eca(90), (1,), 5)) is True
        with pytest.raises(TypeError):
            d < d

    @pytest.mark.parametrize("init", [(1,), initial_condition(5)])
    def test_key_is_equal_exactly_when_the_diagrams_are(self, init):
        keys, diagrams = [], []
        for number in range(256):
            d = evolve_ca(RuleSpec.eca(number), init, 60)
            keys.append((d._reads, number & d._reads))
            diagrams.append(d.cells.tobytes())
        pairs = set(zip(keys, diagrams))
        assert len(set(keys)) == len(pairs) == len(set(diagrams))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_images_on_unread_neighborhoods_change_nothing(self, data):
        number, init, steps, width = eca_draw(data)
        d = evolve_ca(RuleSpec.eca(number), init, steps, width)
        flip = data.draw(st.integers(0, 255), label="flip") & ~d._reads
        other = evolve_ca(RuleSpec.eca(number ^ flip), init, steps, width)
        assert other == d and other._reads == d._reads


class TestMirrorSymmetry:
    # Left-right reflection is exact for every rule and initial condition:
    # the default window is centred, as width - len(init) is even.  It
    # shares no code with the stepping oracles or the golden lengths.
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_mirror_rule_evolves_the_reflected_diagram(self, data):
        colors = data.draw(st.integers(2, 7))
        rule = RuleSpec.ca(colors, data.draw(
            st.integers(0, colors ** colors ** 3 - 1)))
        init = data.draw(st.lists(st.integers(0, colors - 1), min_size=1,
                                  max_size=5))
        steps = data.draw(st.integers(0, 40))
        width = len(init) + 2 * (steps + 1)
        want = evolve_ca(rule, init, steps).cells[:, ::-1]
        image = mirror(rule)
        assert np.array_equal(evolve_ca(image, init[::-1], steps).cells, want)
        assert np.array_equal(
            byte_rows(_evolve_bytes(image, init[::-1], steps, width)), want)

    def test_mirror_is_an_involution_on_the_eca(self):
        images = [mirror(RuleSpec.eca(n)).rule_number for n in range(256)]
        assert [images[m] for m in images] == list(range(256))
        assert images[30] == 86 and images[110] == 124


class TestEvolveCa:
    def test_rule_0_single_cell(self):
        d = evolve_ca(RuleSpec.eca(0), (1,), 5)
        assert d.rows == 6 and d.width == 13
        assert d.cells[0].sum() == 1 and d.cells[0, 6] == 1
        assert not d.cells[1:].any()

    def test_rule_254_grows_one_cell_per_side(self):
        d = evolve_ca(RuleSpec.eca(254), (1,), 10)
        center = d.width // 2
        for j in range(11):
            row = d.cells[j]
            assert row.sum() == 2 * j + 1
            assert row[center - j : center + j + 1].all()

    def test_rule_90_is_pascal_triangle_mod_2(self):
        d = evolve_ca(RuleSpec.eca(90), (1,), 16)
        center = d.width // 2
        from math import comb

        for j in range(17):
            for i in range(-j, j + 1):
                want = comb(j, (i + j) // 2) % 2 if (i + j) % 2 == 0 else 0
                assert d.cells[j, center + i] == want

    def test_matches_independent_reference(self):
        for number in (30, 90, 110, 254, 255, 151, 73, 1):
            d = evolve_ca(RuleSpec.eca(number), (1, 0, 1), 20)
            assert d.cells.tolist() == brute_evolve(number, [1, 0, 1], 20)

    def test_fast_and_general_paths_agree_on_all_rules(self):
        # The byte-row kernel runs binary rules too, though evolve_ca gives
        # them to the bit kernel.  It shares no table or step with the bit
        # kernel, so it is the bit kernel's reference on every ECA, from one
        # cell and from multi-cell patterns, in the minimum window and in
        # one 3 cells wider.
        digits = bytes.maketrans(b"\0\1", b"01")
        for init in ((1,), (1, 0, 1, 1), initial_condition(5)):
            for width in (len(init) + 102, len(init) + 105):
                for number in range(256):
                    bits, _ = _evolve_bits(number, init, 50, width)
                    rows = _evolve_bytes(RuleSpec.eca(number), init, 50,
                                         width)
                    want = [int(row[::-1].translate(digits), 2)
                            for row in rows]
                    assert bits == want, f"rule {number}, {init}, {width}"

    def test_light_cone(self):
        base = [0] * 9
        poked = list(base)
        poked[4] = 1
        a = evolve_ca(RuleSpec.eca(110), base, 8)
        b = evolve_ca(RuleSpec.eca(110), poked, 8)
        off = (a.width - 9) // 2
        for j in range(9):
            diff = np.flatnonzero(a.cells[j] != b.cells[j])
            if diff.size:
                assert diff.min() >= off + 4 - j
                assert diff.max() <= off + 4 + j

    def test_deterministic(self):
        a = evolve_ca(RuleSpec.eca(45), (1,), 40)
        b = evolve_ca(RuleSpec.eca(45), (1,), 40)
        assert a == b

    def test_wider_window_only_pads(self):
        for number in (30, 151):
            narrow = evolve_ca(RuleSpec.eca(number), (1,), 12)
            wide = evolve_ca(RuleSpec.eca(number), (1,), 12,
                             width=narrow.width + 8)
            assert np.array_equal(wide.cells[:, 4:-4], narrow.cells)

    def test_tm_rule_rejected(self):
        with pytest.raises(ValueError, match="needs a CA rule"):
            evolve_ca(RuleSpec.tm(2, 2, 0), (1,), 5)

    def test_width_below_light_cone_rejected(self):
        with pytest.raises(ValueError):
            evolve_ca(RuleSpec.eca(30), (1,), 10, width=10)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            evolve_ca(RuleSpec.eca(30), (1,), -1)
        with pytest.raises(ValueError):
            evolve_ca(RuleSpec.eca(30), (), 5)
        with pytest.raises(ValueError):
            evolve_ca(RuleSpec.eca(30), (2,), 5)

    # Every path that evolves a CA from a caller's initial condition.
    MEASURES = {
        "evolve_ca": lambda init: evolve_ca(RuleSpec.eca(30), init, 5),
        "rank_rules": lambda init: rank_rules([RuleSpec.eca(30)], init, 5),
        "ca_complexity": lambda init: ca_complexity(RuleSpec.eca(30), init,
                                                    5),
    }

    @pytest.mark.parametrize("cell", [1.7, "1", 1.9])
    @pytest.mark.parametrize("measure", list(MEASURES))
    def test_non_integer_cells_rejected(self, measure, cell):
        with pytest.raises(ValueError, match="must be integers"):
            self.MEASURES[measure]((cell,))

    @pytest.mark.parametrize("cell", [1.0, np.uint8(1)],
                             ids=["float", "uint8"])
    @pytest.mark.parametrize("measure", list(MEASURES))
    def test_integer_valued_cells_count_as_integers(self, measure, cell):
        got = self.MEASURES[measure]((cell,))
        assert got == self.MEASURES[measure]((1,))

    @pytest.mark.parametrize("colors", [257, 300])
    def test_more_than_256_colors_rejected(self, colors):
        # cells are bytes, so a digit of 256 or more has no cell value
        with pytest.raises(ValueError,
                           match="evolve_ca supports at most 256 colors"):
            evolve_ca(RuleSpec.ca(colors, colors - 1), (1,), 3)

    def test_256_colors_evolve_digit_255(self):
        # only the all-0 neighborhood maps to 255, and it turns the
        # background to 255, whose own neighborhood maps back to 0
        d = evolve_ca(RuleSpec.ca(256, 255), (1,), 2)
        assert d.cells.tolist() == [[0, 0, 0, 1, 0, 0, 0],
                                    [255, 255, 0, 0, 0, 255, 255],
                                    [0, 0, 0, 255, 0, 0, 0]]


def tm_rule_from_digits(digits, states=2, colors=3):
    """Build a rule number from per-(state,color) action digits, most
    significant digit first."""
    base = 2 * states * colors
    number = 0
    for d in digits:
        number = number * base + d
    return RuleSpec.tm(states, colors, number)


def action(new_state, write, move, colors=3):
    """Encode one action digit; move is +1 (right) or -1 (left)."""
    return new_state * 2 * colors + write * 2 + (0 if move == 1 else 1)


class TestTuringMachine:
    def test_rule_zero_walks_right_forever(self):
        # every digit 0 decodes as: stay in state 0, write 0, move right.
        rule = RuleSpec.tm(2, 3, 0)
        cfg = TmConfiguration({}, 0, 0)
        for step in range(1, 6):
            cfg = tm_step(cfg, rule)
            assert (cfg.head, cfg.state) == (step, 0)
        assert cfg.tape == {}

    def test_step_is_pure(self):
        rule = tm_rule_from_digits([action(1, 2, -1)] + [0] * 5)
        cfg = TmConfiguration({}, 0, 0)
        out = tm_step(cfg, rule)
        assert cfg == TmConfiguration({}, 0, 0)
        assert out == TmConfiguration({0: 2}, -1, 1)

    def test_decoded_actions_drive_the_tape(self):
        # state 0 on blank: write 1, go right, switch to state 1;
        # state 1 on blank: write 2, go left, stay in state 1.
        digits = [0] * 6
        digits[0] = action(1, 1, +1)
        digits[3] = action(1, 2, -1)
        rule = tm_rule_from_digits(digits)
        cfg = TmConfiguration({}, 0, 0)
        cfg = tm_step(cfg, rule)
        assert cfg == TmConfiguration({0: 1}, 1, 1)
        cfg = tm_step(cfg, rule)
        assert cfg == TmConfiguration({0: 1, 1: 2}, 0, 1)

    def test_zero_steps_sequence(self):
        assert reached_states_sequence(RuleSpec.tm(2, 3, 12345), 0) == [1]

    def test_reached_refuses_a_ca_rule_and_negative_steps(self):
        with pytest.raises(ValueError, match="expected a TM rule"):
            reached_states_sequence(RuleSpec.eca(30), 5)
        with pytest.raises(ValueError, match="steps must be >= 0"):
            reached_states_sequence(RuleSpec.tm(2, 3, 0), -1)

    def test_never_switching_machine_reaches_one_state(self):
        assert reached_states_sequence(RuleSpec.tm(2, 3, 0), 20) == [1] * 21

    def test_switch_once_machine(self):
        # state 0 jumps to state 1 on the first step; state 1 loops on
        # itself whatever it reads.
        stay = action(1, 0, +1)
        digits = [action(1, 1, +1), 0, 0, stay, stay, stay]
        rule = tm_rule_from_digits(digits)
        assert reached_states_sequence(rule, 6) == [1, 2, 2, 2, 2, 2, 2]
        assert state_sequence(rule, 4) == [0, 1, 1, 1, 1]

    def test_ping_pong_machine_alternates_states(self):
        digits = [action(1, 0, +1), 0, 0, action(0, 0, +1), 0, 0]
        rule = tm_rule_from_digits(digits)
        assert state_sequence(rule, 5) == [0, 1, 0, 1, 0, 1]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=12 ** 6 - 1))
    def test_reach_counts_monotone_and_bounded(self, number):
        seq = reached_states_sequence(RuleSpec.tm(2, 3, number), 60)
        assert len(seq) == 61
        assert seq[0] == 1
        assert all(1 <= v <= 2 for v in seq)
        assert all(a <= b for a, b in zip(seq, seq[1:]))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_runners_match_the_stepping_oracle(self, data):
        states = data.draw(st.integers(min_value=1, max_value=4))
        colors = data.draw(st.integers(min_value=2, max_value=4))
        space = (2 * states * colors) ** (states * colors)
        rule = RuleSpec.tm(states, colors,
                           data.draw(st.integers(0, space - 1)))
        steps = data.draw(st.integers(min_value=0, max_value=120))
        check_against_oracle(rule, steps)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_first_visits_match_the_stepping_oracle(self, data):
        # The search reads machines by number, without a RuleSpec.
        states = data.draw(st.integers(min_value=1, max_value=4))
        colors = data.draw(st.integers(min_value=2, max_value=3))
        space = (2 * states * colors) ** (states * colors)
        number = data.draw(st.integers(0, space - 1))
        steps = data.draw(st.integers(min_value=0, max_value=120))
        firsts = {}
        for step, state in enumerate(
                oracle_states(RuleSpec.tm(states, colors, number), steps)):
            firsts.setdefault(state, step)
        assert _first_visits(states, colors, number, steps) == tuple(
            firsts.values())


def oracle_states(rule, steps):
    """The state at each step 0..steps, by the stepping oracle."""
    cfg, visited = BLANK_TM, [BLANK_TM.state]
    for _ in range(steps):
        cfg = tm_step(cfg, rule)
        visited.append(cfg.state)
    return visited


def run(rule):
    """The lazy runner of ``rule``'s machine."""
    return _run(rule.states, rule.colors, rule.rule_number)


def check_against_oracle(rule, steps):
    visited = oracle_states(rule, steps)
    assert state_sequence(rule, steps) == visited
    assert reached_states_sequence(rule, steps) == [
        len(set(visited[: j + 1])) for j in range(steps + 1)
    ]


class TestLazyRunner:
    """``_run`` ends once the state can never change again; the public
    sequences read its end as "stays in the last state"."""

    @pytest.mark.parametrize("move", [+1, -1])
    def test_stuck_at_step_zero(self, move):
        # (state 0, blank) keeps state 0, so each step meets a fresh cell;
        # every other entry would switch to state 1.
        rule = tm_rule_from_digits([action(0, 2, move)]
                                   + [action(1, 1, -move)] * 5)
        assert list(islice(run(rule), 100)) == [0]
        check_against_oracle(rule, 60)

    def test_stuck_later_on_the_left_edge(self):
        # Step 0 goes right into state 1; state 1 then walks left over the
        # visited cells 1 and 0 and ends on the fresh cell -1, whose
        # (state 1, blank) entry keeps state 1 and moves further left.
        digits = [action(0, 0, +1)] * 6
        digits[0] = action(1, 1, +1)
        digits[3] = action(1, 1, -1)
        digits[4] = action(1, 1, -1)
        rule = tm_rule_from_digits(digits)
        assert list(islice(run(rule), 100)) == [0, 1, 1, 1]
        check_against_oracle(rule, 60)

    def test_fresh_cell_entry_moving_inward_does_not_stop(self):
        # At step 1 the head is on the fresh cell 1 and (state 1, blank)
        # keeps state 1, but moves back onto cell 0, where state 1 reads
        # the 1 written at step 0 and switches back to state 0.
        digits = [action(1, 0, +1)] * 6
        digits[0] = action(1, 1, +1)
        digits[3] = action(1, 0, -1)
        digits[4] = action(0, 1, +1)
        rule = tm_rule_from_digits(digits)
        assert state_sequence(rule, 6) == [0, 1, 1, 0, 1, 1, 0]
        assert len(list(islice(run(rule), 100))) == 100
        check_against_oracle(rule, 60)

    def test_reached_stops_reading_once_every_state_occurred(
            self, monkeypatch):
        # Ping-pong: both states occur by step 1, and the raw state keeps
        # changing at every step after that.
        rule = tm_rule_from_digits(
            [action(1, 0, +1), 0, 0, action(0, 0, +1), 0, 0])
        assert state_sequence(rule, 50) == [0, 1] * 25 + [0]
        read, original = [], automaton._run

        def counting(*machine):
            for state in original(*machine):
                read.append(state)
                yield state

        monkeypatch.setattr(automaton, "_run", counting)
        assert reached_states_sequence(rule, 50) == [1] + [2] * 50
        assert read == [0, 1]


def format_bits_to_cells(rows, width):
    """Reference unpacking: one binary string per row, least significant
    bit first."""
    return np.array(
        [[int(ch) for ch in format(x, f"0{width}b")[::-1]] for x in rows],
        dtype=np.uint8,
    ).reshape(len(rows), width)


class TestBitsToCells:
    @pytest.mark.parametrize("width", [1, 7, 8, 9, 63, 64, 65, 403])
    def test_matches_format_reference(self, width):
        rng = np.random.default_rng(width)
        full = (1 << width) - 1
        rows = [0, full, 1, 1 << (width - 1)] + [
            int.from_bytes(rng.bytes((width + 7) // 8), "little") & full
            for _ in range(20)
        ]
        got = _bits_to_cells(rows, width)
        assert got.dtype == np.uint8
        assert np.array_equal(got, format_bits_to_cells(rows, width))

    def test_evolution_rows_match_format_reference(self):
        rows, _ = _evolve_bits(110, (1, 0, 1, 1), 60, 131)
        assert np.array_equal(_bits_to_cells(rows, 131),
                              format_bits_to_cells(rows, 131))
