import json
import multiprocessing
import random
import zlib
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccl.complexity
from ccl import automaton
from ccl import (COMPRESSOR, RuleSpec, SpaceTimeDiagram, ca_complexity,
                 compressed_length, deflate, encode_diagram,
                 encode_sequence, evolve_ca, prefix_compressed_lengths,
                 state_sequence, tm_complexity)
from ccl.automaton import TM, _first_visits
from ccl.classify import sample_rule_space
from ccl.cli import main
from ccl.complexity import _grid, _tm_search
from rfc1951 import inflate
from test_automaton import action, oracle_states, tm_rule_from_digits


def raw_deflate(data, level):
    """A raw DEFLATE stream of ``data`` at another ``level`` than the pin."""
    co = zlib.compressobj(level, zlib.DEFLATED, -15)
    return co.compress(data) + co.flush()


def diagram(rows):
    arr = np.array(rows, dtype=np.uint8)
    return SpaceTimeDiagram(arr.shape[1], arr)


class TestEncoding:
    def test_single_row(self):
        assert encode_diagram(diagram([[0, 1, 0]])) == b"010\n"

    def test_two_by_two_zero(self):
        assert encode_diagram(diagram([[0, 0], [0, 0]])) == b"00\n00\n"

    def test_split_on_newline_recovers_rows(self):
        d = evolve_ca(RuleSpec.eca(30), (1,), 12)
        enc = encode_diagram(d)
        rows = enc.decode().split("\n")[:-1]
        assert len(rows) == d.rows
        got = [[int(ch) for ch in row] for row in rows]
        assert got == d.cells.tolist()

    def test_values_above_nine_rejected(self):
        with pytest.raises(ValueError):
            encode_diagram(diagram([[0, 10]]))
        with pytest.raises(ValueError):
            encode_sequence([1, 12])

    def test_sequence_form(self):
        assert encode_sequence([1, 2, 2]) == b"122\n"

    def test_sequence_from_numpy_matches_the_list(self):
        # bytes() of the array itself would read its 8-byte int64 buffer.
        values = [0, 3, 9, 1]
        got = encode_sequence(np.array(values, dtype=np.int64))
        assert got == encode_sequence(values) == b"0391\n"

    @pytest.mark.parametrize("bad", [10, -1, 256, 1.0, "1", None])
    def test_sequence_values_outside_digits_rejected(self, bad):
        with pytest.raises(ValueError, match=r"^canonical encoding supports "
                           r"values 0\.\.9 only$"):
            encode_sequence([1, bad, 2])

    def test_empty_sequence_is_one_newline(self):
        assert encode_sequence([]) == b"\n"


class TestCompressedLength:
    def test_empty_input_is_small_constant(self):
        assert 1 <= compressed_length(b"") <= 8

    def test_constant_input_collapses(self):
        assert compressed_length(b"0" * 10000) < 100

    def test_random_input_stays_incompressible(self):
        data = random.Random(1234).randbytes(10000)
        assert compressed_length(data) > 9000

    def test_stable_across_repeated_calls(self):
        data = encode_diagram(evolve_ca(RuleSpec.eca(110), (1,), 60))
        lengths = {compressed_length(data) for _ in range(100)}
        assert len(lengths) == 1

    def test_subadditive_on_doubling(self):
        rng = random.Random(5)
        for data in (
            b"article " * 250,
            rng.randbytes(1500),
            encode_diagram(evolve_ca(RuleSpec.eca(90), (1,), 40)),
        ):
            assert len(data) >= 1000
            assert (
                compressed_length(data + data)
                < 2 * compressed_length(data) + 64
            )

    def test_round_trips_through_independent_decoder(self):
        rng = random.Random(99)
        streams = [
            b"",
            b"0" * 10000,
            rng.randbytes(10000),
            encode_diagram(evolve_ca(RuleSpec.eca(30), (1,), 80)),
            encode_diagram(evolve_ca(RuleSpec.eca(110), (1,), 80)),
            encode_diagram(evolve_ca(RuleSpec.eca(151), (1,), 40)),
        ]
        for data in streams:
            assert inflate(deflate(data)) == data
            for level in (1, 9):
                assert inflate(raw_deflate(data, level)) == data


# Random bytes, and highly repetitive ones: a short random unit repeated
# (long matches reaching back across chunk boundaries), some up to ~80 KiB so
# that ends fall past the 32 KiB window.
_byte_strings = st.one_of(
    st.binary(max_size=4000),
    st.builds(lambda unit, reps: unit * reps,
              st.binary(min_size=1, max_size=24),
              st.integers(min_value=0, max_value=4000)),
)


@st.composite
def _data_and_ends(draw):
    data = draw(_byte_strings)
    top = len(data) + 50  # ends may run past the data, as slices allow
    ends = draw(st.lists(st.integers(min_value=0, max_value=top),
                         max_size=8))
    return data, sorted(ends)


class TestPrefixCompressedLengths:
    @settings(max_examples=150, deadline=None)
    @given(_data_and_ends())
    def test_equals_one_shot_compression_of_each_prefix(self, case):
        data, ends = case
        assert prefix_compressed_lengths(data, ends) == [
            compressed_length(data[:e]) for e in ends
        ]
        # One end at the end of the data flushes the stream itself.
        assert prefix_compressed_lengths(data, [len(data)]) == [
            compressed_length(data)]

    def test_edge_cases(self):
        rng = random.Random(7)
        cases = [
            (b"", [0, 0, 5]),
            (b"abc", []),
            (b"abcabc" * 10, [0, 0, 6, 6, 60]),
            (rng.randbytes(100000), [0, 1, 32767, 32768, 32769, 65536,
                                     99999, 100000]),
            (b"0123456789\n" * 20000, [0, 32768, 70001, 150000, 220000]),
        ]
        for data, ends in cases:
            assert prefix_compressed_lengths(data, ends) == [
                compressed_length(data[:e]) for e in ends
            ]

    def test_block_prefixes_of_an_evolution(self):
        width, t_block, blocks = 203, 25, 4
        data = encode_diagram(
            evolve_ca(RuleSpec.eca(30), (1,), t_block * blocks, width=width)
        )
        ends = [(width + 1) * (b * t_block + 1) for b in range(1, blocks + 1)]
        assert ends[-1] == len(data)
        assert prefix_compressed_lengths(bytearray(data), ends) == [
            compressed_length(data[:e]) for e in ends
        ]

    def test_non_ascending_ends_rejected(self):
        with pytest.raises(ValueError):
            prefix_compressed_lengths(b"abcdef", [4, 2])
        with pytest.raises(ValueError):
            prefix_compressed_lengths(b"abcdef", [-1])


@st.composite
def _grid_case(draw):
    colors = draw(st.integers(min_value=2, max_value=3))
    rules = draw(st.lists(
        st.integers(min_value=0, max_value=colors ** colors ** 3 - 1),
        min_size=1, max_size=3, unique=True))
    ics = draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=colors - 1),
                 min_size=1, max_size=5).map(tuple),
        min_size=1, max_size=4))
    t_block = draw(st.integers(min_value=1, max_value=12))
    blocks = draw(st.integers(min_value=1, max_value=3))
    return [RuleSpec.ca(colors, r) for r in rules], ics, t_block, blocks


class TestGrid:
    @settings(max_examples=40, deadline=None)
    @given(_grid_case())
    def test_every_cell_is_its_own_evolution_compressed(self, case):
        rules, ics, t_block, blocks = case
        w = max(len(ic) for ic in ics) + 2 * (t_block * blocks + 1)
        want = [[[compressed_length(encode_diagram(
                     evolve_ca(rule, ic, b * t_block, width=w)))
                  for b in range(1, blocks + 1)] for ic in ics]
                for rule in rules]
        for threads in (1, 2):
            assert _grid(rules, ics, t_block, blocks, threads) == want

    def test_refuses_eleven_colors_before_evolving_any_rule(self,
                                                            monkeypatch):
        def evolve(*args, **kwargs):
            raise AssertionError("evolved before the color check")

        monkeypatch.setattr("ccl.complexity.evolve_ca", evolve)
        with pytest.raises(ValueError, match="at most 10 colors"):
            _grid([RuleSpec.eca(30), RuleSpec.ca(11, 0)], [(1,)], 5, 1)


    def test_each_distinct_binary_diagram_is_evolved_once(self,
                                                          evolutions):
        # From one cell, the 256 ECA draw 143 distinct diagrams at t=200.
        # In descending order the first rule of a class is not its least.
        rules = [RuleSpec.eca(n) for n in range(256)]
        tables = _grid(rules, [(1,)], 200, 1)
        assert len(evolutions) == 143
        assert _grid(rules[::-1], [(1,)], 200, 1) == tables[::-1]
        assert len(evolutions) == 286
        assert tables == [[[ca_complexity(r, (1,), 200).compressed_length]]
                          for r in rules]


# Three 2-color rules and one 3-color rule, two conditions, three blocks.
POOL_CASE = ([RuleSpec.eca(n) for n in (30, 90, 110)]
             + [RuleSpec.ca(3, 7_000_000_000)], [(1,), (1, 0, 1)], 10, 3)


class TestGridPool:
    def test_pool_gives_the_serial_tables(self, pool_path):
        serial = _grid(*POOL_CASE, 1)
        assert pool_path == []
        assert _grid(*POOL_CASE, 2) == serial
        assert pool_path == ["fork"]
        assert multiprocessing.active_children() == []

    # Every rule here but 30 dies from one cell, and maps 000, 001, 010 and
    # 100 to 0: eight of the nine cells form one group, which a worker
    # measures once and looks up seven times.
    def test_pooled_memo_gives_the_serial_tables(self, pool_path):
        rules = [RuleSpec.eca(n) for n in (0, 8, 32, 40, 30, 128, 136, 160,
                                           168)]
        serial = _grid(rules, [(1,)], 10, 3, 1)
        assert len({str(table) for table in serial}) == 2
        assert _grid(rules, [(1,)], 10, 3, 2) == serial
        assert pool_path == ["fork"]

    # At 2 workers Pool.map cuts its items into chunks of ceil(n / 8), and
    # each chunk gets its own pickled copy of the mapped function, so state
    # carried in that function would split by chunk.  The 256 ECA from one
    # cell make 16 groups of 16 rules, one per image of 000, 001, 010 and
    # 100.
    def test_chunked_pool_evolves_what_the_serial_grid_does(
            self, chunked_pools, evolutions):
        rules = [RuleSpec.eca(n) for n in range(256)]
        tables = _grid(rules, [(1,)], 200, 1, 2)
        assert chunked_pools == [2]
        assert len(evolutions) == 143
        assert tables == _grid(rules, [(1,)], 200, 1, 1)
        rules, ics = rules[::3], [(1,), (1, 1), (1, 0, 1), (1, 1, 0, 1)]
        del evolutions[:]
        serial = _grid(rules, ics, 15, 2, 1)
        count = len(evolutions)
        assert _grid(rules, ics, 15, 2, 2) == serial
        assert len(evolutions) == 2 * count
        assert chunked_pools == [2, 2]

    @pytest.mark.parametrize("error", [ValueError, OSError])
    def test_serial_where_no_pool_starts(self, pool_path, monkeypatch,
                                         error):
        serial = _grid(*POOL_CASE, 1)

        def unavailable(method):
            raise error(f"no {method} here")

        monkeypatch.setattr("multiprocessing.get_context", unavailable)
        assert _grid(*POOL_CASE, 2) == serial

    # A one-cell condition run for 10 steps encodes (23 + 1) * 11 bytes, so
    # this grid encodes 528: however small, it takes the workers asked for.
    def test_two_cell_grid_takes_the_workers_asked_for(self, monkeypatch,
                                                       recorded_pools):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        rules = [RuleSpec.eca(30), RuleSpec.eca(90)]
        assert _grid(rules, [(1,)], 10, 1, 2) == _grid(rules, [(1,)], 10, 1)
        assert recorded_pools == [2]


class TestCaComplexity:
    def test_raw_length_formula(self):
        for steps in (0, 1, 7, 31):
            est = ca_complexity(RuleSpec.eca(30), (1,), steps)
            width = 1 + 2 * (steps + 1)
            assert est.raw_length == (width + 1) * (steps + 1)
            assert est.ratio == Fraction(est.compressed_length,
                                         est.raw_length)

    def test_raw_length_growth_is_exactly_the_window_widening(self):
        # raw bytes = (width + 1) * (t + 1) with width = |init| + 2(t + 1),
        # so the second difference in t is the constant 4.
        lengths = [
            ca_complexity(RuleSpec.eca(30), (1, 1), t).raw_length
            for t in range(1, 6)
        ]
        second_diffs = {
            lengths[i + 2] - 2 * lengths[i + 1] + lengths[i]
            for i in range(3)
        }
        assert second_diffs == {4}

    def test_dead_rule_near_constant_baseline(self):
        est = ca_complexity(RuleSpec.eca(0), (1,), 200)
        blank = diagram(np.zeros((201, 403), dtype=np.uint8))
        baseline = compressed_length(encode_diagram(blank))
        assert baseline / 2 <= est.compressed_length <= baseline * 2

    def test_ordering_trivial_nested_chaotic(self):
        c = {
            n: ca_complexity(RuleSpec.eca(n), (1,), 100).compressed_length
            for n in (0, 90, 30)
        }
        assert c[0] < c[90] < c[30]

    def test_chaotic_rule_grows_flat_rule_does_not(self):
        def curve(number):
            return [
                ca_complexity(RuleSpec.eca(number), (1,), t).compressed_length
                for t in (25, 50, 75, 100)
            ]

        chaotic = curve(30)
        flat = curve(95)
        assert all(a < b for a, b in zip(chaotic, chaotic[1:]))
        assert chaotic[-1] - chaotic[0] > 3 * (flat[-1] - flat[0])


def counter_machine(states):
    """A 2-color machine whose every entry goes to state q+1 mod
    ``states``, writes 0 and moves right."""
    return tm_rule_from_digits(
        [action((q + 1) % states, 0, +1, colors=2)
         for q in range(states) for _ in range(2)],
        states=states, colors=2)


class TestTmComplexity:
    def test_never_switching_machine_equals_constant_sequence(self):
        est = tm_complexity(RuleSpec.tm(2, 3, 0), 120)
        want = compressed_length(encode_sequence([1] * 121))
        assert est.compressed_length == want

    def test_zero_steps(self):
        est = tm_complexity(RuleSpec.tm(2, 3, 0), 0)
        assert est.raw_length == 2  # one value plus the row terminator

    def test_busiest_state_user_compresses_worst(self):
        still = RuleSpec.tm(2, 3, 0)
        once = tm_rule_from_digits(
            [action(1, 1, +1), 0, 0, action(1, 0, +1), action(1, 0, +1),
             action(1, 0, +1)]
        )
        pingpong = tm_rule_from_digits(
            [action(1, 0, +1), 0, 0, action(0, 0, +1), 0, 0]
        )
        t = 200
        by_changes = [
            compressed_length(encode_sequence(state_sequence(rule, t)))
            for rule in (still, once, pingpong)
        ]
        assert by_changes[2] == max(by_changes)
        assert tm_complexity(once, t).compressed_length >= tm_complexity(
            still, t
        ).compressed_length

    def test_refuses_more_states_than_digits_before_running(
            self, monkeypatch):
        def run(*machine):
            raise AssertionError("the machine was run")

        monkeypatch.setattr(automaton, "_run", run)
        for rule in (RuleSpec.tm(10, 2, 0), counter_machine(10)):
            with pytest.raises(ValueError, match="takes at most 9 states"):
                tm_complexity(rule, 200)

    def test_ten_states_fit_the_raw_state_measure(self):
        got = encode_sequence(state_sequence(counter_machine(10), 200))
        want = encode_sequence([j % 10 for j in range(201)])
        assert compressed_length(got) == compressed_length(want)


def oracle_reached(rule, steps):
    """The reached sequence of ``rule``, by the stepping oracle."""
    visited = oracle_states(rule, steps)
    return [len(set(visited[: j + 1])) for j in range(steps + 1)]


def searched(states, colors, numbers, steps, top):
    """``_tm_search`` of ``numbers`` and the machines it passed to
    ``tm_complexity``, in call order."""
    measured = []

    def recording(rule, steps):
        measured.append(rule)
        return tm_complexity(rule, steps)

    with mock.patch.object(ccl.complexity, "tm_complexity", recording):
        got = _tm_search(states, colors, numbers, steps, top)
    return got, measured


def ranked_one_by_one(states, colors, numbers, steps, top):
    """The search's rows from one ``tm_complexity`` call per machine,
    ranked by (-compressed length, number)."""
    rows = []
    for n in numbers:
        est = tm_complexity(RuleSpec.tm(states, colors, n), steps)
        rows.append((-est.compressed_length, n, est.raw_length))
    return sorted(rows)[:top]


@st.composite
def tm_searches(draw):
    """One shape of 1-4 states and 2-3 colors, and a few of its machine
    numbers, drawn with repeats."""
    states, colors = draw(st.integers(1, 4)), draw(st.integers(2, 3))
    space = (2 * states * colors) ** (states * colors)
    pool = draw(st.lists(st.integers(0, space - 1), min_size=1, max_size=6))
    numbers = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    return states, colors, numbers


class TestTmComplexities:
    """The search's measure of one machine shape: one ``tm_complexity``
    call per distinct first-visit key, and the same top rows as one call
    per machine."""

    @settings(max_examples=150, deadline=None)
    @given(tm_searches(), st.integers(0, 60), st.integers(1, 14))
    def test_matches_one_measurement_per_machine(self, search, steps, top):
        states, colors, numbers = search
        got, measured = searched(states, colors, numbers, steps, top)
        assert got == ranked_one_by_one(states, colors, numbers, steps, top)
        seqs = {n: tuple(oracle_reached(RuleSpec.tm(states, colors, n), steps))
                for n in numbers}
        data = {n: encode_sequence(seq) for n, seq in seqs.items()}
        assert got == sorted((-compressed_length(data[n]), n, len(data[n]))
                             for n in numbers)[:top]
        # Each key is measured exactly once, on a machine of the shape.
        keys = [seqs[r.rule_number] for r in measured]
        assert len(keys) == len(set(keys)) and set(keys) == set(seqs.values())
        assert {(r.states, r.colors) for r in measured} == {(states, colors)}

    def test_each_distinct_reached_sequence_is_measured(self):
        # First visits (0, 1, 2, 5) and (0, 1, 3, 5): the same last first
        # visit and the same estimate, but two sequences.
        a, b = 2167757907, 3874956827
        assert _first_visits(4, 2, a, 10) == (0, 1, 2, 5)
        assert _first_visits(4, 2, b, 10) == (0, 1, 3, 5)
        assert tm_complexity(RuleSpec.tm(4, 2, a), 10) == tm_complexity(
            RuleSpec.tm(4, 2, b), 10)
        got, measured = searched(4, 2, [a, b, a], 10, 3)
        assert measured == [RuleSpec.tm(4, 2, a), RuleSpec.tm(4, 2, b)]
        assert got == ranked_one_by_one(4, 2, [a, b, a], 10, 3)

    def test_memo_lives_for_one_call(self):
        numbers = [0, counter_machine(2).rule_number, 0]
        for steps in (10, 20, 10):
            got, measured = searched(2, 2, numbers, steps, 3)
            assert got == ranked_one_by_one(2, 2, numbers, steps, 3)
            assert measured == [RuleSpec.tm(2, 2, n) for n in numbers[:2]]

    def test_each_distinct_run_is_run_once(self, monkeypatch):
        # The benchmark's 10,000 machines, as `ccl sample` draws them for
        # seed 0: every run reads the leading digit (action 0) first, and
        # one run per value of it fixes every other machine's first visits.
        numbers = sample_rule_space(TM, 3, 2, 10000, 0)
        runs, original = [], automaton._run

        def counting(*machine, **kwargs):
            runs.append(machine[2])
            return original(*machine, **kwargs)

        monkeypatch.setattr(automaton, "_run", counting)
        got, measured = searched(2, 3, numbers, 200, 20)
        # Measuring each of the two distinct first visits runs one more.
        assert len(measured) == 2 and len(runs) <= 12 + len(measured)
        assert got == ranked_one_by_one(2, 3, numbers, 200, 20)

    @pytest.mark.parametrize("steps", [0, 1, 2, 5, 50])
    @pytest.mark.parametrize("states", [1, 2], ids=["no-digit", "2x2"])
    def test_whole_space_matches_one_measurement_per_machine(self, states,
                                                             steps):
        # One state, or steps = 0, reads no digit: such runs leave the
        # tree empty and every machine is run.
        space = range(RuleSpec.tm(states, 2, 0).space_size)
        assert _tm_search(states, 2, space, steps, len(space)) == (
            ranked_one_by_one(states, 2, space, steps, len(space)))

    @pytest.mark.parametrize("states, steps, message", [
        (10, 200, "the reached measure takes at most 9 states"),
        (2, -1, "steps must be >= 0")])
    @pytest.mark.parametrize("top", [0, 20])
    def test_refused_whole_before_its_first_run(self, monkeypatch, states,
                                                steps, message, top):
        def run(*machine):
            raise AssertionError("the machine was run")

        monkeypatch.setattr(automaton, "_run", run)
        with pytest.raises(ValueError, match=message):
            _tm_search(states, 2, [0, 1, 2], steps, top)

    def test_seeded_sample_ranks_across_lengths(self, tmp_path):
        # The top 20 of this sample span compressed lengths 11-13, so the
        # rows are ranked by length, not only by rule number.  The machines
        # are those that `ccl sample` draws for the same seed.
        shape = ["--states", "4", "--colors", "2", "--sample-size", "2000",
                 "--seed", "0", "--out", str(tmp_path)]
        assert main(["sample", "--kind", "TM", *shape]) == 0
        assert main(["tm-search", *shape]) == 0
        numbers = json.loads((tmp_path / "rules.json").read_text())["rules"]
        top = ranked_one_by_one(4, 2, numbers, 200, 20)
        assert {-c for c, _, _ in top} == {11, 12, 13}
        assert (tmp_path / "tm_top.csv").read_text().splitlines() == [
            "rule,states,colors,c_raw,c_compressed",
            *(f"{n},4,2,{raw},{-c}" for c, n, raw in top)]

    def test_default_search_compresses_two_sequences(self, monkeypatch,
                                                     tmp_path):
        lengths = []

        def counting(data):
            lengths.append(len(data))
            return compressed_length(data)

        monkeypatch.setattr(ccl.complexity, "compressed_length", counting)
        assert main(["tm-search", "--seed", "0", "--out", str(tmp_path)]) == 0
        assert lengths == [202, 202]  # 201 steps and the row end


class TestCompressorConfig:
    def test_id_is_pinned(self):
        assert COMPRESSOR["id"] == "deflate-l6w15s0m8"

    def test_levels_change_length_not_content(self):
        data = encode_diagram(evolve_ca(RuleSpec.eca(110), (1,), 50))
        assert inflate(deflate(data)) == data
        for level in (1, 9):
            assert inflate(raw_deflate(data, level)) == data
