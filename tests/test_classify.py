import json
import multiprocessing
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ccl.classify
from ccl import (CA, COMPRESSOR, TM, RuleSpec, ca_complexity, classify_eca,
                 cluster_1d, encode_diagram, evolve_ca, rank_rules,
                 sample_rule_space)
from ccl.complexity import _parallel_map
from ccl.cli import main
from oracles import mirror, two_level_clusters

SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"


class TestCluster1d:
    def test_one_dominant_gap(self):
        assert cluster_1d([1, 2, 3, 100, 101]) == [0, 0, 0, 1, 1]

    def test_single_cluster(self):
        assert cluster_1d([3, 3, 3]) == [0, 0, 0]

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                    max_size=10))
    def test_cuts_maximize_gaps(self, values):
        ids = cluster_1d(values)
        # ids must be 0 and 1 (only 0 when all values are equal), ordered
        # by value, and split only at a gap at least as large as every gap
        # kept inside a cluster.
        assert sorted(set(ids)) == list(range(min(2, len(set(values)))))
        pairs = sorted(zip(values, ids))
        cut_gaps = []
        kept_gaps = []
        for (va, ia), (vb, ib) in zip(pairs, pairs[1:]):
            assert ib in (ia, ia + 1)
            (cut_gaps if ib != ia else kept_gaps).append(vb - va)
        if cut_gaps and kept_gaps:
            assert min(cut_gaps) >= max(kept_gaps)

    @settings(max_examples=60, deadline=None)
    @given(st.permutations(range(8)))
    def test_permutation_equivariant(self, perm):
        base = [0, 1, 2, 10, 11, 40, 41, 42]
        shuffled = [base[i] for i in perm]
        base_ids = cluster_1d(base)
        shuffled_ids = cluster_1d(shuffled)
        assert shuffled_ids == [base_ids[i] for i in perm]

    def test_bimodal_modes_separate_exactly(self):
        low = [100 + d for d in (-9, -4, 0, 3, 9)]
        high = [200 + d for d in (-8, 0, 8)]
        ids = cluster_1d(low + high)
        assert ids == [0] * 5 + [1] * 3

    def test_gap_ties_cut_leftmost(self):
        # gaps of 10 on both sides; the cut must take the left one.
        assert cluster_1d([0, 10, 20]) == [0, 1, 1]

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            cluster_1d([])


class TestRankRules:
    def test_single_rule(self):
        ranking = rank_rules([RuleSpec.eca(30)], (1,), 40)
        assert type(ranking) is tuple and len(ranking) == 1
        assert ranking[0].cluster == 0
        assert ranking[0].rule.rule_number == 30

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            rank_rules([], (1,), 10)

    def test_sorted_ascending_with_rule_number_ties(self):
        # rules 0 and 8 kill a single cell immediately, so their diagrams
        # (and compressed lengths) coincide; 8 must follow 0.
        d0 = evolve_ca(RuleSpec.eca(0), (1,), 30)
        d8 = evolve_ca(RuleSpec.eca(8), (1,), 30)
        assert encode_diagram(d0) == encode_diagram(d8)
        ranking = rank_rules(
            [RuleSpec.eca(n) for n in (8, 30, 0)], (1,), 30
        )
        numbers = [e.rule.rule_number for e in ranking]
        assert numbers == [0, 8, 30]
        cs = [e.c_compressed for e in ranking]
        assert cs[0] == cs[1] <= cs[2]

    def test_threaded_matches_serial(self):
        rules = [RuleSpec.eca(n) for n in (0, 30, 90, 110, 150, 204)]
        serial = rank_rules(rules, (1,), 60, threads=1)
        threaded = rank_rules(rules, (1,), 60, threads=4)
        assert serial == threaded

    def test_worker_error_reaches_the_caller(self, pool_path):
        rules = [RuleSpec.eca(n) for n in (30, 90, 110)]
        with pytest.raises(ValueError) as serial:
            rank_rules(rules, (2,), 20, threads=1)
        with pytest.raises(ValueError) as pooled:
            rank_rules(rules, (2,), 20, threads=2)
        assert pool_path == ["fork"]
        assert str(pooled.value) == str(serial.value)
        assert multiprocessing.active_children() == []

    # Rule 0 and this one-state machine share colors, condition and row-0
    # mask, so a group would hand the machine rule 0's lengths.
    @pytest.mark.parametrize("rules", [
        [RuleSpec.eca(0), RuleSpec.tm(1, 2, 0)],
        [RuleSpec.tm(1, 2, 0), RuleSpec.eca(0)]])
    def test_turing_machine_refused_before_any_evolution(self, evolutions,
                                                         rules):
        with pytest.raises(ValueError, match="evolve_ca needs a CA rule"):
            rank_rules(rules, (1,), 5)
        assert evolutions == []

    # At t=20 rules 4 and 12 have equal lengths, so there is no cluster 1;
    # rules 30 and 89 share the high cluster at one length above rule 4's.
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=12,
                    unique=True), st.integers(1, 20))
    @example([4, 12], 20)
    @example([89, 4, 30], 20)
    def test_two_level_split_matches_oracle(self, numbers, steps):
        lengths = {n: ca_complexity(RuleSpec.eca(n), (1,),
                                    steps).compressed_length
                   for n in numbers}
        ranked = sorted(numbers, key=lambda n: (lengths[n], n))
        ranking = rank_rules([RuleSpec.eca(n) for n in numbers], (1,), steps,
                             split_levels=2)
        assert [e.rule.rule_number for e in ranking] == ranked
        assert [e.cluster for e in ranking] == two_level_clusters(
            [lengths[n] for n in ranked])

    def test_bad_split_levels_rejected_first(self):
        with pytest.raises(ValueError, match="split_levels must be 1 or 2"):
            rank_rules([], (1,), 10, split_levels=3)


class TestClassifyEca:
    def test_report_shape_and_determinism(self):
        a = classify_eca(50, threads=2)
        b = classify_eca(50)
        assert a == b
        assert type(a) is tuple and len(a) == 256
        cs = [e.c_compressed for e in a]
        assert cs == sorted(cs)
        assert sorted(set(e.cluster for e in a)) == [0, 1]

    def test_recursive_split_refines_the_high_cluster(self):
        flat = classify_eca(50)
        deep = classify_eca(50, split_levels=2)
        assert sorted(set(e.cluster for e in deep)) == [0, 1, 2]
        assert [e.rule for e in deep] == [e.rule for e in flat]
        # the second split refines cluster 1 into 1 and 2; cluster 0 stays
        assert [min(e.cluster, 1) for e in deep] == [e.cluster for e in flat]

    def test_no_mirror_pair_is_split_at_t200(self, eca_report_200):
        # A rule and its left-right mirror draw reflected diagrams from the
        # single black cell, so they belong in the same class.
        cluster = {e.rule.rule_number: e.cluster for e in eca_report_200}
        for number, c in cluster.items():
            assert cluster[mirror(RuleSpec.eca(number)).rule_number] == c

    def test_csv_layout(self, tmp_path):
        """Each CSV row holds the fields of the JSON entry of its rank."""
        assert main(["classify", "--rules", "30,0", "--steps", "20",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "classification.csv").read_text().splitlines()
        assert lines[0] == "rule,kind,colors,c_raw,c_compressed,cluster"
        assert len(lines) == 3
        assert lines[1].startswith("0,CA,2,")
        doc = json.loads((tmp_path / "classification.json").read_text())
        assert [line.split(",") for line in lines[1:]] == [
            [str(e[c]) for c in lines[0].split(",")] for e in doc["entries"]]

    def test_json_matches_schema(self, tmp_path):
        """Three clusters after the second split still fit the schema."""
        assert main(["classify", "--rules", "0,30,90,110", "--steps", "20",
                     "--split-levels", "2", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "classification.json").read_text())
        schema = json.loads(
            (SCHEMAS / "classification.schema.json").read_text()
        )
        jsonschema.validate(doc, schema)
        assert doc["parameters"]["compressor"] == COMPRESSOR["id"]
        assert sorted({e["cluster"] for e in doc["entries"]}) == [0, 1, 2]


class TestSampleRuleSpace:
    def test_seeded_and_repeatable(self):
        a = sample_rule_space(TM, 3, 2, 100, seed=42)
        b = sample_rule_space(TM, 3, 2, 100, seed=42)
        assert a == b == sorted(set(a))
        assert len(a) == 100 and all(type(n) is int for n in a)

    def test_different_seeds_differ(self):
        a = sample_rule_space(CA, 3, 1, 50, seed=1)
        b = sample_rule_space(CA, 3, 1, 50, seed=2)
        assert a != b
        assert all(n < 3 ** 27 for n in a)

    def test_exhaustive_binary_space(self):
        assert sample_rule_space(CA, 2, 1, 256, seed=0) == list(range(256))

    def test_oversampling_rejected(self):
        with pytest.raises(ValueError):
            sample_rule_space(CA, 2, 1, 257, seed=0)
        with pytest.raises(ValueError):
            sample_rule_space(CA, 2, 1, 0, seed=0)

    def test_space_too_large_to_sample_rejected(self):
        # 300**27000000 rules: refused without building the size.
        with pytest.raises(ValueError) as err:
            sample_rule_space(CA, 300, 1, 5, seed=0)
        assert str(err.value) == (
            "cannot sample a space of more than 10**4300 rules")
        assert RuleSpec(CA, 4, 0).space_size > sys.maxsize
        numbers = sample_rule_space(CA, 4, 1, 5, 0)
        assert numbers == sorted(set(numbers)) and len(numbers) == 5
        assert all(n < 4 ** 64 for n in numbers)

    # Every space exceeds the set that random.sample keeps for k draws, so
    # it takes the branch that sample_rule_space follows past sys.maxsize.
    @pytest.mark.parametrize("kind, colors, states, n", [
        (TM, 2, 2, 8 ** 4), (TM, 2, 3, 12 ** 6), (CA, 3, 1, 3 ** 27),
        (TM, 3, 4, 24 ** 12)])
    @pytest.mark.parametrize("k", [1, 6, 200])
    def test_redraw_past_maxsize_matches_random_sample(
            self, monkeypatch, kind, colors, states, n, k):
        monkeypatch.setattr(ccl.classify, "sys", SimpleNamespace(
            maxsize=0, int_info=sys.int_info))
        for seed in range(3):
            want = sorted(random.Random(seed).sample(range(n), k))
            assert sample_rule_space(kind, colors, states, k, seed) == want

    def test_sampled_three_color_top_rule_has_growing_complexity(self):
        rules = [RuleSpec(CA, 3, n)
                 for n in sample_rule_space(CA, 3, 1, 24, seed=5)]
        top = rank_rules(rules, (1,), 100)[-1].rule
        curve = [
            ca_complexity(top, (1,), t).compressed_length
            for t in (25, 50, 75, 100)
        ]
        fit = [(curve[i + 1] - curve[i]) for i in range(3)]
        assert all(step > 0 for step in fit)


class TestParallelMap:
    # An unknown CPU count means one worker, which builds no pool at all.
    @pytest.mark.parametrize("cpus, pools", [(64, [3]), (2, [2]), (None, [])])
    def test_workers_capped_by_cpus_and_items(self, monkeypatch,
                                              recorded_pools, cpus, pools):
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        out = _parallel_map(lambda x: x * x, [3, 1, 2], 10 ** 6)
        assert out == [9, 1, 4]
        assert recorded_pools == pools

    @pytest.mark.parametrize("threads", [None, 1])
    def test_one_thread_builds_no_pool(self, recorded_pools, threads):
        assert _parallel_map(str, range(4), threads) == ["0", "1", "2", "3"]
        assert recorded_pools == []
