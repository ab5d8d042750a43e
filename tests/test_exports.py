"""The package's public names: what ``ccl.__all__`` lists is what
``from ccl import *`` gives, and the ranking wrappers are gone."""

import ccl


def test_every_exported_name_resolves():
    assert len(set(ccl.__all__)) == len(ccl.__all__)
    for name in ccl.__all__:
        assert hasattr(ccl, name), name


def test_star_import_gives_exactly_all():
    ns = {}
    exec("from ccl import *", ns)
    assert set(ns) - {"__builtins__"} == set(ccl.__all__)


def test_rankings_are_plain_tuples_of_records():
    # rank_rules and coefficient_classification return tuples of records
    # that carry their own cluster ids; no report wrapper type is left.
    assert [name for name in dir(ccl) if name.endswith("Report")] == []
    assert ccl.TransitionRecord._fields == ("rule", "S_c", "fit", "cluster")
    assert ccl.ClassificationEntry._fields[-1] == "cluster"
