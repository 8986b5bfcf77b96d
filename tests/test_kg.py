"""Dataset loading, indexing, connectivity, and search-space construction."""
from __future__ import annotations

import os
from collections import deque

import pytest

from kgexplain import (
    ConfigurationError,
    DatasetParseError,
    DomainError,
    KnowledgeGraph,
    Triple,
    build_search_space,
    load_dataset,
    weakly_connected_component,
)

from conftest import make_random_kg, write_dataset


class TestLoadDataset:
    def test_two_line_file_parses_directly(self, tmp_path):
        kg = load_dataset(write_dataset(tmp_path / "d", [("a", "r", "b"), ("b", "r", "c")]))
        assert kg.num_entities == 3
        assert kg.num_relations == 1
        assert len(kg.train) == 2

    def test_empty_test_split_loads(self, tmp_path):
        kg = load_dataset(write_dataset(tmp_path / "d", [("a", "r", "b")]))
        assert kg.test == ()

    def test_ids_assigned_in_first_appearance_order(self, tmp_path):
        kg = load_dataset(
            write_dataset(
                tmp_path / "d",
                [("b", "r", "a")],
                valid=[("c", "r", "a")],
                test=[("d", "s", "a")],
            )
        )
        assert kg.entity_labels == ["b", "a", "c", "d"]
        assert kg.relation_labels == ["r", "s"]

    def test_malformed_line_reports_line_number(self, tmp_path):
        d = tmp_path / "d"
        write_dataset(d, [("a", "r", "b")])
        (d / "train.txt").write_text("a\tr\tb\nbad line without tabs\n")
        with pytest.raises(DatasetParseError, match="train.txt:2"):
            load_dataset(d)

    def test_duplicates_within_split_dropped_with_warning(self, tmp_path, caplog):
        with caplog.at_level("WARNING"):
            kg = load_dataset(
                write_dataset(tmp_path / "d", [("a", "r", "b"), ("a", "r", "b")])
            )
        assert len(kg.train) == 1
        assert kg.load_report.duplicates_dropped["train"] == 1
        assert any("duplicate" in r.message for r in caplog.records)

    def test_splits_disjoint_after_load(self, tmp_path):
        kg = load_dataset(
            write_dataset(
                tmp_path / "d",
                [("a", "r", "b"), ("b", "r", "c")],
                valid=[("a", "r", "b"), ("c", "r", "a")],
                test=[("c", "r", "a"), ("b", "r", "a")],
            )
        )
        train, valid, test = set(kg.train), set(kg.valid), set(kg.test)
        assert not train & valid and not train & test and not valid & test
        assert kg.load_report.cross_split_dropped["valid"] == 1
        assert kg.load_report.cross_split_dropped["test"] == 1

    def test_unseen_components_flagged_and_excluded_from_eval(self, tmp_path):
        kg = load_dataset(
            write_dataset(
                tmp_path / "d",
                [("a", "r", "b")],
                valid=[("a", "r", "b2"), ("zz", "r", "a")],
                test=[("a", "q", "b")],
            )
        )
        # stored but not evaluated
        assert len(kg.valid) == 2 and len(kg.test) == 1
        assert kg.eval_split("valid") == ()
        assert kg.load_report.unseen_in_train["valid"] == 2
        assert kg.load_report.unseen_in_train["test"] == 1
        assert kg.eval_split("test") == ()

    def test_dictionary_round_trip(self, tmp_path):
        kg = load_dataset(write_dataset(tmp_path / "d", [("x y", "rel/1", "z")]))
        for label in kg.entity_labels:
            assert kg.entity_labels[kg.entity_ids[label]] == label
        for label in kg.relation_labels:
            assert kg.relation_labels[kg.relation_ids[label]] == label

    def test_missing_directory_is_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_dataset(tmp_path / "nope")

    @pytest.mark.skipif(
        "FB15K237_DIR" not in os.environ,
        reason="set FB15K237_DIR to a directory with the real dataset files",
    )
    def test_fb15k237_counts(self):
        kg = load_dataset(os.environ["FB15K237_DIR"])
        assert kg.num_entities == 14541
        assert kg.num_relations == 237
        assert len(kg.train) + len(kg.valid) + len(kg.test) == 310116


class TestAdjacency:
    def test_each_triple_once_per_incident_entity(self, tmp_path):
        kg = load_dataset(
            write_dataset(tmp_path / "d", [("a", "r", "b"), ("a", "r", "a")])
        )
        a, b, r = kg.entity_ids["a"], kg.entity_ids["b"], kg.relation_ids["r"]
        t_ab, t_aa = Triple(a, r, b), Triple(a, r, a)
        assert kg.train_adjacency[0].count(t_ab) == 1
        assert kg.train_adjacency[1].count(t_ab) == 1
        assert kg.train_adjacency[0].count(t_aa) == 1  # self-loop listed once


def _bfs_component(kg: KnowledgeGraph, entity: int) -> frozenset[Triple]:
    """Independent traversal oracle over undirected training edges."""
    edges: dict[int, set[int]] = {}
    for t in kg.train:
        edges.setdefault(t.subject, set()).add(t.object)
        edges.setdefault(t.object, set()).add(t.subject)
    seen = {entity}
    queue = deque([entity])
    while queue:
        node = queue.popleft()
        for neighbor in edges.get(node, ()):
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)
    return frozenset(t for t in kg.train if t.subject in seen)


class TestWeaklyConnectedComponent:
    def test_single_component(self):
        kg = KnowledgeGraph(["a", "b"], ["r"], (Triple(0, 0, 1),))
        assert weakly_connected_component(kg, 0) == {Triple(0, 0, 1)}

    def test_disconnected_pair(self):
        kg = KnowledgeGraph(["a", "b", "c", "d"], ["r"], (Triple(0, 0, 1), Triple(2, 0, 3)))
        assert weakly_connected_component(kg, 0) == {Triple(0, 0, 1)}

    def test_unknown_entity(self):
        kg = KnowledgeGraph(["a", "b"], ["r"], (Triple(0, 0, 1),))
        with pytest.raises(DomainError):
            weakly_connected_component(kg, 7)

    def test_matches_bfs_oracle_on_random_graph(self):
        kg = make_random_kg(seed=11, n_entities=50, n_relations=2, n_triples=45)
        union = set()
        for e in range(kg.num_entities):
            wcc = weakly_connected_component(kg, e)
            assert wcc == _bfs_component(kg, e)
            union |= wcc
        assert union == set(kg.train)

    def test_equivalence_partition(self):
        kg = make_random_kg(seed=3, n_entities=200, n_relations=2, n_triples=160)
        components = [weakly_connected_component(kg, e) for e in range(kg.num_entities)]
        for x in range(0, kg.num_entities, 17):
            for y in range(0, kg.num_entities, 13):
                same_bfs = _bfs_component(kg, x) == _bfs_component(kg, y) and (
                    x in {t.subject for t in _bfs_component(kg, y)}
                    | {t.object for t in _bfs_component(kg, y)}
                    or not _bfs_component(kg, y)
                )
                # components agree exactly when the reference traversals agree
                assert (components[x] == components[y]) == (
                    _bfs_component(kg, x) == _bfs_component(kg, y)
                )

    def test_same_result_for_any_seed_inside_component(self):
        kg = KnowledgeGraph(
            ["a", "b", "c", "d"], ["r"], (Triple(0, 0, 1), Triple(1, 0, 2))
        )
        assert (
            weakly_connected_component(kg, 0)
            == weakly_connected_component(kg, 1)
            == weakly_connected_component(kg, 2)
        )


def _all_triples(kg: KnowledgeGraph) -> set[Triple]:
    return {
        Triple(s, r, o)
        for s in range(kg.num_entities)
        for r in range(kg.num_relations)
        for o in range(kg.num_entities)
    }


def _preset_predicate(kg: KnowledgeGraph, preset: str, prediction: Triple):
    """Each preset's membership rule over training triples, written out directly."""
    s_x, o_x = prediction.subject, prediction.object
    near = {s_x}
    for t in kg.train:
        if s_x in (t.subject, t.object):
            near.update((t.subject, t.object))
    component = _bfs_component(kg, s_x)
    return {
        "train-all": lambda t: True,
        "shares-entity": lambda t: bool({t.subject, t.object} & {s_x, o_x}),
        "subject-match": lambda t: t.subject == s_x,
        "one-hop": lambda t: t.subject in near and t.object in near,
        "wcc": lambda t: t in component,
    }[preset]


class TestSearchSpaces:
    def setup_method(self):
        # prediction (a, r, b); c and d are both subjects of a and bridged
        self.kg = KnowledgeGraph(
            ["a", "b", "c", "d"],
            ["r"],
            (Triple(0, 0, 2), Triple(0, 0, 3), Triple(2, 0, 3)),
        )
        self.prediction = Triple(0, 0, 1)

    def test_train_all_size(self):
        kg = KnowledgeGraph(["a", "b", "c"], ["r"], (Triple(0, 0, 1), Triple(1, 0, 2)))
        space = build_search_space(kg, "train-all")
        assert len(space.members) == 2

    def test_shares_entity_membership(self):
        kg = KnowledgeGraph(["a", "b", "c", "d"], ["r"], (Triple(0, 0, 2), Triple(2, 0, 3)))
        space = build_search_space(kg, "shares-entity", Triple(0, 0, 1))
        assert space.members == (Triple(0, 0, 2),)

    def test_one_hop_strictly_contains_subject_match(self):
        one_hop = set(build_search_space(self.kg, "one-hop", self.prediction).members)
        subject = set(build_search_space(self.kg, "subject-match", self.prediction).members)
        assert subject < one_hop  # bigger space may hold shorter explanations

    def test_missing_prediction_is_configuration_error(self):
        with pytest.raises(ConfigurationError):
            build_search_space(self.kg, "shares-entity")

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError):
            build_search_space(self.kg, "everything")

    def test_membership_equals_constraint_conjunction(self):
        space = build_search_space(self.kg, "one-hop", self.prediction)
        near = {0, 2, 3}  # a and both endpoints of its two training triples
        for t in _all_triples(self.kg):
            in_train = t in self.kg.train_set
            assert (t in space.members) == (in_train and t.subject in near and t.object in near)

    @pytest.mark.parametrize(
        "preset", ["train-all", "shares-entity", "subject-match", "one-hop", "wcc"]
    )
    def test_enumeration_matches_predicate_filter(self, preset):
        kg = make_random_kg(seed=8, n_entities=8, n_relations=2, n_triples=20)
        prediction = kg.train[0]
        space = build_search_space(kg, preset, prediction)
        predicate = _preset_predicate(kg, preset, prediction)
        expected = {t for t in _all_triples(kg) if t in kg.train_set and predicate(t)}
        members = list(space.members)
        assert set(members) == expected
        assert len(members) == len(expected)  # each exactly once
