import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from covertnet.io import (
    ActorFileError,
    GraphFileError,
    _graph_text,
    load_actor_file,
    load_graph_file,
    load_vector,
)

from covertnet.affiliation import build_from_actors

from strategies import BAD_ROSTERS, graphs


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


# Signed zero, a subnormal and the edge of the float range, beside plain weights.
_WEIGHTS = (-0.0, 5e-324, 1.7e308, 1.0, 2.5)
# Label text the writer must escape: quotes, backslashes, non-ASCII and NUL, the writer's token separator.
_LABEL = st.text() | st.lists(st.sampled_from(['"', "\\", "\x00", "é", "中", "😀", ",", "\n"])).map("".join)


def _labelled(g):
    return st.tuples(st.just(g), st.none() | st.lists(_LABEL, min_size=g.n, max_size=g.n).map(tuple))


class TestGraphJson:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.booleans()
        .flatmap(lambda directed: graphs(min_n=1, max_n=10, weighted=True, directed=directed, weights=_WEIGHTS))
        .flatmap(_labelled)
    )
    def test_round_trip(self, tmp_path, graph_and_labels):
        g, labels = graph_and_labels
        path = write(tmp_path, "g.json", _graph_text(g, labels))
        loaded, loaded_labels = load_graph_file(path)
        assert loaded == g and loaded.weight.tobytes() == g.weight.tobytes()  # -0.0 keeps its sign
        assert loaded_labels == labels

    def test_minimal_document(self, tmp_path):
        path = write(tmp_path, "g.json", '{"n": 2, "edges": [[0, 1]]}')
        g, labels = load_graph_file(path)
        assert g.m == 1 and not g.directed and labels is None

    def test_directed_flag(self, tmp_path):
        path = write(tmp_path, "g.json", '{"n": 2, "directed": true, "edges": [[1, 0]]}')
        g, _ = load_graph_file(path)
        assert g.directed and g.edges == ((1, 0, 1.0),)

    def test_invalid_json(self, tmp_path):
        with pytest.raises(GraphFileError, match="invalid JSON"):
            load_graph_file(write(tmp_path, "g.json", "{broken"))

    def test_bad_n(self, tmp_path):
        with pytest.raises(GraphFileError, match="'n'"):
            load_graph_file(write(tmp_path, "g.json", '{"n": 0, "edges": []}'))

    def test_bad_edge_reported(self, tmp_path):
        with pytest.raises(GraphFileError, match="out of range"):
            load_graph_file(write(tmp_path, "g.json", '{"n": 2, "edges": [[0, 5]]}'))

    def test_duplicate_edge_is_input_error(self, tmp_path):
        doc = '{"n": 2, "edges": [[0, 1], [1, 0]]}'
        with pytest.raises(GraphFileError, match="duplicate"):
            load_graph_file(write(tmp_path, "g.json", doc))

    def test_label_length_checked(self, tmp_path):
        doc = '{"n": 3, "labels": ["a"], "edges": []}'
        with pytest.raises(GraphFileError, match="labels"):
            load_graph_file(write(tmp_path, "g.json", doc))

    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphFileError):
            load_graph_file(tmp_path / "missing.json")


class TestGraphCsv:
    def test_labels_in_first_appearance_order(self, tmp_path):
        text = "source,target,weight\nnoordin,azhari,2\nazhari,top,1\n"
        g, labels = load_graph_file(write(tmp_path, "g.csv", text))
        assert labels == ("noordin", "azhari", "top")
        assert g.edges == ((0, 1, 2.0), (1, 2, 1.0))

    def test_weight_column_optional(self, tmp_path):
        g, _ = load_graph_file(write(tmp_path, "g.csv", "source,target\na,b\nb,c\n"))
        assert g.edges == ((0, 1, 1.0), (1, 2, 1.0))

    def test_blank_weight_defaults(self, tmp_path):
        g, _ = load_graph_file(write(tmp_path, "g.csv", "source,target,weight\na,b,\n"))
        assert g.edges == ((0, 1, 1.0),)

    def test_header_required(self, tmp_path):
        with pytest.raises(GraphFileError, match="header"):
            load_graph_file(write(tmp_path, "g.csv", "a,b\nb,c\n"))

    def test_bad_weight(self, tmp_path):
        with pytest.raises(GraphFileError, match="weight"):
            load_graph_file(write(tmp_path, "g.csv", "source,target,weight\na,b,heavy\n"))

    def test_sniffing_without_extension(self, tmp_path):
        json_path = write(tmp_path, "graph.dat", '{"n": 1, "edges": []}')
        assert load_graph_file(json_path)[0].n == 1
        csv_path = write(tmp_path, "edges.dat", "source,target\nx,y\n")
        assert load_graph_file(csv_path)[0].n == 2


class TestActorFile:
    def test_roster(self, tmp_path):
        doc = '[{"id": "a", "generators": ["x", "Y"]}, {"id": "b"}]'
        roster = load_actor_file(write(tmp_path, "r.json", doc))
        assert [a.id for a in roster] == ["a", "b"]
        assert roster[0].generators == frozenset({"x", "y"})
        assert roster[1].generators == frozenset()

    def test_not_a_list(self, tmp_path):
        with pytest.raises(ActorFileError, match="list"):
            load_actor_file(write(tmp_path, "r.json", '{"id": "a"}'))

    def test_missing_id(self, tmp_path):
        with pytest.raises(ActorFileError, match="'id'"):
            load_actor_file(write(tmp_path, "r.json", '[{"generators": []}]'))

    def test_bad_generators(self, tmp_path):
        with pytest.raises(ActorFileError, match="generators"):
            load_actor_file(write(tmp_path, "r.json", '[{"id": "a", "generators": [1]}]'))

    @pytest.mark.parametrize("text, message, stage", BAD_ROSTERS.values(), ids=list(BAD_ROSTERS))
    def test_bad_roster_message(self, tmp_path, text, message, stage):
        path = write(tmp_path, "r.json", text)
        if stage == "read":
            with pytest.raises(ActorFileError) as err:
                load_actor_file(path)
            assert str(err.value) == f"{path}: {message}"
        else:
            roster = load_actor_file(path)
            with pytest.raises(ValueError) as err:
                build_from_actors(roster)
            assert str(err.value) == message


class TestLoadVector:
    def test_inline_commas(self):
        assert load_vector("0.1,0.2,0.3") == (0.1, 0.2, 0.3)

    def test_inline_single_value(self):
        assert load_vector("0.5") == (0.5,)

    def test_one_column_file(self, tmp_path):
        path = write(tmp_path, "v.txt", "0.1\n0.2\n0.3\n")
        assert load_vector(str(path)) == (0.1, 0.2, 0.3)

    def test_comma_file(self, tmp_path):
        path = write(tmp_path, "v.txt", "0.1, 0.2\n")
        assert load_vector(str(path)) == (0.1, 0.2)

    @pytest.mark.parametrize("blank", ["", " ", "\n\t"])
    def test_blank_is_an_empty_vector_not_a_path(self, blank, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / " ").write_text("0.5\n")  # a file the blank value must not be read as
        with pytest.raises(ValueError, match="empty vector"):
            load_vector(blank)

    def test_nonsense_rejected(self):
        with pytest.raises(ValueError, match="neither"):
            load_vector("not-a-number-or-file")
