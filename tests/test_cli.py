"""End-to-end tests of the command-line surface and its exit codes."""

import json
import re
from pathlib import Path

import pytest

from rescube import cli
from rescube.cli import main
from rescube.plane_graph import DEFAULT_MATCHING_CAP, graph_from_json, graph_to_json

from conftest import zigzag

BRANCHED = "0 0\n1 -1\n2 -1\n2 0\n1 -2\n"
GOLDEN = Path(__file__).parent / "golden"
PYRENE = "0 0\n1 0\n0 1\n-1 1\n"
HEXAGON = "0 0\n"


@pytest.fixture()
def branched_file(tmp_path):
    p = tmp_path / "branched.benz"
    p.write_text(BRANCHED)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_pass(branched_file, capsys):
    code, out, _ = run(capsys, "check", branched_file)
    assert code == 0
    obj = json.loads(out)
    assert obj["peripherally_two_colorable"]["ok"] is True
    assert obj["vertices"] == 22 and obj["edges"] == 26


def test_check_fail_exit_two(tmp_path, capsys):
    p = tmp_path / "pyrene.benz"
    p.write_text(PYRENE)
    code, out, _ = run(capsys, "check", str(p))
    assert code == 2
    obj = json.loads(out)
    assert obj["peripherally_two_colorable"]["ok"] is False
    assert "witness" in obj["peripherally_two_colorable"]


def test_malformed_json_exit_one(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{ not json")
    code, _, err = run(capsys, "check", str(p))
    assert code == 1
    assert "bad input" in err


def test_missing_file_exit_one(capsys):
    code, _, _ = run(capsys, "check", "/nonexistent/file.json")
    assert code == 1


def test_usage_error_exit_one(capsys):
    assert main(["label", "somefile"]) == 1  # --scheme is required
    assert main(["no-such-command"]) == 1


def test_resonance_outputs(branched_file, tmp_path, capsys):
    out_json = tmp_path / "r.json"
    out_dot = tmp_path / "r.dot"
    code, _, _ = run(
        capsys, "resonance", branched_file, "-o", str(out_json), "--dot", str(out_dot)
    )
    assert code == 0
    obj = json.loads(out_json.read_text())
    assert len(obj["vertices"]) == 14
    assert len(obj["edges"]) == 23
    assert out_dot.read_text().startswith("graph resonance {")


def test_resonance_golden_exports(branched_file, tmp_path, capsys):
    """The exact JSON and DOT text of R(G) on the branched fixture, as
    written before R(G) was held as pairs of bitsets."""
    out_json, out_dot = tmp_path / "r.json", tmp_path / "r.dot"
    code, _, _ = run(
        capsys, "resonance", branched_file, "-o", str(out_json), "--dot", str(out_dot)
    )
    assert code == 0
    assert out_json.read_text() == (GOLDEN / "branched5_resonance.json").read_text()
    assert out_dot.read_text() == (GOLDEN / "branched5_resonance.dot").read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "-o", "-"],
        ["resonance", "-o", "-", "--dot", "-"],
        ["label", "--scheme", "daisy", "--emit-dot", "-"],
        ["import-benzenoid", "-o", "-"],
    ],
    ids=lambda argv: argv[0],
)
def test_dash_means_standard_output(branched_file, tmp_path, monkeypatch, capsys, argv):
    """'-' as an output path writes standard output, not a file named '-',
    and standard output gets the bytes that named files would get."""
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    code, out, _ = run(capsys, argv[0], branched_file, *argv[1:])
    assert code == 0
    assert list(cwd.iterdir()) == []
    files = [tmp_path / f"out{i}" for i in range(argv.count("-"))]
    named = iter(files)
    code, printed, _ = run(
        capsys, argv[0], branched_file, *(str(next(named)) if a == "-" else a for a in argv[1:])
    )
    assert code == 0
    expected = "".join(p.read_text() for p in files)
    if "-o" not in argv:  # the JSON document goes to standard output anyway
        expected = printed + expected
    assert out == expected


def test_resonance_deterministic(branched_file, tmp_path, capsys):
    outs = []
    for name in ("a.json", "b.json"):
        target = tmp_path / name
        run(capsys, "resonance", branched_file, "-o", str(target))
        outs.append(target.read_bytes())
    assert outs[0] == outs[1]


def test_cap_exit_three(branched_file, capsys, monkeypatch):
    monkeypatch.setenv("RESCUBE_CAP", "3")
    code, _, err = run(capsys, "resonance", branched_file)
    assert code == 3
    assert "cap" in err.lower()


@pytest.mark.parametrize("how", ["flag", "env"])
def test_verify_cap_exit_three(branched_file, capsys, monkeypatch, how):
    # the branched fixture has 14 perfect matchings
    argv = ["verify", branched_file]
    if how == "flag":
        argv += ["--cap", "3"]
    else:
        monkeypatch.setenv("RESCUBE_CAP", "3")
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "cap" in err.lower()


@pytest.mark.parametrize(
    "argv",
    [["label", "--scheme", "daisy"], ["label", "--scheme", "fdl", "--verify"],
     ["verify"]],
    ids=" ".join,
)
def test_cap_reaches_every_enumeration(branched_file, capsys, enumerations, argv):
    # a cap above the default must reach each enumeration, of the graph and
    # of every decomposition prefix alike
    code, _, _ = run(capsys, argv[0], branched_file, *argv[1:], "--cap", "200000")
    assert code == 0
    assert enumerations
    assert all(cap == 200_000 for _, cap in enumerations)


@pytest.mark.parametrize(
    "argv, whole_graph",
    [(["label", "--scheme", "daisy"], 1), (["label", "--scheme", "fdl"], 1),
     (["label", "--scheme", "daisy", "--verify"], 1), (["verify"], 1)],
    ids=lambda a: " ".join(a) if isinstance(a, list) else str(a),
)
def test_whole_graph_enumerated_once_per_use(
    branched_file, branched5, capsys, enumerations, argv, whole_graph
):
    # label enumerates the graph once; --verify hands that family to the report
    code, _, _ = run(capsys, argv[0], branched_file, *argv[1:])
    assert code == 0
    assert [edges for edges, _ in enumerations].count(branched5.edges) == whole_graph


@pytest.mark.parametrize("scheme", ["daisy", "fdl"])
@pytest.mark.parametrize("name", ["hexagon_plus_naphthalene", "hexagon_with_pendant_path"])
def test_composed_label_enumerates_the_graph_once(
    request, tmp_path, capsys, enumerations, families, name, scheme
):
    # every component reads its labels on the whole graph's family, so no
    # component is enumerated on its own and no second family is built
    g = request.getfixturevalue(name)
    p = tmp_path / "composed.json"
    p.write_text(graph_to_json(g))
    code, out, _ = run(capsys, "label", str(p), "--scheme", scheme, "--verify")
    assert code == 0
    assert enumerations == [(g.edges, DEFAULT_MATCHING_CAP)]
    assert families == [len(json.loads(out)["labels"])]


@pytest.mark.parametrize("scheme", ["daisy", "fdl"])
def test_composed_label_refuses_a_component_not_peripherally_two_colorable(
    tmp_path, capsys, scheme
):
    # pyrene and a disjoint hexagon: weakly elementary, and the pyrene
    # component gets the verdict that pyrene alone gets
    alone = tmp_path / "pyrene.benz"
    alone.write_text(PYRENE)
    code, expected, _ = run(capsys, "label", str(alone), "--scheme", scheme)
    assert code == 2
    p = tmp_path / "pyrene_hexagon.benz"
    p.write_text(PYRENE + "6 0\n")
    code, out, err = run(capsys, "label", str(p), "--scheme", scheme)
    assert (code, err) == (2, "")
    assert out == expected
    assert json.loads(out)["error"] == "not peripherally 2-colorable"
    assert json.loads(out)["verdict"]["ok"] is False


@pytest.mark.parametrize("command", ["check", "rfd"])
@pytest.mark.parametrize("shape", [BRANCHED, PYRENE, HEXAGON, "0 0\n50 0\n"])
def test_check_and_rfd_enumerate_nothing(tmp_path, capsys, enumerations, command, shape):
    p = tmp_path / "g.benz"
    p.write_text(shape)
    code, _, _ = run(capsys, command, str(p))
    assert code in (0, 2)
    assert enumerations == []


@pytest.mark.parametrize("scheme", ["daisy", "fdl"])
def test_label_builds_no_edge_set_and_no_adjacency(tmp_path, capsys, scheme):
    from rescube.matchings import MatchingFamily
    from rescube.resonance import ResonanceGraph

    # no matching's edges can be read in the library: the family has no
    # edge-set view, and R(G) no per-matching key (the tests' oracles have)
    removed = ("matchings", "index", "by_edges", "__iter__", "__getitem__")
    assert not any(hasattr(MatchingFamily, name) for name in removed)
    assert not hasattr(ResonanceGraph, "vertex_key")
    p = tmp_path / "zigzag9.json"
    p.write_text(graph_to_json(zigzag(9)))
    dot = tmp_path / "r.dot"
    code, out, _ = run(capsys, "label", str(p), "--scheme", scheme, "--emit-dot", str(dot))
    assert code == 0
    # R(G) is the Fibonacci cube of dimension 9: 89 vertices, 235 edges
    assert len(json.loads(out)["labels"]) == 89 and dot.read_text().count(" -- ") == 235
    # the face splits of --verify read the Theta-class sides and the step
    # checks compare columns; the one adjacency of R(G) is the metric graph's
    code, _, _ = run(capsys, "label", str(p), "--scheme", scheme, "--verify")
    assert code == 0
    assert not hasattr(ResonanceGraph, "adjacency")


MALFORMED_JSON = {
    "vertices-not-a-list": '{"vertices": 5, "edges": []}',
    "coordinate-a-list": (
        '{"vertices": [{"id": 0, "x": [1], "y": 0}, {"id": 1, "x": 1, "y": 0}],'
        ' "edges": [[0, 1]]}'
    ),
    "ids-not-comparable": (
        '{"vertices": [{"id": "a", "x": 0, "y": 0}, {"id": 1, "x": 1, "y": 0}],'
        ' "edges": [["a", 1]]}'
    ),
    "vertex-without-x": '{"vertices": [{"id": 0, "y": 0}], "edges": []}',
    "no-vertices": '{"edges": []}',
    "edge-of-three-ids": (
        '{"vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1, "y": 0}],'
        ' "edges": [[0, 1, 1]]}'
    ),
}


@pytest.mark.parametrize("command", [["check"], ["label", "--scheme", "daisy"], ["verify"]],
                         ids=" ".join)
@pytest.mark.parametrize("name", sorted(MALFORMED_JSON))
def test_malformed_graph_json_is_bad_input(tmp_path, capsys, command, name):
    p = tmp_path / "g.json"
    p.write_text(MALFORMED_JSON[name])
    code, out, err = run(capsys, command[0], str(p), *command[1:])
    assert (code, out) == (1, "")
    assert err.startswith("rescube: bad input: ") and "Traceback" not in err


def test_missing_vertex_field_names_vertex_and_field(tmp_path, capsys):
    p = tmp_path / "g.json"
    p.write_text('{"vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "y": 0}], "edges": []}')
    code, out, err = run(capsys, "check", str(p))
    assert (code, out) == (1, "")
    assert err == "rescube: bad input: vertex at index 1 lacks 'x'\n"
    with pytest.raises(ValueError, match="index 0 lacks 'id', 'y'"):
        graph_from_json('{"vertices": [{"x": 0}], "edges": []}')


def test_malformed_edge_names_its_index(tmp_path, capsys):
    p = tmp_path / "g.json"
    p.write_text(
        '{"vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1, "y": 0}],'
        ' "edges": [[0, 1], [0, 1, 1]]}'
    )
    code, out, err = run(capsys, "check", str(p))
    assert (code, out) == (1, "")
    assert err == "rescube: bad input: edge at index 1 is not a pair of vertex ids: [0, 1, 1]\n"
    with pytest.raises(ValueError, match=r"edge at index 0 is not a pair of vertex ids: \[0\]"):
        graph_from_json('{"vertices": [{"id": 0, "x": 0, "y": 0}], "edges": [[0]]}')
    with pytest.raises(ValueError, match="edge at index 2 is not a pair of vertex ids: 7"):
        graph_from_json('{"vertices": [], "edges": [[0, 1], [1, 2], 7]}')


def test_boolean_vertex_id_names_its_index(tmp_path, capsys):
    # JSON true would be vertex 1 to Python: a 4-cycle with ids true, 2, 3, 4
    # must not pass, nor true beside 1 read as a duplicate of 1
    p = tmp_path / "g.json"
    p.write_text(
        '{"vertices": [{"id": true, "x": 0, "y": 0}, {"id": 2, "x": 1, "y": 0},'
        ' {"id": 3, "x": 1, "y": 1}, {"id": 4, "x": 0, "y": 1}],'
        ' "edges": [[true, 2], [2, 3], [3, 4], [4, true]]}'
    )
    code, out, err = run(capsys, "check", str(p))
    assert (code, out) == (1, "")
    assert err == "rescube: bad input: vertex at index 0 has a boolean id: true\n"
    with pytest.raises(ValueError, match="vertex at index 1 has a boolean id: true"):
        graph_from_json(
            '{"vertices": [{"id": 1, "x": 0, "y": 0}, {"id": true, "x": 1, "y": 0}],'
            ' "edges": []}'
        )
    with pytest.raises(ValueError, match=r"edge at index 1 has a boolean end: \[1, false\]"):
        graph_from_json(
            '{"vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1, "y": 0}],'
            ' "edges": [[0, 1], [1, false]]}'
        )


def test_missing_top_level_field_names_field_and_shape(tmp_path, capsys):
    p = tmp_path / "g.json"
    p.write_text('{"edges": []}')
    code, out, err = run(capsys, "check", str(p))
    assert (code, out) == (1, "")
    assert err == (
        "rescube: bad input: graph lacks 'vertices': expected an object "
        '{"vertices": [{"id", "x", "y"}, ...], "edges": [[u, v], ...]}\n'
    )
    with pytest.raises(ValueError, match="lacks 'vertices', 'edges': expected an object"):
        graph_from_json("[]")
    with pytest.raises(ValueError, match="lacks 'edges'"):
        graph_from_json('{"vertices": []}')


@pytest.mark.parametrize("shape", [BRANCHED, PYRENE], ids=["branched", "pyrene"])
@pytest.mark.parametrize("command", ["label", "verify"])
def test_cap_zero_is_rejected(tmp_path, capsys, command, shape):
    # --cap 0 is a value, not an absent flag: it must not fall back to the
    # default cap, also where no enumeration follows (pyrene is not
    # peripherally 2-colorable, so neither command would enumerate it)
    p = tmp_path / "g.benz"
    p.write_text(shape)
    argv = [command, str(p), "--cap", "0"]
    if command == "label":
        argv += ["--scheme", "daisy"]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "cap must be >= 1" in err


@pytest.mark.parametrize("cap", ["0", "200000"])
@pytest.mark.parametrize("command", ["check", "rfd"])
def test_check_and_rfd_take_no_cap(branched_file, capsys, command, cap):
    # they enumerate no perfect matching, so there is nothing to bound
    code, out, err = run(capsys, command, branched_file, "--cap", cap)
    assert code == 1
    assert out == ""
    assert err.startswith("usage:")


@pytest.mark.parametrize("command", ["resonance", "label", "verify"])
def test_cap_help_names_the_enumeration(capsys, command):
    assert main([command, "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "--cap CAP bound on the perfect-matching enumeration" in out


def test_cap_flag_overrides_env(branched_file, capsys, monkeypatch):
    monkeypatch.setenv("RESCUBE_CAP", "3")
    code, _, _ = run(capsys, "resonance", branched_file, "--cap", "100")
    assert code == 0


def test_rfd_output(branched_file, capsys):
    code, out, _ = run(capsys, "rfd", branched_file)
    assert code == 0
    obj = json.loads(out)
    assert len(obj["faces"]) == 5
    assert obj["attachment_complete"] is True
    assert obj["subgraph_sizes"] == [6, 11, 16, 21, 26]


def test_label_daisy_with_verify(branched_file, capsys):
    code, out, _ = run(
        capsys, "label", branched_file, "--scheme", "daisy", "--verify"
    )
    assert code == 0
    obj = json.loads(out)
    assert len(obj["labels"]) == 14
    assert obj["verification"]["isometric"] is True
    assert obj["verification"]["downward_closed"] is True
    assert obj["verification"]["theorem_report"]["ok"] is True


@pytest.mark.parametrize("scheme", ["daisy", "fdl"])
def test_label_verify_certifies_each_label_set_once(branched_file, capsys, monkeypatch, scheme):
    # label's own check certifies its label set, the partial-cube embedding
    # of R(G) its own labels, each once; the report certifies none, since
    # its step chain certifies R(G)
    from rescube import cube_kit

    certified = []
    isometric = cube_kit._isometric

    def spy(mg, bits, sides=None):
        if len(mg.vertices) == 14:
            certified.append(tuple(bits[v] for v in mg.vertices))
        return isometric(mg, bits, sides)

    monkeypatch.setattr(cube_kit, "_isometric", spy)
    code, _, _ = run(capsys, "label", branched_file, "--scheme", scheme, "--verify")
    assert code == 0
    assert len(certified) == len(set(certified)) == 2


def test_label_explicit_rfd_order(branched_file, capsys):
    code, out, _ = run(capsys, "rfd", branched_file)
    faces = json.loads(out)["faces"]
    order = ",".join(str(f) for f in faces)
    code, out, _ = run(
        capsys, "label", branched_file, "--scheme", "daisy", "--rfd", order
    )
    assert code == 0


def test_label_fdl(branched_file, capsys):
    code, out, _ = run(capsys, "label", branched_file, "--scheme", "fdl")
    assert code == 0
    labels = set(json.loads(out)["labels"].values())
    assert "00000" in labels and "11111" in labels


def test_label_emit_dot(branched_file, tmp_path, capsys):
    dot = tmp_path / "labelled.dot"
    code, _, _ = run(
        capsys,
        "label",
        branched_file,
        "--scheme",
        "daisy",
        "--emit-dot",
        str(dot),
    )
    assert code == 0
    text = dot.read_text()
    assert 'face="s1"' in text
    assert "00000" in text


def test_label_rejects_non_p2c(tmp_path, capsys):
    p = tmp_path / "pyrene.benz"
    p.write_text(PYRENE)
    code, out, _ = run(capsys, "label", str(p), "--scheme", "daisy")
    assert code == 2


def test_label_disconnected_composes(tmp_path, capsys):
    from rescube.benzenoid import build_benzenoid
    from rescube.plane_graph import graph_to_json, build_plane_graph

    hexagon = build_benzenoid([(0, 0)])
    vertices = [(v, *hexagon.coords[v]) for v in hexagon.vertices]
    vertices += [(v + 10, hexagon.coords[v][0] + 50, hexagon.coords[v][1]) for v in hexagon.vertices]
    edges = list(hexagon.edges) + [(u + 10, v + 10) for u, v in hexagon.edges]
    g = build_plane_graph(vertices, edges)
    p = tmp_path / "two.json"
    p.write_text(graph_to_json(g))
    code, out, _ = run(capsys, "label", str(p), "--scheme", "daisy", "--verify")
    assert code == 0
    obj = json.loads(out)
    assert sorted(obj["labels"].values()) == ["00", "01", "10", "11"]


def test_verify_pass_and_fail(branched_file, tmp_path, capsys):
    code, out, _ = run(capsys, "verify", branched_file)
    assert code == 0
    assert json.loads(out)["ok"] is True
    p = tmp_path / "pyrene.benz"
    p.write_text(PYRENE)
    code, out, _ = run(capsys, "verify", str(p))
    assert code == 2
    assert json.loads(out)["ok"] is False


def test_import_benzenoid_round_trip(branched_file, tmp_path, capsys):
    out = tmp_path / "graph.json"
    code, _, _ = run(capsys, "import-benzenoid", branched_file, "-o", str(out))
    assert code == 0
    g = graph_from_json(out.read_text())
    assert len(g.vertices) == 22 and len(g.edges) == 26
    # the JSON form goes through `check` identically
    code, printed, _ = run(capsys, "check", str(out))
    assert code == 0
    assert json.loads(printed)["vertices"] == 22


def test_hexagon_label_single_bit(tmp_path, capsys):
    p = tmp_path / "hexagon.benz"
    p.write_text(HEXAGON)
    code, out, _ = run(capsys, "label", str(p), "--scheme", "daisy")
    assert code == 0
    assert sorted(json.loads(out)["labels"].values()) == ["0", "1"]


def test_bad_rfd_order_exit_one(branched_file, capsys):
    code, _, err = run(
        capsys, "label", branched_file, "--scheme", "daisy", "--rfd", "1,2,bogus"
    )
    assert code == 1
    code, _, err = run(
        capsys, "label", branched_file, "--scheme", "daisy", "--rfd", "1,2"
    )
    assert code == 1
    assert "finite faces" in err


def test_verify_with_explicit_order(branched_file, capsys):
    code, out, _ = run(capsys, "rfd", branched_file)
    order = ",".join(str(f) for f in json.loads(out)["faces"])
    code, out, _ = run(capsys, "verify", branched_file, "--rfd", order)
    assert code == 0
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize("command", ["check", "rfd"])
def test_check_and_rfd_ignore_the_cap_variable(branched_file, capsys, monkeypatch, command):
    # the branched fixture has 14 perfect matchings; no cap binds either command
    expected = run(capsys, command, branched_file)
    monkeypatch.setenv("RESCUBE_CAP", "1")
    assert run(capsys, command, branched_file) == expected
    assert expected[0] == 0


def test_label_weakly_elementary_with_bridge(tmp_path, capsys):
    # hexagon with a pendant two-edge path: one hexagon component plus one
    # bare-edge component after dropping the forbidden bridge
    from rescube.benzenoid import build_benzenoid
    from rescube.plane_graph import build_plane_graph, graph_to_json

    hexagon = build_benzenoid([(0, 0)])
    anchor = max(hexagon.vertices, key=lambda v: hexagon.coords[v][0])
    vertices = [(v, *hexagon.coords[v]) for v in hexagon.vertices]
    vertices += [(100, 10, 0), (101, 12, 0)]
    edges = list(hexagon.edges) + [(anchor, 100), (100, 101)]
    p = tmp_path / "pendant.json"
    p.write_text(graph_to_json(build_plane_graph(vertices, edges)))
    code, out, _ = run(capsys, "label", str(p), "--scheme", "daisy")
    assert code == 0
    assert sorted(json.loads(out)["labels"].values()) == ["0", "1"]


@pytest.mark.parametrize("scheme", ["daisy", "fdl"])
def test_label_rejects_an_order_on_a_weakly_elementary_graph(tmp_path, capsys, scheme):
    # the components are labelled by their own decompositions, so a face
    # order is refused, as `rfd` refuses it, not ignored
    p = tmp_path / "hexagon_naphthalene.benz"
    p.write_text("0 0\n3 0\n4 0\n")
    argv = ["label", str(p), "--scheme", scheme]
    code, out, err = run(capsys, *argv, "--rfd", "99,98")
    assert code == 1
    assert out == ""
    assert "--rfd applies to elementary graphs" in err
    code, _, _ = run(capsys, "rfd", str(p), "--rfd", "99,98")
    assert code == 1
    code, out, _ = run(capsys, *argv, "--rfd", "auto")
    assert code == 0 and len(json.loads(out)["labels"]) == 6


@pytest.mark.parametrize("scheme", ["daisy", "fdl"])
@pytest.mark.parametrize(
    "name", ["two_hexagons", "branched5_plus_hexagon", "hexagon_plus_naphthalene"]
)
def test_composed_dot_names_faces_by_position(name, scheme, request, tmp_path, capsys):
    """Every DOT edge on face s<p> joins two labels that differ in bit p - 1
    only, on the composed path as on the elementary one."""
    p = tmp_path / "composed.json"
    p.write_text(graph_to_json(request.getfixturevalue(name)))
    dot = tmp_path / "labelled.dot"
    code, out, _ = run(capsys, "label", str(p), "--scheme", scheme, "--emit-dot", str(dot))
    assert code == 0
    labels = json.loads(out)["labels"]
    edges = [line for line in dot.read_text().splitlines() if " -- " in line]
    assert edges
    for line in edges:
        u, v, pos = re.fullmatch(r'  M(\d+) -- M(\d+) \[face="s(\d+)"\];', line).groups()
        flips = [i for i, (a, b) in enumerate(zip(labels[u], labels[v])) if a != b]
        assert flips == [int(pos) - 1], line


# the exact labels of the parent implementation; a sorted label set alone
# would not see the bit order reversed at the output edge
GOLDEN_LABELS = {
    ("branched5", "daisy"): {
        "0": "10100", "1": "00100", "2": "10000", "3": "00000", "4": "01000",
        "5": "10010", "6": "00010", "7": "01010", "8": "10001", "9": "00001",
        "10": "01001", "11": "10011", "12": "00011", "13": "01011",
    },
    ("branched5", "fdl"): {
        "0": "11111", "1": "01111", "2": "11011", "3": "01011", "4": "00011",
        "5": "11001", "6": "01001", "7": "00001", "8": "11010", "9": "01010",
        "10": "00010", "11": "11000", "12": "01000", "13": "00000",
    },
    ("hexagon_plus_naphthalene", "daisy"): {
        "0": "101", "1": "100", "2": "110", "3": "001", "4": "000", "5": "010",
    },
    ("hexagon_plus_naphthalene", "fdl"): {
        "0": "111", "1": "110", "2": "100", "3": "011", "4": "010", "5": "000",
    },
}


@pytest.mark.parametrize("name, scheme", sorted(GOLDEN_LABELS))
def test_label_golden_labels_and_dot_nodes(
    name, scheme, tmp_path, capsys, hexagon_plus_naphthalene
):
    # branched5 runs the elementary path, the disjoint hexagon and
    # naphthalene the composed one
    if name == "branched5":
        p = tmp_path / "branched.benz"
        p.write_text(BRANCHED)
    else:
        p = tmp_path / "composed.json"
        p.write_text(graph_to_json(hexagon_plus_naphthalene))
    dot = tmp_path / "labelled.dot"
    code, out, _ = run(
        capsys, "label", str(p), "--scheme", scheme, "--emit-dot", str(dot)
    )
    assert code == 0
    golden = GOLDEN_LABELS[name, scheme]
    assert json.loads(out)["labels"] == golden
    nodes = [line for line in dot.read_text().splitlines() if "[label=" in line]
    assert nodes == [
        f'  M{mid} [label="M{mid}\\n{golden[str(mid)]}"];' for mid in range(len(golden))
    ]


@pytest.mark.parametrize("scheme", ["daisy", "fdl"])
def test_label_golden_dot_edges(scheme, branched_file, tmp_path, capsys):
    dot = tmp_path / "labelled.dot"
    code, _, _ = run(capsys, "label", branched_file, "--scheme", scheme, "--emit-dot", str(dot))
    assert code == 0
    edges = [line for line in dot.read_text().splitlines() if " -- " in line]
    assert edges == (GOLDEN / "branched5_label_edges.dot").read_text().splitlines()


@pytest.mark.parametrize("name, scheme", sorted(GOLDEN_LABELS))
def test_plain_label_builds_no_resonance_graph(
    name, scheme, tmp_path, capsys, monkeypatch, hexagon_plus_naphthalene
):
    """Without --emit-dot or --verify nothing reads R(G), so label builds
    none, and writes the bytes it writes with --emit-dot."""
    p = tmp_path / "input"
    p.write_text(BRANCHED if name == "branched5" else graph_to_json(hexagon_plus_naphthalene))
    code, with_dot, _ = run(
        capsys, "label", str(p), "--scheme", scheme, "--emit-dot", str(tmp_path / "l.dot")
    )
    assert code == 0
    built = []
    build = cli.build_resonance
    monkeypatch.setattr(cli, "build_resonance", lambda *args: built.append(args) or build(*args))
    code, plain, _ = run(capsys, "label", str(p), "--scheme", scheme)
    assert code == 0 and built == []
    assert plain == with_dot
    assert json.loads(plain)["labels"] == GOLDEN_LABELS[name, scheme]


def test_parser_is_built_once_and_dispatch_reads_the_module(
    branched_file, tmp_path, capsys, monkeypatch
):
    """Two calls in one process share one parser and write the same bytes;
    dispatch looks the command function up by name at call time, so a
    patched ``cli.cmd_verify`` is the one that runs."""
    outs = []
    for name in ("a.json", "b.json"):
        target = tmp_path / name
        assert run(capsys, "verify", branched_file, "-o", str(target))[0] == 0
        outs.append(target.read_bytes())
    assert outs[0] == outs[1]
    assert cli._build_parser() is cli._build_parser()
    calls = []
    verify = cli.cmd_verify
    monkeypatch.setattr(cli, "cmd_verify", lambda args: calls.append(args.input) or verify(args))
    code, out, _ = run(capsys, "verify", branched_file)
    assert code == 0 and calls == [branched_file]
    assert out.encode() == outs[0]


@pytest.mark.parametrize(
    "argv",
    [["rfd"], ["label", "--scheme", "daisy"], ["label", "--scheme", "fdl", "--emit-dot", "DOT"]],
    ids=["rfd", "label-daisy", "label-fdl-dot"],
)
def test_rfd_and_plain_label_embed_no_subgraph(argv, branched_file, tmp_path, capsys, monkeypatch):
    """The decomposition is found on the graph's own faces, and without
    --verify nothing reads its prefixes, so none is embedded; with --verify
    each of the n - 1 proper prefixes is embedded once."""
    from rescube import decomposition, plane_graph

    built = []
    embed = plane_graph.edge_subgraph
    for module in (decomposition, plane_graph):
        monkeypatch.setattr(module, "edge_subgraph", lambda *a: built.append(a) or embed(*a))
    argv = [str(tmp_path / "l.dot") if a == "DOT" else a for a in argv]
    code, _, _ = run(capsys, *argv, branched_file)
    assert code == 0 and built == []
    code, _, _ = run(capsys, "label", "--scheme", "daisy", "--verify", branched_file)
    assert code == 0 and len(built) == 4

