import copy
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sewcells.catalog import model_cosymplectic_cell, standard_cells
from sewcells.charts import ContactStructure, sample_points, validate_structure
from sewcells.manifold_io import (
    ManifoldFileError,
    digest,
    dumps,
    load_manifold,
    save_manifold,
    structure_from_dict,
    structure_to_dict,
)
from sewcells.sewing import SewnManifold, sew


def _roundtrip(cell, tmp_path, name="cell.json"):
    path = tmp_path / name
    save_manifold(cell, path)
    return path, load_manifold(path)


class TestRoundTrip:
    def test_catalog_cells_round_trip_structurally(self, catalog_cells, tmp_path):
        for i, cell in enumerate(catalog_cells):
            path, loaded = _roundtrip(cell, tmp_path, f"cell{i}.json")
            assert loaded.name == cell.name
            assert loaded.chart == cell.chart
            assert loaded.metric.components == cell.metric.components
            assert loaded.phi.components == cell.phi.components
            assert loaded.xi.components == cell.xi.components
            assert loaded.eta.components == cell.eta.components
            # a second dump is byte-identical
            assert dumps(loaded) == path.read_text(encoding="utf-8")

    def test_sewn_manifold_round_trips_with_provenance(self, model_cell, tmp_path):
        sewn = sew([model_cell, model_cell])
        path, loaded = _roundtrip(sewn, tmp_path, "sewn.json")
        assert isinstance(loaded, SewnManifold)
        assert loaded.cell_count == 2
        assert loaded.eta_scale == sewn.eta_scale
        # identical residual tables after reload
        samples = sample_points(sewn.chart, 10, 7)
        before = validate_structure(sewn, samples, 1e-9)
        after = validate_structure(loaded, samples, 1e-9)
        for b, a in zip(before.checks, after.checks):
            assert a.residual == b.residual

    def test_digest_is_stable(self, flat_cell, tmp_path):
        """The bytes ``save_manifold`` returns are the file's, and their digest is its SHA-256."""
        path = tmp_path / "cell.json"
        written = save_manifold(flat_cell, path)
        assert written == path.read_bytes()
        assert digest(written) == digest(path.read_bytes()) == hashlib.sha256(written).hexdigest()


class TestLoaderErrors:
    def _doc(self, flat_cell):
        return structure_to_dict(flat_cell)

    def _write(self, tmp_path, doc):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json", encoding="utf-8")
        with pytest.raises(ManifoldFileError):
            load_manifold(path)

    def test_rejects_asymmetric_metric_naming_entries(self, flat_cell, tmp_path):
        doc = self._doc(flat_cell)
        doc["metric"][0][1] = "x"
        doc["metric"][1][0] = "y"
        with pytest.raises(ManifoldFileError) as err:
            load_manifold(self._write(tmp_path, doc))
        assert "metric[0][1]" in str(err.value) and "metric[1][0]" in str(err.value)

    def test_upper_triangle_may_be_null(self, flat_cell, tmp_path):
        doc = self._doc(flat_cell)
        doc["metric"][0][1] = None
        doc["metric"][0][2] = None
        doc["metric"][1][2] = None
        loaded = load_manifold(self._write(tmp_path, doc))
        assert loaded.metric.components == flat_cell.metric.components

    def test_lower_triangle_is_required(self, flat_cell, tmp_path):
        doc = self._doc(flat_cell)
        doc["metric"][1][0] = None
        with pytest.raises(ManifoldFileError) as err:
            load_manifold(self._write(tmp_path, doc))
        assert "lower triangle" in str(err.value)

    def test_rejects_unknown_coordinate_in_expression(self, flat_cell, tmp_path):
        doc = self._doc(flat_cell)
        doc["xi"][0] = "q + 1"
        with pytest.raises(ManifoldFileError) as err:
            load_manifold(self._write(tmp_path, doc))
        assert "xi[0]" in str(err.value)

    def test_rejects_undeclared_adapted_coordinate(self, flat_cell, tmp_path):
        doc = self._doc(flat_cell)
        doc["adapted_coordinate"] = "w"
        with pytest.raises(ManifoldFileError):
            load_manifold(self._write(tmp_path, doc))

    def test_rejects_missing_keys(self, flat_cell, tmp_path):
        doc = self._doc(flat_cell)
        del doc["phi"]
        with pytest.raises(ManifoldFileError):
            load_manifold(self._write(tmp_path, doc))

    def test_rejects_wrong_shape(self, flat_cell, tmp_path):
        doc = self._doc(flat_cell)
        doc["eta"] = ["1", "0"]
        with pytest.raises(ManifoldFileError):
            load_manifold(self._write(tmp_path, doc))

    def test_rejects_unknown_format_tag(self, flat_cell, tmp_path):
        doc = self._doc(flat_cell)
        doc["format"] = "something-else/9"
        with pytest.raises(ManifoldFileError):
            load_manifold(self._write(tmp_path, doc))

    @pytest.mark.parametrize("key", ["metric", "phi"])
    @pytest.mark.parametrize("row", [0, {}, {"0": "1"}, "abc", None], ids=["int", "empty-dict", "dict", "str", "null"])
    def test_rejects_grid_rows_that_are_not_lists(self, flat_cell, key, row):
        doc = self._doc(flat_cell)
        doc[key] = [row] * 3
        with pytest.raises(ManifoldFileError, match=f"{key} must be a 3x3 grid"):
            structure_from_dict(doc)

    def test_rejects_no_coordinates(self, flat_cell):
        doc = self._doc(flat_cell)
        doc.update(coordinates=[], adapted_coordinate=None)
        with pytest.raises(ManifoldFileError, match="non-empty list of names"):
            structure_from_dict(doc)

    @pytest.mark.parametrize("name", [7, None, ["a"], {"a": 1}, True])
    def test_rejects_a_name_that_is_not_a_string(self, flat_cell, name):
        doc = self._doc(flat_cell)
        doc["name"] = name
        with pytest.raises(ManifoldFileError, match="name must be a string"):
            structure_from_dict(doc)

    def test_a_repeated_bad_string_is_reported_at_its_first_position(self, flat_cell):
        """Each distinct string parses once per definition; a string that
        fails names the first entry that holds it, in the order the loader
        reads: the metric, phi, xi and eta."""
        doc = self._doc(flat_cell)
        doc["eta"][1] = doc["xi"][2] = doc["phi"][2][0] = doc["phi"][1][2] = "1 +"
        with pytest.raises(ManifoldFileError, match=r"^phi\[1\]\[2\]: "):
            structure_from_dict(doc)
        doc["phi"][0][0] = doc["metric"][2][1] = "q + 1"
        with pytest.raises(ManifoldFileError, match=r"^metric\[2\]\[1\]: "):
            structure_from_dict(doc)

    def test_a_mismatched_mirror_is_rejected_when_both_strings_repeat(self, flat_cell):
        """metric[0][1] holds the string of metric[0][0], which parsed
        already; it is still compared with its mirror metric[1][0]."""
        doc = self._doc(flat_cell)
        assert doc["metric"][0][0] != doc["metric"][1][0]
        doc["metric"][0][1] = doc["metric"][0][0]
        with pytest.raises(ManifoldFileError, match="metric is not symmetric") as err:
            structure_from_dict(doc)
        assert f"metric[0][1] = {doc['metric'][0][0]!r} vs metric[1][0]" in str(err.value)

    def test_equal_strings_share_one_tree_per_definition(self, flat_cell):
        doc = self._doc(flat_cell)
        first, second = structure_from_dict(doc), structure_from_dict(doc)
        zeros = [first.metric.components[1][0], first.phi.components[0][0], first.xi.components[1]]
        assert all(tree is zeros[0] for tree in zeros)
        assert second.metric.components[1][0] is not zeros[0]  # no memo outlives one definition
        assert second.metric.components == first.metric.components

    def test_malformed_expression_reports_location(self, flat_cell, tmp_path):
        doc = self._doc(flat_cell)
        doc["phi"][1][2] = "1 +"
        with pytest.raises(ManifoldFileError) as err:
            load_manifold(self._write(tmp_path, doc))
        assert "phi[1][2]" in str(err.value)


def _bad_provenance(doc, key, value):
    doc["provenance"]["sewn"][key] = value


@pytest.mark.parametrize(
    "spoil",
    [
        lambda doc: _bad_provenance(doc, "cell_count", "two"),
        lambda doc: _bad_provenance(doc, "cell_count", -1),
        lambda doc: doc.update(domain=[5]),
        lambda doc: _bad_provenance(doc, "sources", 5),
    ],
    ids=["cell_count_text", "cell_count_negative", "domain_not_text", "sources_not_list"],
)
def test_malformed_sewn_file_is_an_input_error(spoil, model_cell, tmp_path, capsys):
    from sewcells.cli import EXIT_INPUT, main

    doc = structure_to_dict(sew([model_cell, model_cell]))
    spoil(doc)
    path = tmp_path / "sewn.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ManifoldFileError):
        load_manifold(path)
    assert main(["verify", str(path), "--points", "3"]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def _spoiled_documents():
    """(label, document) for inputs that once reached the commands past the
    loader: grid rows that are not lists, no coordinates, a name that is not
    a string."""
    def spoiled(**changes):
        doc = structure_to_dict(model_cosymplectic_cell(1.0))
        doc.update(changes)
        return doc

    return [
        ("metric-int-rows", spoiled(metric=[1, 2, 3])),
        ("phi-dict-rows", spoiled(phi=[{}, {}, {}])),
        ("no-coordinates", spoiled(coordinates=[])),
        ("name-int", spoiled(name=5)),
    ]


COMMANDS = pytest.mark.parametrize("command", [["verify"], ["nullity"], ["sew", "--copies", "2", "--out", "sewn.json"]],
                                   ids=["verify", "nullity", "sew"])


@COMMANDS
def test_malformed_definition_is_an_input_error(command, tmp_path, monkeypatch, capsys):
    from sewcells.cli import EXIT_INPUT, main

    monkeypatch.chdir(tmp_path)
    for label, doc in _spoiled_documents():
        with open("cell.json", "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        assert main([command[0], "cell.json", *command[1:], "--points", "5"]) == EXIT_INPUT, label
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "Traceback" not in err, label


_VALID = structure_to_dict(model_cosymplectic_cell(1.0), provenance={"catalog": "model_cosymplectic"})
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=16,
)


@settings(max_examples=150, deadline=None)
@given(key=st.sampled_from(sorted(_VALID)), value=_JSON | st.lists(_JSON, min_size=3, max_size=3))
def test_any_json_value_under_one_key_loads_or_is_a_file_error(key, value):
    """A valid cell document with one top-level key replaced by any JSON
    value (lists of three values too, the length of every grid and vector)
    gives a structure or ``ManifoldFileError``, never another exception."""
    doc = copy.deepcopy(_VALID)
    doc[key] = value
    try:
        assert isinstance(structure_from_dict(doc), ContactStructure)
    except ManifoldFileError:
        pass


@COMMANDS
@pytest.mark.parametrize("data", [b"\xff\xfe{\x00}\x00", b"[" * 100_000], ids=["not-utf8", "nested-100000"])
def test_unreadable_file_is_an_input_error(command, data, tmp_path, monkeypatch, capsys):
    """A file that is not UTF-8 text, or JSON nested deeper than the decoder
    can recurse, exits 2 with an input error and no traceback."""
    from sewcells.cli import EXIT_INPUT, main

    monkeypatch.chdir(tmp_path)
    Path("cell.json").write_bytes(data)
    assert main([command[0], "cell.json", *command[1:], "--points", "5"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: cell.json: ") and "Traceback" not in err
    assert not Path("sewn.json").exists()


_DEFINITIONS = [dumps(cell).encode("utf-8") for cell in standard_cells()]


@st.composite
def _edited_definition(draw) -> bytes:
    """A catalog definition's bytes, cut at a drawn offset or with one byte replaced."""
    data = draw(st.sampled_from(_DEFINITIONS))
    if draw(st.booleans()):
        return data[:draw(st.integers(0, len(data)))]
    at = draw(st.integers(0, len(data) - 1))
    return data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]


@settings(max_examples=150, deadline=None)
@given(data=st.binary(max_size=64) | _edited_definition())
def test_verify_exits_0_1_or_2_on_any_file(data, tmp_path_factory):
    """``verify`` on any file, arbitrary bytes or an edited catalog
    definition, returns 0, 1 or 2 and raises nothing."""
    from sewcells.cli import main

    path = tmp_path_factory.getbasetemp() / "any-file.json"
    path.write_bytes(data)
    assert main(["verify", str(path), "--points", "5"]) in (0, 1, 2)
