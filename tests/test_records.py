"""The package's records: tuples (typing.NamedTuple) and the read-only
RootSystem.  Validation raises typed errors, fields cannot be assigned, and
ordering, truth and JSON serialization are as documented."""

import pytest

from lieinduct.cli import _jsonable
from lieinduct.deletion import RowResult, delete_node, deletion_equivalences
from lieinduct.errors import InvalidType, NotACharacter
from lieinduct.induction import TargetDiagram, exceptional_report, induction_search
from lieinduct.rep_theory import is_defining, module_descriptor
from lieinduct.root_system import (
    DynkinType,
    RootSystem,
    build_root_system,
    cartan_matrix,
    classify_subdiagram,
    parse_dynkin,
)
from lieinduct.tensor_ops import DecompositionResult, tensor_decompose


def rsys(label):
    return build_root_system(parse_dynkin(label))


def test_dynkin_type_rejects_out_of_range_ranks_and_families():
    for family, rank in [("A", 33), ("A", 0), ("C", 2), ("E", 9), ("H", 3)]:
        with pytest.raises(InvalidType):
            DynkinType(family, rank)
    assert str(DynkinType("E", 8)) == "E8"
    assert repr(DynkinType("E", 8)) == "DynkinType(family='E', rank=8)"


def test_unbalanced_decomposition_raises_not_a_character():
    dec = tensor_decompose(rsys("A2"), (1, 0), (0, 1))
    assert DecompositionResult(dec.summands, dec.source_dimension) == dec
    with pytest.raises(NotACharacter):
        DecompositionResult(dec.summands, dec.source_dimension + 1)
    with pytest.raises(NotACharacter):
        DecompositionResult(dec.summands[1:], dec.source_dimension)


def _records():
    """One instance of every record type, from real computations where cheap."""
    rs = rsys("G2")
    deletion = delete_node(rs, 1)
    report = exceptional_report("G3", max_depth=4)
    row = RowResult("G2/1/A1", True, 3, ((1,),), ((1,),), "ok")
    return [
        DynkinType("G", 2),
        rs.cartan,
        classify_subdiagram(rs.cartan.entries, rs.cartan.symmetrizer, [2])[0],
        module_descriptor(rs, (1, 0)),
        tensor_decompose(rs, (1, 0), (1, 0)),
        deletion,
        deletion.zero_level,
        deletion.levels[0],
        deletion_equivalences(DynkinType("D", 4), 1),
        row,
        TargetDiagram("G2", cartan_matrix(DynkinType("G", 2))),
        induction_search(rs, (1, 0), max_depth=3)[0],
        report.routes[0],
        report,
    ]


def test_record_fields_cannot_be_assigned():
    records = _records()
    assert len({type(r) for r in records}) == len(records)
    for rec in records:
        for name in [*type(rec)._fields, "extra"]:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)


def test_root_system_is_read_only_with_identity_equality():
    rs = rsys("B3")
    rs.weyl_denominator  # cached properties still fill the instance's __dict__
    for name in ["type", "rank", "cartan", "positive_roots", "highest_root",
                 "positive_weights", "_raising", "weyl_denominator", "extra"]:
        with pytest.raises(AttributeError):
            setattr(rs, name, None)
        with pytest.raises(AttributeError):
            delattr(rs, name)
    copy = RootSystem(rs.type, rs.cartan)
    assert copy != rs and rs == rs
    assert len({rs, copy, rs}) == 2
    assert copy.rank == 3 and copy.positive_weights == rs.positive_weights


def test_module_descriptors_sort_by_algebra_then_weight_then_dimension():
    mds = [
        module_descriptor(rsys(label), w)
        for label, w in [("G2", (1, 0)), ("A2", (0, 1)), ("B3", (0, 0, 1)),
                         ("A2", (1, 0)), ("A10", (1,) + (0,) * 9), ("A2", (0, 0)),
                         ("A3", (0, 1, 0)), ("G2", (0, 1))]
    ]
    def field_order(md):  # the order of the fields' values, family before rank
        return (md.algebra.family, md.algebra.rank), md.highest_weight, md.dimension
    assert sorted(mds) == sorted(mds, key=field_order)
    assert [str(md.algebra) for md in sorted(mds)][:4] == ["A2", "A2", "A2", "A3"]


def test_defining_check_truth_is_its_verdict():
    # the check returns its verdict as a bool, not a record
    assert is_defining(rsys("G2"), (2, 0)) is False
    assert is_defining(rsys("G2"), (1, 0)) is True


def test_json_serializes_dynkin_types_as_labels():
    assert _jsonable(DynkinType("E", 8)) == "E8"
    assert _jsonable({"bases": (DynkinType("G", 2), [DynkinType("A", 2)])}) == {
        "bases": ["G2", ["A2"]]
    }
