"""The program's records: NamedTuple value records and the few plain classes
that validate, cache or mutate keep the semantics the pipeline relies on."""

import io

import pytest

from mirrorcone import bside, fans, grading, intlat, koszulalg, report, toricdata
from mirrorcone.fans import Subdivision, project_config, regular_subdivision
from mirrorcone.fixtures import fixture
from mirrorcone.grading import GradingDatum, GradingError, build_grading_data
from mirrorcone.intlat import FiniteAbelianGroup, LatticeError, hnf_canonicalize
from mirrorcone.report import write_json
from tests_support import generic_weights, reweighted

VALUE_RECORDS = {
    "Term", "Superpotential", "DualizationReport", "ProjectedConfig", "Subdivision",
    "ConditionReport", "LiftedCell", "SingularityCertificate",
    "GradingMorphism", "GradingData", "Sublattice", "GradedDims",
    "DeformationClassification", "LatticeSpec", "ToricInput", "ConditionVerdict",
    "SymmetryGroups",
}


def named_tuple_classes():
    return {name: cls for module in (bside, fans, grading, intlat, koszulalg, toricdata)
            for name, cls in vars(module).items()
            if isinstance(cls, type) and issubclass(cls, tuple) and hasattr(cls, "_fields")}


def test_the_value_records_are_the_named_tuples():
    assert set(named_tuple_classes()) == VALUE_RECORDS


@pytest.mark.parametrize("name", sorted(VALUE_RECORDS))
def test_assigning_to_a_value_record_field_raises(name):
    cls = named_tuple_classes()[name]
    record = cls._make(range(len(cls._fields)))
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], -1)


def test_records_built_apart_from_equal_inputs_are_equal_and_hash_equal():
    a = GradingDatum("G", 2, ((2, 1, 1),))
    b = GradingDatum("G", 2, tuple([(2, 1, 1)]))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != GradingDatum("H", 2, ((2, 1, 1),))
    assert a.relation_lattice == b.relation_lattice
    assert a.equal((3, 1, 2), [1, 0, 1]) and b.equal([3, 1, 2], (1, 0, 1))
    # one lattice from two generator sets
    lat1, lat2 = hnf_canonicalize([(2, 0), (0, 3)], 2), hnf_canonicalize([(2, 3), (0, 3)], 2)
    assert lat1 == lat2 and hash(lat1) == hash(lat2)
    vt = fixture("quartic")
    gd1, gd2 = build_grading_data(vt), build_grading_data(vt)
    assert gd1.cover == gd2.cover and hash(gd1.cover) == hash(gd2.cover)
    assert gd1.p == gd2.p


def test_a_relator_of_the_wrong_length_is_refused_at_construction():
    # an odd relator: tests/test_grading.py::test_odd_relator_rejected
    with pytest.raises(GradingError, match="length"):
        GradingDatum("bad", 2, ((2, 1),))


@pytest.mark.parametrize("factors", [(2, 3), (1, 2), (4, 2)])
def test_a_bad_invariant_factor_chain_is_refused_at_construction(factors):
    with pytest.raises(LatticeError):
        FiniteAbelianGroup(factors)


def test_subdivisions_do_not_share_one_parents_dict():
    with pytest.raises(TypeError, match="parents"):
        Subdivision(cells=(), supports={}, weights={}, perturbed=False)
    vt = fixture("quartic")
    first = regular_subdivision(project_config(reweighted(vt, generic_weights(vt, 1))))
    second = regular_subdivision(project_config(reweighted(vt, generic_weights(vt, 2))))
    assert first.parents == {} == second.parents
    assert first.parents is not second.parents


def test_write_json_refuses_a_record():
    verdict = toricdata.check_no_bc(fixture("quartic"))
    with pytest.raises(TypeError, match="ConditionVerdict"):
        write_json({"no_bc": verdict}, io.StringIO())


def test_the_section_names_have_one_definition():
    import mirrorcone

    assert report.ALL_SECTIONS is mirrorcone.ALL_SECTIONS
    assert tuple(report.SECTIONS) == report.ALL_SECTIONS
