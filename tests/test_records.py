"""The nine frozen result types: construction, equality, ``repr``, immutability,
the signature and the ``dataclasses`` functions, as ``@dataclass(frozen=True)`` gave them."""

import dataclasses
import inspect
import os
import pprint
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dirpoly
from dirpoly import (AreaCheck, BundleMorphism, CrossAreaCheck, CrossMeasures, LabelledBundle, Measures,
                     RationalDistribution, RectValue, WidthApprox, check_cross_rectangle_area, check_rectangle_area,
                     cross_measures, from_rational_distribution, measures, parse, rect_of, to_distribution)
from dirpoly.core import _adopt

MEASURE_ARGS = (7, 256, 2.2081790273476245, 1.6644977792004612, 3.1700328249236733)
CROSS_ARGS = (1.0, 4, 2.0, 2.0, 0.18872187554086717)
MEASURES, CROSS = Measures(*MEASURE_ARGS), CrossMeasures(*CROSS_ARGS)
HALVES = ((("h", Fraction(1, 3)), ("t", Fraction(2, 3))),)

# (class, positional arguments, repr as the dataclasses wrote it)
CASES = [
    (LabelledBundle, ((("a", 3), ("b", 1)),), "LabelledBundle(fibres=(('a', 3), ('b', 1)))"),
    (RationalDistribution, HALVES,
     "RationalDistribution(entries=(('h', Fraction(1, 3)), ('t', Fraction(2, 3))))"),
    (RectValue, (3, 27), "RectValue(area=3, power_product=27)"),
    (WidthApprox, (2.0, 1e-12), "WidthApprox(value=2.0, relative_error_bound=1e-12)"),
    (Measures, MEASURE_ARGS,
     "Measures(area=7, power_product=256, width=2.2081790273476245, entropy=1.6644977792004612, "
     "length=3.1700328249236733)"),
    (CrossMeasures, CROSS_ARGS,
     "CrossMeasures(cross_entropy=1.0, cross_area=4, cross_width=2.0, cross_length=2.0, kl=0.18872187554086717)"),
    (AreaCheck, (MEASURES, 6.999999999999999, 8.881784197001252e-16, 7.000000000000001e-09, 0.0,
                 1.965148445440323e-08, 1e-09, True),
     "AreaCheck(measures=Measures(area=7, power_product=256, width=2.2081790273476245, "
     "entropy=1.6644977792004612, length=3.1700328249236733), product=6.999999999999999, "
     "float_error=8.881784197001252e-16, float_bound=7.000000000000001e-09, log_error=0.0, "
     "log_bound=1.965148445440323e-08, tol=1e-09, passed=True)"),
    (CrossAreaCheck, ("pass", CROSS, 4.0, 0.0, 4e-09, 1e-09),
     "CrossAreaCheck(status='pass', cross=CrossMeasures(cross_entropy=1.0, cross_area=4, cross_width=2.0, "
     "cross_length=2.0, kl=0.18872187554086717), product=4.0, float_error=0.0, float_bound=4e-09, tol=1e-09)"),
    (BundleMorphism, ((("a", "b"),), ((1,),)), "BundleMorphism(base_map=(('a', 'b'),), total_maps=((1,),))"),
]
FIELDS = {
    LabelledBundle: ("fibres",),
    RationalDistribution: ("entries",),
    RectValue: ("area", "power_product"),
    WidthApprox: ("value", "relative_error_bound"),
    Measures: ("area", "power_product", "width", "entropy", "length"),
    CrossMeasures: ("cross_entropy", "cross_area", "cross_width", "cross_length", "kl"),
    AreaCheck: ("measures", "product", "float_error", "float_bound", "log_error", "log_bound", "tol", "passed"),
    CrossAreaCheck: ("status", "cross", "product", "float_error", "float_bound", "tol"),
    BundleMorphism: ("base_map", "total_maps"),
}
ids = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, args, text", CASES, ids=ids)
def test_construction_by_position_and_keyword(cls, args, text):
    assert cls.__match_args__ == tuple(inspect.signature(cls).parameters) == FIELDS[cls]
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(reversed(FIELDS[cls]), reversed(args))))
    assert [getattr(by_position, name) for name in FIELDS[cls]] == list(args)
    assert by_keyword == by_position
    assert repr(by_position) == repr(by_keyword) == text


@pytest.mark.parametrize("cls, args, text", CASES, ids=ids)
def test_wrong_arguments_raise_type_error(cls, args, text):
    names = FIELDS[cls]
    with pytest.raises(TypeError):
        cls(*args[:-1])
    with pytest.raises(TypeError):
        cls(*args, args[0])
    with pytest.raises(TypeError):
        cls(*args[:-1], **{names[-1]: args[-1], "extra": 1})
    with pytest.raises(TypeError):
        cls(*args, **{names[0]: args[0]})


@pytest.mark.parametrize("cls, args, text", CASES, ids=ids)
def test_fields_are_read_only(cls, args, text):
    record = cls(*args)
    for name in (FIELDS[cls][0], "new_name"):
        with pytest.raises(AttributeError):
            setattr(record, name, args[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert getattr(record, FIELDS[cls][0]) == args[0] and not hasattr(record, "new_name")


@pytest.mark.parametrize("cls, args, text", CASES, ids=ids)
def test_equality_and_hash_go_by_the_fields(cls, args, text):
    record, twin = cls(*args), cls(*args)
    assert record == twin and hash(record) == hash(twin) and {record, twin} == {twin}
    assert record.__eq__(args) is NotImplemented and record != args and record != object()
    other = RectValue(3, 27) if cls is not RectValue else WidthApprox(3, 27)
    assert record != other and other != record


@pytest.mark.parametrize("cls, args, text", CASES, ids=ids)
def test_dataclasses_functions_take_records(cls, args, text):
    record = cls(*args)
    assert dataclasses.is_dataclass(record) and dataclasses.is_dataclass(cls)
    assert tuple([f.name for f in dataclasses.fields(record)]) == FIELDS[cls]
    assert dataclasses.astuple(record) == tuple([dataclasses.astuple(v) if dataclasses.is_dataclass(v) else v
                                                 for v in args])
    copy = dataclasses.replace(record)
    assert copy == record and copy is not record and type(copy) is cls
    assert dataclasses.replace(record, **{FIELDS[cls][-1]: args[-1]}) == record
    assert pprint.pformat([record], width=20).startswith(f"[{cls.__name__}(")  # reads __dataclass_params__


def test_replace_runs_the_checks_of_the_constructor():
    bundle = LabelledBundle([("a", 3), ("b", 1)])
    assert dataclasses.replace(bundle, fibres=[("a", 1)]).num_draws == 1
    with pytest.raises(ValueError, match="duplicate outcome label"):
        dataclasses.replace(bundle, fibres=[("a", 1), ("a", 2)])
    assert dataclasses.replace(RectValue(3, 27), area=0) == RectValue(0, 1)
    with pytest.raises(ValueError):
        dataclasses.replace(RectValue(3, 27), power_product=-1)


def test_match_binds_fields_by_position():
    match RectValue(3, 27):
        case RectValue(area, power):
            assert (area, power) == (3, 27)
        case _:
            pytest.fail("RectValue did not match")


def test_adopted_results_equal_the_constructed_ones():
    d = parse("4^y + 3")
    bd, be = LabelledBundle([("a", 3), ("b", 1)]), LabelledBundle([("a", 2), ("b", 2)])
    dist = RationalDistribution(*HALVES)
    adopted = [rect_of(d), measures(d), check_rectangle_area(d), cross_measures(bd, be),
               check_cross_rectangle_area(bd, be), from_rational_distribution(dist), to_distribution(bd)]
    for result in adopted:
        built = type(result)(*[getattr(result, name) for name in FIELDS[type(result)]])
        assert result == built and hash(result) == hash(built) and repr(result) == repr(built)
    assert rect_of(d) == RectValue(7, 256)
    assert from_rational_distribution(dist) == LabelledBundle([("h", 1), ("t", 2)])
    assert to_distribution(bd) == RationalDistribution([("a", Fraction(3, 4)), ("b", Fraction(1, 4))])
    assert from_rational_distribution(dist).num_draws == 3
    assert _adopt(LabelledBundle, {"fibres": (("a", 3), ("b", 1))}).num_draws == 4


def test_a_plain_subclass_inherits_the_fields():
    class Rect(RectValue):
        pass

    class Tally(Measures):
        pass

    assert Rect(1, 2) != Rect(3, 4) and Rect(1, 2) == Rect(1, 2) and hash(Rect(1, 2)) == hash(Rect(1, 2))
    assert Rect(1, 2) != RectValue(1, 2) and Rect(0, 5).power_product == 1
    assert repr(Rect(1, 2)) == f"{Rect.__qualname__}(area=1, power_product=2)"
    tally = Tally(*MEASURE_ARGS)
    assert Tally.__match_args__ == FIELDS[Measures] and dataclasses.astuple(tally) == MEASURE_ARGS
    assert tuple(inspect.signature(Tally).parameters) == FIELDS[Measures]
    assert repr(tally) == repr(MEASURES).replace("Measures(", f"{Tally.__qualname__}(", 1)


def test_a_dataclass_subclass_adds_its_fields_after_the_records():
    @dataclasses.dataclass(frozen=True)
    class Tagged(Measures):
        tag: str

    tagged = Tagged(*MEASURE_ARGS, "t")
    assert Tagged.__match_args__ == (*FIELDS[Measures], "tag") and dataclasses.astuple(tagged) == (*MEASURE_ARGS, "t")
    assert dataclasses.replace(tagged, tag="u").tag == "u" and tagged == Tagged(*MEASURE_ARGS, "t")
    with pytest.raises(AttributeError):
        tagged.tag = "u"


def _fresh(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter that imports this checkout's dirpoly."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(dirpoly.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_help_on_a_record_leaves_the_other_records_dataclasses():
    # pydoc reads every attribute of every class in the MRO, the shared base too, before Measures or WidthApprox.
    code = ("import dataclasses, inspect, pydoc; from dirpoly import LabelledBundle, Measures, WidthApprox; "
            "pydoc.render_doc(LabelledBundle); m, w = Measures(1, 1, 1.0, 0.0, 1.0), WidthApprox(2.0, 1e-12); "
            "print([f.name for f in dataclasses.fields(m)], dataclasses.astuple(w), "
            "dataclasses.replace(m, entropy=0.5).entropy, "
            "list(inspect.signature(Measures).parameters), list(inspect.signature(WidthApprox).parameters))")
    names, widths = list(FIELDS[Measures]), list(FIELDS[WidthApprox])
    assert _fresh(code) == f"{names} (2.0, 1e-12) 0.5 {names} {widths}\n"


def test_import_dirpoly_cli_loads_no_dataclasses_machinery():
    code = "import sys; before = set(sys.modules); import dirpoly.cli; print(' '.join(sorted(set(sys.modules) - before)))"
    added = set(_fresh(code).split())
    assert "dirpoly.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
