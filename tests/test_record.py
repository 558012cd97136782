"""model.Record: the value-type base every library type derives from."""

from datetime import date

import pytest

from dwtlife.bearing import LifeModFactors
from dwtlife.model import Record
from dwtlife.schedule import InstallationRecord


class Point(Record):
    x: float
    y: float
    label: str = "p"

    def __post_init__(self):
        if self.x < 0:
            raise ValueError("x must be >= 0")


class Other(Record):
    x: float
    y: float
    label: str = "p"


class TestConstruction:
    def test_positional_keyword_and_default(self):
        assert Point(1.0, 2.0).label == "p"
        assert Point(1.0, y=2.0, label="q") == Point(x=1.0, y=2.0, label="q")
        assert Point(label="q", y=2.0, x=1.0)._values() == (1.0, 2.0, "q")

    def test_post_init_runs_after_the_fields_are_set(self):
        with pytest.raises(ValueError, match="x must be >= 0"):
            Point(-1.0, 2.0)

    @pytest.mark.parametrize("args, kwargs, message", [
        ((1.0, 2.0), {"z": 3.0}, "Point.__init__() got an unexpected keyword argument 'z'"),
        ((1.0,), {}, "Point.__init__() missing required argument: 'y'"),
        ((), {}, "Point.__init__() missing required arguments: 'x', 'y'"),
        ((1.0, 2.0), {"x": 3.0}, "Point.__init__() got multiple values for argument 'x'"),
        ((1.0, 2.0, "q", 4), {}, "Point.__init__() takes 4 positional arguments but 5 were given"),
    ])
    def test_a_bad_call_is_a_type_error(self, args, kwargs, message):
        with pytest.raises(TypeError) as info:
            Point(*args, **kwargs)
        assert str(info.value) == message

    def test_unknown_keyword_text_of_a_library_type(self):
        with pytest.raises(TypeError) as info:
            LifeModFactors(a1=1.0, a2=1.0, a3=0.1, a4=0.85, a9=1.0)
        assert str(info.value) == (
            "LifeModFactors.__init__() got an unexpected keyword argument 'a9'"
        )

    def test_a_mutable_default_is_not_shared(self):
        first = InstallationRecord(install_date=date(2025, 1, 1))
        second = InstallationRecord(install_date=date(2025, 1, 1))
        assert first.cycle_log == {} and first.cycle_log is not second.cycle_log


class TestImmutability:
    def test_assignment_and_deletion_raise_attribute_error(self):
        point = Point(1.0, 2.0)
        with pytest.raises(AttributeError, match="cannot assign to field 'x'"):
            point.x = 3.0
        with pytest.raises(AttributeError, match="cannot assign to field 'z'"):
            point.z = 3.0
        with pytest.raises(AttributeError, match="cannot delete field 'x'"):
            del point.x
        assert point == Point(1.0, 2.0)


class TestValueSemantics:
    def test_equality_and_hash_follow_the_fields(self):
        assert Point(1.0, 2.0) == Point(1.0, 2.0, "p")
        assert Point(1.0, 2.0) != Point(1.0, 3.0)
        assert hash(Point(1.0, 2.0)) == hash(Point(1.0, 2.0))
        assert len({Point(1.0, 2.0), Point(1.0, 2.0), Point(2.0, 1.0)}) == 2

    def test_another_type_with_the_same_fields_is_not_equal(self):
        assert Point(1.0, 2.0) != Other(1.0, 2.0)
        assert Point(1.0, 2.0) != (1.0, 2.0, "p")

    def test_unhashable_field_makes_the_record_unhashable(self):
        with pytest.raises(TypeError):
            hash(InstallationRecord(install_date=date(2025, 1, 1)))

    def test_repr_is_dataclass_style(self):
        assert repr(Point(1.0, 2.5)) == "Point(x=1.0, y=2.5, label='p')"
        assert repr(LifeModFactors(1.0, 1.0, 0.1, 0.85)) == (
            "LifeModFactors(a1=1.0, a2=1.0, a3=0.1, a4=0.85)"
        )
