"""Shared domain types, the Record base of every value type, the one
JSON document reader (read_document, tagged, number) and the one
positive-and-finite check (_require_positive).

Structural fields are SI; usage rates are per day, and calendar
conversions use the one 365-day year below.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Optional

from .errors import ValidationError

DAYS_PER_YEAR = 365


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")


def _require_positive(name: str, value: float) -> None:
    """ValidationError unless value is positive and finite: NaN fails as not positive."""
    if not value > 0:
        raise ValidationError(f"{name} must be positive, got {value}")
    _require_finite(name, value)


def _require_finite_fields(record: Record) -> None:
    """_require_finite on each field of record."""
    for name in record._fields:
        _require_finite(name, getattr(record, name))


_set = object.__setattr__


class Record:
    """Immutable value type: the package's frozen dataclass, without generated code.

    A subclass declares its fields as class annotations, in order, and a
    default as a class attribute. The constructor binds them positionally
    or by keyword, as a dataclass __init__ would, then runs __post_init__,
    which may normalise a field with object.__setattr__. == and hash compare
    the field values, repr shows them, and assignment raises AttributeError.
    Defining a subclass only records its field names, so a cold command
    pays nothing per class.
    """

    _fields = ()
    _names = frozenset()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__annotations__
        cls._fields = cls._fields + tuple(name for name in own if name not in cls._fields)
        cls._names = frozenset(cls._fields)
        cls._defaults = {**cls._defaults, **{n: vars(cls)[n] for n in own if n in vars(cls)}}

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        # object.__setattr__ in field order keeps the instance's values inline
        # (no per-instance dict), so reading a field stays as fast as on a dataclass
        any(map(_set, repeat(self), self._fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict):
        """One value per field, defaults filled in; a bad call raises TypeError as Python would."""
        fields = cls._fields
        values = {**cls._defaults, **kwargs}
        values.update(zip(fields, args))
        if len(args) <= len(fields) and values.keys() == cls._names:
            if not (args and kwargs) or kwargs.keys().isdisjoint(fields[: len(args)]):
                return map(values.__getitem__, fields)
        call = f"{cls.__qualname__}.__init__()"
        if len(args) > len(fields):
            raise TypeError(f"{call} takes {len(fields) + 1} positional arguments "
                            f"but {len(args) + 1} were given")
        for name in kwargs:
            if name not in cls._names:
                raise TypeError(f"{call} got an unexpected keyword argument {name!r}")
            if fields.index(name) < len(args):
                raise TypeError(f"{call} got multiple values for argument {name!r}")
        missing = [repr(name) for name in fields if name not in values]
        plural = "s" if len(missing) > 1 else ""
        raise TypeError(f"{call} missing required argument{plural}: {', '.join(missing)}")

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(map(getattr, repeat(self), self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def read_document(what: str, build, doc):
    """build(doc), with a malformed doc raised as one ValidationError("<what>: ...").

    A malformed JSON document fails while being built: a missing key, a
    wrong type, text or a too-large number where a float belongs, nesting
    past the recursion limit. A nested reader's ValidationError gets the
    prefix too, so nested readers report a path.
    """
    try:
        return build(doc)
    except (AttributeError, LookupError, OverflowError, RecursionError, TypeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValidationError(f"{what}: {detail}") from None


def tagged(doc, what: str, builders: dict):
    """builders[tag](body) for the single-key tagged object {tag: body}."""
    if not isinstance(doc, dict) or len(doc) != 1:
        raise ValidationError(f"{what} must be a single-key tagged object, got {doc!r}")
    ((tag, body),) = doc.items()
    if tag not in builders:
        raise ValidationError(f"unknown {what} tag {tag!r} (expected one of {', '.join(builders)})")
    return builders[tag](body)


def number(name: str, value, kind=float):
    """A document's JSON number as kind (float or int). kind() alone reads true as 1
    and "inf" as inf; here any bool, text or null is rejected, text that reads as
    no number with kind()'s own message. The type built checks the range."""
    if isinstance(value, str):
        kind(value)
    elif not isinstance(value, bool) and value is not None:
        return kind(value)
    raise ValidationError(f"{name} must be a finite number, got {value!r}")


def text(name: str, value) -> str:
    """A document's JSON string, or a JSON number read as its text. A null, bool,
    array or object is rejected, so a null is never read as the text "None"."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return str(value)
    raise ValidationError(f"{name} must be text, got {value!r}")


class Material(Record):
    """Strength, stiffness, and density properties of a structural material."""

    name: str
    ultimate_tensile_strength: float  # Pa
    yield_strength_compressive: Optional[float] = None  # Pa
    elastic_modulus: Optional[float] = None  # Pa
    mass_density: Optional[float] = None  # kg/m³

    def __post_init__(self):
        _require_positive("ultimate_tensile_strength", self.ultimate_tensile_strength)
        for field in ("yield_strength_compressive", "elastic_modulus", "mass_density"):
            value = getattr(self, field)
            if value is not None:
                _require_positive(field, value)
        if (
            self.yield_strength_compressive is not None
            and self.yield_strength_compressive > self.ultimate_tensile_strength
        ):
            raise ValidationError(
                f"{self.name}: compressive yield "
                f"{self.yield_strength_compressive} exceeds ultimate strength "
                f"{self.ultimate_tensile_strength}"
            )


class RectSection(Record):
    """Rectangular cross section, width >= thickness."""

    width_b: float  # m
    thickness_t: float  # m
    span_L: float  # m

    def __post_init__(self):
        _require_finite("width_b", self.width_b)
        _require_positive("thickness_t", self.thickness_t)
        _require_positive("span_L", self.span_L)
        if self.width_b < self.thickness_t:
            raise ValidationError(
                f"width_b {self.width_b} must be >= thickness_t {self.thickness_t}"
            )


class ColumnSpec(Record):
    """Eccentrically loaded column: load, geometry, and section properties."""

    load_P: float  # N
    eccentricity_e: float  # m, >= 0
    centroid_c: float  # m
    gyration_k: float  # m
    height_l: float  # m
    area_A: float  # m²
    moment_I: float  # m⁴

    def __post_init__(self):
        _require_finite("eccentricity_e", self.eccentricity_e)
        if self.eccentricity_e < 0:
            raise ValidationError(
                f"eccentricity_e must be >= 0, got {self.eccentricity_e}"
            )
        for field in ("load_P", "centroid_c", "gyration_k", "height_l", "area_A", "moment_I"):
            _require_positive(field, getattr(self, field))

    @property
    def eccentricity_ratio(self) -> float:
        """Eccentricity ratio ec/k², the dimensionless stress amplification."""
        return self.eccentricity_e * self.centroid_c / self.gyration_k**2


class UsageProfile(Record):
    """Daily rates per cycle counter; a zero rate marks a log-driven counter."""

    counters: dict

    def __post_init__(self):
        for counter, rate in self.counters.items():
            _require_finite(f"usage rate for {counter!r}", rate)
            if not rate >= 0:
                raise ValidationError(f"usage rate for {counter!r} must be >= 0, got {rate}")
