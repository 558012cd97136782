"""Shared domain types, the Record base of every value type, the one
JSON document reader (read_document, tagged, known_keys, number, whole,
text) and the two checks of a value: _require_in, the one domain rule of an
input (a ValidationError), and _require_normal, the one rule of a value that a
formula has formed (an overflow or an underflow there is a NumericError).
_power gives a float ** past the largest double as inf, so that check names it.

Structural fields are SI; usage rates are per day, and calendar
conversions use the one 365-day year below.
"""

from __future__ import annotations

import math
import sys
from itertools import repeat

from .errors import NumericError, ValidationError

DAYS_PER_YEAR = 365
_INTERVALS = {}  # domain text -> (low, high, low closed, high closed)


def _require_in(name: str, value: float, domain: str) -> float:
    """value, once it lies in domain, an interval written as the docs write it: "(0, inf)",
    "[0, inf]", "(0, 1.5]". A bracket is a closed end, a parenthesis an open one. NaN lies in
    no interval, and an open infinite end holds the doubles short of it, so an int past the
    largest double lies outside. Otherwise a ValidationError
    "<name> must lie in <domain>, got <value>"."""
    if domain not in _INTERVALS:
        low, high = map(float, domain[1:-1].split(","))
        low_closed, high_closed = domain[0] == "[", domain[-1] == "]"
        if low == -math.inf and not low_closed:
            low, low_closed = -sys.float_info.max, True
        if high == math.inf and not high_closed:
            high, high_closed = sys.float_info.max, True
        _INTERVALS[domain] = low, high, low_closed, high_closed
    low, high, low_closed, high_closed = _INTERVALS[domain]
    if (low <= value if low_closed else low < value) and (
            value <= high if high_closed else value < high):
        return value
    raise ValidationError(f"{name} must lie in {domain}, got {value}")


def _require_normal(what: str, value: float, unit: str = "", from_nonzero: bool = True) -> float:
    """value, once it is finite and, when formed from nonzero inputs, a normal double.

    A formula's result that overflows, or that underflows to a subnormal or to 0 from
    nonzero inputs (its digits lost), is a NumericError. unit is printed after the value.
    """
    if not math.isfinite(value):
        raise NumericError(f"{what} is not finite ({value}{unit})")
    if from_nonzero and abs(value) < sys.float_info.min:
        raise NumericError(f"{what} underflows: {value}{unit} is not a normal double")
    return value


def _power(base: float, exponent: float) -> float:
    """base ** exponent of a positive base, or inf where float ** raises OverflowError
    (float * gives inf there), so the _require_normal check of what it forms names it."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


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


def known_keys(doc: dict, required: tuple, optional: tuple = ()) -> dict:
    """doc, once it holds each required key and no key outside required and optional.

    A missing key is reported first, as read_document's "missing key 'k'";
    the required keys are looked up in order, so the first one missing is named.
    """
    for key in required:
        doc[key]  # a KeyError names the missing key
    for key in doc.keys():  # not `in doc`: a list is refused, not read as keys
        if key not in required and key not in optional:
            raise ValidationError(
                f"unknown key {key!r} (expected one of {', '.join(required + optional)})"
            )
    return doc


def named_numbers(doc: dict, wrapper: str, what: str) -> dict[str, float]:
    """The name -> number mapping of {wrapper: {name: n}} or of the bare mapping,
    each number read as "<what> for '<name>'"."""
    mapping = doc.get(wrapper, doc)
    if mapping is not doc:  # the wrapped form holds wrapper alone
        known_keys(doc, (wrapper,))
    return {str(k): number(f"{what} for {k!r}", v) for k, v in mapping.items()}


def number(name: str, value, kind=float):
    """A document's JSON number as kind (float or int). kind() alone reads true as 1
    and "inf" as inf; here any bool, text or null is rejected, text that reads as
    no number with kind()'s own message. The type built checks the range."""
    if isinstance(value, str):
        kind(value)
    elif not isinstance(value, bool) and value is not None:
        return kind(value)
    raise ValidationError(f"{name} must be a finite number, got {value!r}")


def whole(name: str, value) -> int:
    """A number with an integral value, as an int. A bool, text or null is refused
    as by number(); a fraction, an infinity or NaN as not whole."""
    fraction = isinstance(value, float) and not value.is_integer()
    count = None if fraction else number(name, value, int)
    if count != value:
        raise ValidationError(f"{name} must be a whole number, got {value!r}")
    return count


def text(name: str, value) -> str:
    """A document's JSON string, or a JSON number read as its text. A null, bool,
    array or object is rejected, so a null is never read as the text "None"."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return str(value)
    raise ValidationError(f"{name} must be text, got {value!r}")


class RectSection(Record):
    """Rectangular cross section, width >= thickness."""

    width_b: float  # m
    thickness_t: float  # m

    def __post_init__(self):
        _require_in("width_b", self.width_b, "(0, inf)")
        _require_in("thickness_t", self.thickness_t, "(0, inf)")
        if self.width_b < self.thickness_t:
            raise ValidationError(
                f"width_b {self.width_b} must be >= thickness_t {self.thickness_t}"
            )


class ColumnSpec(Record):
    """Eccentrically loaded column: load, geometry, section properties, and the
    two material properties the secant formulas read (compressive yield, modulus)."""

    load_P: float  # N
    eccentricity_e: float  # m, >= 0
    centroid_c: float  # m
    gyration_k: float  # m
    height_l: float  # m
    area_A: float  # m²
    moment_I: float  # m⁴
    yield_strength_compressive: float  # Pa
    elastic_modulus: float  # Pa

    def __post_init__(self):
        _require_in("eccentricity_e", self.eccentricity_e, "[0, inf)")
        for field in ("load_P", "centroid_c", "gyration_k", "height_l", "area_A", "moment_I",
                      "yield_strength_compressive", "elastic_modulus"):
            _require_in(field, getattr(self, field), "(0, inf)")

    @property
    def eccentricity_ratio(self) -> float:
        """Eccentricity ratio ec/k², the dimensionless stress amplification."""
        return self.eccentricity_e * self.centroid_c / _require_normal(
            "k²", _power(self.gyration_k, 2), " m²")


class UsageProfile(Record):
    """Daily rates per cycle counter; a zero rate marks a log-driven counter."""

    counters: dict

    def __post_init__(self):
        for counter, rate in self.counters.items():
            _require_in(f"usage rate for {counter!r}", rate, "[0, inf)")
