"""Fuzzing of the JSON document readers.

Every reader must return a value or raise ValidationError, and every
document-driven command must end with exit code 0, 1 or 2 and at most one
line on stderr. Documents are either free-form JSON over the readers' own
vocabulary or a valid document from the golden corpus with one node replaced.
"""

import contextlib
import io
import json
import re
import sys
from functools import partial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dwtlife import cli
from dwtlife.bearing import summary_from_document
from dwtlife.errors import ValidationError
from dwtlife.schedule import installation_from_document, load_registry, usage_from_document
from dwtlife.system import lives_from_document, topology_from_document

INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"

WORDS = [
    "series", "parallel", "component", "id", "model", "exponential", "weibull", "fixed_life",
    "rate", "beta", "eta", "life", "components", "group", "Control", "tasks", "description",
    "trigger", "calendar_interval", "cycle_interval", "whichever_first", "event", "years",
    "cycles", "counter", "kind", "high_load", "service_life", "value", "unit", "counters",
    "jack_cycles", "install_date", "2025-01-01", "events", "date", "count", "lives",
    "geometry", "loads", "factors", "fcm", "balls", "ball_diameter_mm", "contact_angle_deg",
    "raceway_center_diameter_mm", "a1", "theta_deg",
]
SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(WORDS)
    | st.text(max_size=4) | st.sampled_from([10**400, "inf", "nan", "1e999", -1])
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(WORDS) | st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _paths(value, (*prefix, key))


def _replace(doc, path, value):
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = _replace(doc[path[0]], path[1:], value)
    return copy


def documents(input_name):
    """Free-form JSON, or the named golden input with one node replaced."""
    base = json.loads((INPUTS / input_name).read_text(encoding="utf-8"))
    return JSON | st.builds(partial(_replace, base), st.sampled_from(list(_paths(base))), JSON)


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def numbers_replaced(input_name, part=None):
    """The named golden input (or its part) with one numeric leaf replaced by true, "1" or null."""
    base = json.loads((INPUTS / input_name).read_text(encoding="utf-8"))
    base = base if part is None else base[part]
    leaves = [path for path in _paths(base) if type(_at(base, path)) in (int, float)]
    return st.builds(
        partial(_replace, base), st.sampled_from(leaves), st.sampled_from([True, "1", None])
    )


FUZZ = settings(
    max_examples=75, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)


def assert_reads_or_rejects(reader, doc):
    try:
        reader(doc)
    except ValidationError as exc:
        assert "\n" not in str(exc)


class TestLibraryReaders:
    @FUZZ
    @given(documents("topology.json"))
    def test_topology(self, doc):
        assert_reads_or_rejects(topology_from_document, doc)

    @FUZZ
    @given(documents("registry.json"))
    def test_registry(self, doc):
        assert_reads_or_rejects(load_registry, doc)

    @FUZZ
    @given(documents("site.json"))
    def test_usage(self, doc):
        assert_reads_or_rejects(usage_from_document, doc)
        if isinstance(doc, dict) and "usage" in doc:
            assert_reads_or_rejects(usage_from_document, doc["usage"])

    @FUZZ
    @given(documents("site.json"))
    def test_installation(self, doc):
        assert_reads_or_rejects(installation_from_document, doc)
        if isinstance(doc, dict) and "install" in doc:
            assert_reads_or_rejects(installation_from_document, doc["install"])

    @pytest.mark.parametrize("reader, input_name, part", [
        (topology_from_document, "topology.json", None),
        (load_registry, "registry.json", None),
        (usage_from_document, "site.json", "usage"),
        (installation_from_document, "site.json", "install"),
        (summary_from_document, "bearing.json", None),
        (lives_from_document, "lives.json", None),
    ], ids=["topology", "registry", "usage", "installation", "bearing", "lives"])
    @FUZZ
    @given(data=st.data())
    def test_number_of_another_json_type_rejected(self, reader, input_name, part, data):
        doc = data.draw(numbers_replaced(input_name, part))
        with pytest.raises(ValidationError, match="must be a finite number"):
            reader(doc)


def golden_with(input_name, path, value):
    """The named golden input with the node at path replaced by value."""
    return _replace(json.loads((INPUTS / input_name).read_text(encoding="utf-8")), path, value)


TEXT_FIELDS = {
    "registry_id": (load_registry, "registry.json", ("components", 0, "id")),
    "registry_group": (load_registry, "registry.json", ("components", 0, "group")),
    "task_description": (load_registry, "registry.json",
                         ("components", 0, "tasks", 0, "description")),
    "life_unit": (load_registry, "registry.json", ("components", 0, "service_life", "unit")),
    "life_counter": (load_registry, "registry.json",
                     ("components", 1, "service_life", "counter")),
    "cycle_counter": (load_registry, "registry.json",
                      ("components", 1, "tasks", 0, "trigger", "cycle_interval", "counter")),
    "whichever_first_counter": (load_registry, "registry.json",
                                ("components", 1, "tasks", 1, "trigger", "whichever_first",
                                 "counter")),
    "event_kind": (load_registry, "registry.json",
                   ("components", 0, "tasks", 1, "trigger", "event", "kind")),
    "install_event_kind": (lambda doc: installation_from_document(doc["install"]), "site.json",
                           ("install", "events", 0, "kind")),
    "topology_id": (topology_from_document, "topology.json", ("series", 0, "component", "id")),
}


@pytest.mark.parametrize("field, value", [
    (field, value) for field in TEXT_FIELDS for value in (None, True, ["a"], {"a": "b"})
    if not (field == "life_counter" and value is None)  # an optional counter: null is none
])
def test_text_field_of_another_json_type_rejected(field, value):
    reader, input_name, path = TEXT_FIELDS[field]
    with pytest.raises(ValidationError, match=re.escape(f"{path[-1]} must be text, got {value!r}")):
        reader(golden_with(input_name, path, value))


def bearing_with(**changes):
    """The golden bearing document as JSON text, with top-level or geometry keys changed."""
    doc = json.loads((INPUTS / "bearing.json").read_text(encoding="utf-8"))
    for key, value in changes.items():
        (doc["geometry"] if key in doc["geometry"] else doc)[key] = value
    return json.dumps(doc)


def registry_row(**fields):
    """A one-row registry as JSON text, with the given fields."""
    return json.dumps({"components": [{"id": "a", "group": "Control", **fields}]})


def run_with_stdin(argv, text):
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


class TestCommands:
    @FUZZ
    @given(documents("bearing.json"))
    def test_bearing_life(self, doc):
        code, _, err = run_with_stdin(["bearing", "life", "--config", "-"], json.dumps(doc))
        assert code in (0, 1, 2)
        assert err.count("\n") == (code != 0), err

    @FUZZ
    @given(documents("lives.json"))
    def test_system_life(self, doc):
        code, _, err = run_with_stdin(["system", "life", "--config", "-"], json.dumps(doc))
        assert code in (0, 1)
        assert err.count("\n") == (code != 0), err

    @pytest.mark.parametrize("argv, text", [
        (["system", "mttf", "--config"], "[" * 5000 + "]" * 5000),
        (["schedule", "report", "--registry"], '{"components": ' * 3000 + "0" + "}" * 3000),
        (["schedule", "generate", "--config"], '"install"'),
        (["schedule", "rul", "--component", "Generator", "--elapsed", "1", "--config"],
         '["usage"]'),
        (["system", "life", "--config"], '{"lives": {"a": 1' + "0" * 5000 + "}}"),
        (["system", "life", "--config"], '{"lives": {"\xe9": 1}}'.encode("latin-1")),
        (["bearing", "life", "--config"], bearing_with(exponent=0)),
        (["bearing", "life", "--config"], bearing_with(exponent=False)),
        (["bearing", "life", "--config"], bearing_with(fcm=1e200)),
        (["bearing", "life", "--config"], bearing_with(balls=10**400)),
        (["bearing", "life", "--config"], bearing_with(balls=30.9)),
        (["bearing", "life", "--config"], bearing_with(balls=True)),
        (["bearing", "life", "--config"], bearing_with(rows="1")),
        (["schedule", "report", "--registry"], registry_row(manufacturer_specified="false")),
        (["schedule", "report", "--registry"], registry_row(failure_modes="wear")),
        (["schedule", "report", "--registry"], registry_row(specifications=["a", 5])),
        (["schedule", "generate", "--install-date", "2026-01-01", "--registry"], registry_row(
            tasks=[{"description": None, "trigger": {"calendar_interval": {"years": 1}}}])),
        (["schedule", "generate", "--install-date", "2026-01-01", "--registry"], registry_row(
            tasks=[{"description": "x",
                    "trigger": {"cycle_interval": {"cycles": 10, "counter": None}}}])),
    ], ids=["deep_config", "deep_registry", "config_string", "config_list", "long_integer",
            "not_utf8", "bearing_zero_exponent", "bearing_false_exponent", "bearing_overflow",
            "bearing_huge_ball_count", "bearing_fractional_balls", "bearing_bool_balls",
            "bearing_text_rows", "registry_text_flag", "registry_text_failure_modes",
            "registry_number_specification", "registry_null_description", "registry_null_counter"])
    def test_malformed_json_file(self, capsys, tmp_path, argv, text):
        path = tmp_path / "input.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        code = cli.run([*argv, str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
