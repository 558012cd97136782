"""Component registry, usage bookkeeping, RUL, and schedule compilation.

Registry document (JSON-shaped):

    {"components": [
        {"id": "screw_jack",
         "group": "Structural",
         "failure_modes": ["Gearbox damage/wear/corrosion", ...],
         "service_life": {"value": 5, "unit": "years"},
         "manufacturer_specified": true,
         "specifications": ["Max wind speed (during maintenance): 38 mph*"],
         "tasks": [
            {"description": "Inspect every 100 cycles or 5 years (whichever comes first)",
             "trigger": {"whichever_first": {"years": 5, "cycles": 100,
                                             "counter": "jack_cycles"}}},
            {"description": "Lubricate every 15 cycles or once a year",
             "trigger": {"cycle_interval": {"cycles": 15, "counter": "jack_cycles"}}}
         ]}
    ]}

A trigger is a single-key tagged object, calendar_interval /
cycle_interval / whichever_first / event, read like a topology node. Any
malformed row is one ValidationError prefixed "registry: component #i
('id'):". A cycles-based service life names the usage counter it is
measured against. Calendar arithmetic is whole days with a 365-day
year; recurring intervals anchor to the install date. One recurrence rule
dates every entry but an event's: a calendar or cycle interval is a
whichever_first without the other side, and a service life is the first
recurrence of its one side. A schedule holds at most MAX_ENTRIES entries.
One counter model (_counter) reads a usage counter for the schedule and for
remaining_service_life alike: logged counts are authoritative, the usage rate
projects past the last one, and a threshold's date is found by bisecting the log.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_left, bisect_right
from datetime import date, timedelta
from operator import attrgetter
from typing import Optional, Union

from .errors import ValidationError
from .model import DAYS_PER_YEAR, Record, UsageProfile, _require_in, known_keys, named_numbers
from .model import number, read_document, tagged, text

GROUPS = ("Structural", "Electromechanical", "Control", "Fasteners")
EVENT_KINDS = ("high_load", "post_install_inspection")

YEARS = "years"
CYCLES = "cycles"

# schedule-entry reasons
INTERVAL_ELAPSED = "interval_elapsed"
CYCLES_ELAPSED = "cycles_elapsed"
EVENT = "event"
LIFE_EXPIRED = "life_expired"

# Most entries one schedule may hold; the default registry over 1000 years has 122,496.
MAX_ENTRIES = 1_000_000


# ---------------------------------------------------------------------------
# triggers and registry types


class CalendarInterval(Record):
    years: float

    def __post_init__(self):
        _require_in("calendar interval", self.years, "(0, inf)")


class CycleInterval(Record):
    cycles: float
    counter: str

    def __post_init__(self):
        _require_in("cycle interval", self.cycles, "(0, inf)")


class WhicheverFirst(Record):
    years: float
    cycles: float
    counter: str

    def __post_init__(self):
        _require_in("whichever_first years", self.years, "(0, inf)")
        _require_in("whichever_first cycles", self.cycles, "(0, inf)")


class EventTrigger(Record):
    kind: str

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ValidationError(
                f"event kind must be one of {EVENT_KINDS}, got {self.kind!r}"
            )


Trigger = Union[CalendarInterval, CycleInterval, WhicheverFirst, EventTrigger]


class MaintenanceTask(Record):
    description: str
    trigger: Trigger


class ServiceLife(Record):
    value: float
    unit: str  # "years" or "cycles"
    counter: Optional[str] = None  # required for cycles

    def __post_init__(self):
        if self.unit not in (YEARS, CYCLES):
            raise ValidationError(f"service life unit must be years or cycles, got {self.unit!r}")
        _require_in("service life", self.value, "(0, inf)")
        if self.unit == CYCLES and not self.counter:
            raise ValidationError("cycles-based service life needs a counter id")
        if self.unit == YEARS and self.counter is not None:
            raise ValidationError(
                f"years-based service life takes no counter, got {self.counter!r}"
            )


class ComponentRecord(Record):
    id: str
    group: str
    failure_modes: tuple[str, ...] = ()
    service_life: Optional[ServiceLife] = None
    manufacturer_specified: bool = False
    specifications: tuple[str, ...] = ()
    tasks: tuple[MaintenanceTask, ...] = ()

    def __post_init__(self):
        if self.group not in GROUPS:
            raise ValidationError(f"unknown group {self.group!r} (expected one of {GROUPS})")
        object.__setattr__(self, "failure_modes", tuple(self.failure_modes))
        object.__setattr__(self, "specifications", tuple(self.specifications))
        object.__setattr__(self, "tasks", tuple(self.tasks))


class Registry(Record):
    components: tuple[ComponentRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        seen = set()
        for c in self.components:
            if c.id in seen:
                raise ValidationError(f"duplicate component id {c.id!r}")
            seen.add(c.id)

    def get(self, component_id: str) -> ComponentRecord:
        for c in self.components:
            if c.id == component_id:
                return c
        raise ValidationError(f"no component {component_id!r} in registry")


class InstallationRecord(Record):
    install_date: date
    event_log: tuple = ()  # (date, kind) pairs
    cycle_log: dict = {}  # counter -> ((date, count), ...); __post_init__ copies it

    def __post_init__(self):
        object.__setattr__(self, "event_log", tuple(self.event_log))
        object.__setattr__(
            self, "cycle_log", {k: tuple(v) for k, v in self.cycle_log.items()}
        )
        previous = self.install_date
        for when, kind in self.event_log:
            if when < previous:
                raise ValidationError("event log dates must be nondecreasing")
            if kind not in EVENT_KINDS:
                raise ValidationError(f"unknown event kind {kind!r}")
            previous = when
        for counter, entries in self.cycle_log.items():
            prev_date, prev_count = self.install_date, 0.0
            for when, count in entries:
                _require_in(f"cycle log count for {counter!r}", count, "(-inf, inf)")
                if when < prev_date or not count >= prev_count:
                    raise ValidationError(
                        f"cycle log for {counter!r} must be nondecreasing in date and count"
                    )
                prev_date, prev_count = when, count


class ScheduleEntry(Record):
    due_date: date
    component_id: str
    task: str
    reason: str
    due_count: Optional[float] = None  # cumulative counter threshold, cycle triggers only


class RemainingLife(Record):
    remaining: float
    unit: str
    fraction_consumed: float
    overconsumed: bool


# ---------------------------------------------------------------------------
# document parsing

def _trigger(cls, *readers):
    """Reader of a trigger body that holds cls's fields alone, each read by its reader."""

    def read(body):
        known_keys(body, cls._fields)
        return cls(*(reader(name, body[name]) for name, reader in zip(cls._fields, readers)))

    return read


_TRIGGERS = {
    "calendar_interval": _trigger(CalendarInterval, number),
    "cycle_interval": _trigger(CycleInterval, number, text),
    "whichever_first": _trigger(WhicheverFirst, number, number, text),
    "event": _trigger(EventTrigger, text),
}


def _strings(row: dict, key: str) -> tuple:
    values = row.get(key, [])
    if not (isinstance(values, list) and all(isinstance(v, str) for v in values)):
        raise ValidationError(f"{key} must be a list of strings, got {values!r}")
    return tuple(values)


_ROW_OPTIONAL = (
    "failure_modes", "service_life", "manufacturer_specified", "specifications", "tasks"
)


def _component_record(row: dict) -> ComponentRecord:
    known_keys(row, ("id", "group"), _ROW_OPTIONAL)
    life = row.get("service_life")
    specified = row.get("manufacturer_specified", False)
    if not isinstance(specified, bool):
        raise ValidationError(f"manufacturer_specified must be true or false, got {specified!r}")
    return ComponentRecord(
        id=text("id", row["id"]),
        group=text("group", row["group"]),
        failure_modes=_strings(row, "failure_modes"),
        service_life=None if life is None else ServiceLife(
            value=number("value", known_keys(life, ("value", "unit"), ("counter",))["value"]),
            unit=text("unit", life["unit"]),
            counter=None if life.get("counter") is None else text("counter", life["counter"]),
        ),
        manufacturer_specified=specified,
        specifications=_strings(row, "specifications"),
        tasks=tuple(
            MaintenanceTask(
                text("description", known_keys(t, ("description", "trigger"))["description"]),
                tagged(t["trigger"], "trigger", _TRIGGERS),
            )
            for t in row.get("tasks", ())
        ),
    )


def load_registry(document: dict) -> Registry:
    """Validate a registry document; errors carry the offending row."""

    def build(doc):
        if "components" not in doc:
            raise ValidationError("document must have a 'components' list")
        known_keys(doc, ("components",))
        records = []
        for index, row in enumerate(doc["components"]):
            ident = row.get("id", "?") if isinstance(row, dict) else "?"
            records.append(read_document(f"component #{index} ({ident!r})", _component_record, row))
        return Registry(components=tuple(records))

    return read_document("registry", build, document)


def default_registry() -> Registry:
    from .default_registry import DEFAULT_REGISTRY_DOC

    return load_registry(DEFAULT_REGISTRY_DOC)


def usage_from_document(document: dict) -> UsageProfile:
    def build(doc):
        return UsageProfile(counters=named_numbers(doc, "counters", "usage rate"))

    return read_document("usage document", build, document)


def installation_from_document(document: dict) -> InstallationRecord:
    def build(doc):
        known_keys(doc, ("install_date",), ("events", "cycles"))
        return InstallationRecord(
            install_date=date.fromisoformat(doc["install_date"]),
            event_log=[
                (date.fromisoformat(e["date"]), text("kind", e["kind"]))
                for e in (known_keys(event, ("date", "kind")) for event in doc.get("events", ()))
            ],
            cycle_log={
                str(counter): [
                    (date.fromisoformat(e["date"]), number("count", e["count"]))
                    for e in (known_keys(point, ("date", "count")) for point in entries)
                ]
                for counter, entries in doc.get("cycles", {}).items()
            },
        )

    return read_document("installation document", build, document)


def site_from_document(site, install_date: Optional[str]) -> tuple:
    """(installation record or None, usage profile) of a site document, the schedule
    commands' --config object. The usage is its 'usage' rates, or presets.DEFAULT_USAGE
    without them. The record is its 'install' object, or else one dated install_date,
    the ISO text of --install-date, or else None; giving both is refused."""
    if not isinstance(site, dict):
        raise ValidationError(f"--config must hold a JSON object, got {type(site).__name__}")
    read_document("site document", lambda doc: known_keys(doc, (), ("install", "usage")), site)
    if "usage" in site:
        usage = usage_from_document(site["usage"])
    else:
        from . import presets

        usage = presets.DEFAULT_USAGE
    if "install" in site:
        if install_date is not None:
            raise ValidationError("give --install-date or a --config 'install' record, not both")
        return installation_from_document(site["install"]), usage
    if install_date is None:
        return None, usage
    when = read_document(f"--install-date {install_date!r}", date.fromisoformat, install_date)
    return InstallationRecord(install_date=when), usage


# ---------------------------------------------------------------------------
# schedule compilation


def _days_after(start: date, days: float) -> Optional[date]:
    """start + ceil(days), or None past date.max (beyond every horizon)."""
    try:
        return start + timedelta(days=math.ceil(days))
    except OverflowError:
        return None


def _counter(counter: str, install: InstallationRecord, usage: UsageProfile):
    """(date_reaching, count_at) of a cumulative counter: the one counter model.

    date_reaching(threshold) bisects the logged (date, count) points, which are
    authoritative; beyond the last one the counter grows at the usage rate (zero
    rate: log-driven only). count_at(days) is the count that many days after the
    install date: the last one logged by then, then projected at the rate.
    """
    if counter not in usage.counters and counter not in install.cycle_log:
        raise ValidationError(f"unknown cycle counter {counter!r}")
    log = install.cycle_log.get(counter, ())
    dates, counts = zip(*log) if log else ((), ())
    rate = usage.counters.get(counter, 0.0)
    last_date, last_count = log[-1] if log else (install.install_date, 0.0)
    days = [(when - install.install_date).days for when in dates]
    last_day = days[-1] if log else 0

    def date_reaching(threshold: float) -> Optional[date]:
        if threshold <= last_count:
            return dates[bisect_left(counts, threshold)]
        if rate > 0:
            return _days_after(last_date, max((threshold - last_count) / rate, 0))
        return None

    def count_at(day: float) -> float:
        if day < last_day:
            return (0.0, *counts)[bisect_right(days, day)]
        return last_count + rate * (day - last_day) if rate else last_count

    return date_reaching, count_at


def _rules(component: ComponentRecord) -> list[tuple]:
    """(task, trigger, calendar reason, cycle reason, most recurrences) of each of
    component's tasks, then of its service life: the first recurrence of its one side."""
    rules = [(t.description, t.trigger, INTERVAL_ELAPSED, CYCLES_ELAPSED, math.inf)
             for t in component.tasks]
    life = component.service_life
    if life is not None:
        side = (CalendarInterval(life.value) if life.unit == YEARS
                else CycleInterval(life.value, life.counter))
        rules.append((f"Service life reached ({_life_text(life)})", side,
                      LIFE_EXPIRED, LIFE_EXPIRED, 1))
    return rules


def generate_schedule(
    registry: Registry,
    install: InstallationRecord,
    usage: UsageProfile,
    horizon_years: float,
) -> list[ScheduleEntry]:
    """Compile dated maintenance entries over the horizon.

    One recurrence rule yields every entry but an event's: recurrence k of
    a trigger is due on the install date + round(k * years * 365) days or
    on the date its counter reaches k * cycles (found by bisecting the
    counter's log; the entry carries the threshold as due_count), whichever
    is first, the calendar winning ties. A calendar or cycle interval is a
    whichever_first without the other side, and a lifed component's
    life_expired entry is the first recurrence of its service life's one
    side. Event triggers emit one entry per logged matching event. Output
    is sorted by (due date, component id, task, reason). The horizon must
    end by date.max; a recurrence that would pass it is never due. A
    trigger that could take the schedule past MAX_ENTRIES is a ValidationError.
    """
    _require_in("horizon", horizon_years, "(0, inf)")
    start = install.install_date
    end = _days_after(start, round(horizon_years * DAYS_PER_YEAR))
    if end is None:
        raise ValidationError(f"horizon of {horizon_years} years from {start} ends after {date.max}")
    first, last = start.toordinal(), end.toordinal()
    entries: list[ScheduleEntry] = []
    append = entries.append

    # Entries are built with every field positional, Record's fast path.

    for component in registry.components:
        cid = component.id
        for task, trig, calendar_reason, cycle_reason, most in _rules(component):
            if isinstance(trig, EventTrigger):
                entries.extend(
                    ScheduleEntry(when, cid, task, EVENT, None)
                    for when, kind in install.event_log
                    if kind == trig.kind and when <= end
                )
                continue
            # A side the trigger lacks is never due. Recurrence k is due only if k*years in
            # days rounds to at most last - first or k*cycles <= the count at end.
            years = getattr(trig, "years", None)
            cycles = getattr(trig, "cycles", None)
            bound = 0.0 if years is None else (last - first + 1) / (years * DAYS_PER_YEAR) + 1
            if cycles is not None:
                date_reaching, count_at = _counter(trig.counter, install, usage)
                bound = max(bound, count_at(last - first) / cycles + 1)
            bound = min(bound, most)
            if not bound <= MAX_ENTRIES - len(entries):
                raise ValidationError(f"component {cid!r} task {task!r} "
                                      f"would take the schedule past {MAX_ENTRIES} entries")
            for k in range(1, int(bound) + 1):
                # a span past the horizon is never due, and may be too large to round
                span = k * years * DAYS_PER_YEAR if years else math.inf
                day = first + round(span) if span < last - first + 1 else math.inf
                cyc_due = date_reaching(k * cycles) if cycles else None
                if cyc_due is not None and cyc_due.toordinal() < day:
                    if cyc_due > end:
                        break
                    append(ScheduleEntry(cyc_due, cid, task, cycle_reason, k * cycles))
                elif day <= last:
                    append(ScheduleEntry(date.fromordinal(day), cid, task, calendar_reason, None))
                else:
                    break

    entries.sort(key=attrgetter("due_date", "component_id", "task", "reason"))
    return entries


def remaining_service_life(component: ComponentRecord, usage: UsageProfile, elapsed_years: float,
                           install: Optional[InstallationRecord] = None) -> RemainingLife:
    """Remaining life and consumed fraction after elapsed_years of service.

    A cycle-based life consumes its counter's count elapsed * 365 days after
    install, read by the schedule's own counter model (_counter) from the site's
    install record. Without one (None) the count is the rate times those days.
    Overconsumption clamps the fraction to 1 and sets the flag.
    """
    _require_in("elapsed_years", elapsed_years, "[0, inf)")
    life = component.service_life
    if life is None:
        raise ValidationError(f"component {component.id!r} is not lifed")
    if life.unit == YEARS:
        consumed = elapsed_years
    else:
        if install is None:  # a record with no log: the rate times the days
            install = InstallationRecord(install_date=date.min)
        _, count_at = _counter(life.counter, install, usage)
        consumed = count_at(elapsed_years * DAYS_PER_YEAR)
    fraction = consumed / life.value
    return RemainingLife(
        remaining=max(life.value - consumed, 0.0),
        unit=life.unit,
        fraction_consumed=min(fraction, 1.0),
        overconsumed=fraction > 1.0,
    )


# ---------------------------------------------------------------------------
# report emission

CSV = "csv"
MARKDOWN = "markdown"

_SCHEDULE_COLUMNS = ("due_date", "component_id", "task", "reason")
_REGISTRY_COLUMNS = (
    "Component",
    "Failure Modes",
    "Service Life",
    "Specifications",
    "Service Tasks",
)


def emit_report(payload, format: str) -> str:
    """Render a schedule (list of entries) or a Registry as CSV or Markdown.

    Output is byte-deterministic: same payload, same text.
    """
    if format not in (CSV, MARKDOWN):
        raise ValidationError(f"format must be 'csv' or 'markdown', got {format!r}")
    if isinstance(payload, Registry):
        rows = _registry_rows(payload)
        if format == CSV:
            return _csv_text(_REGISTRY_COLUMNS, [r for _, r in rows])
        return _registry_markdown(rows)
    entries = list(payload)
    table = [
        (e.due_date.isoformat(), e.component_id, e.task, e.reason) for e in entries
    ]
    if format == CSV:
        return _csv_text(_SCHEDULE_COLUMNS, table)
    return _markdown_table(_SCHEDULE_COLUMNS, table)


def _life_text(life: ServiceLife) -> str:
    unit = life.unit
    if life.value == 1 and unit == YEARS:
        unit = "year"
    return f"{life.value:g} {unit}"


def _service_life_cell(component: ComponentRecord) -> str:
    life = component.service_life
    if life is None:
        return "N/A"
    cell = _life_text(life)
    if component.manufacturer_specified:
        cell += "*"
    return cell


def _registry_rows(registry: Registry) -> list[tuple[str, tuple]]:
    rows = []
    for c in registry.components:
        descriptions = []
        for task in c.tasks:
            if task.description not in descriptions:
                descriptions.append(task.description)
        rows.append(
            (
                c.group,
                (
                    c.id,
                    " / ".join(c.failure_modes),
                    _service_life_cell(c),
                    " / ".join(c.specifications) or "N/A",
                    " / ".join(descriptions),
                ),
            )
        )
    return rows


def _registry_markdown(rows: list[tuple[str, tuple]]) -> str:
    out = io.StringIO()
    out.write("# Component registry\n")
    for group in GROUPS:
        group_rows = [r for g, r in rows if g == group]
        if not group_rows:
            continue
        out.write(f"\n## {group}\n\n")
        out.write(_markdown_table(_REGISTRY_COLUMNS, group_rows))
    return out.getvalue()


def _markdown_table(columns, rows) -> str:
    def clean(cell: str) -> str:
        return str(cell).replace("|", "\\|")

    lines = [
        "| " + " | ".join(columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    lines.extend("| " + " | ".join(clean(c) for c in row) + " |" for row in rows)
    return "\n".join(lines) + "\n"


def _csv_text(columns, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out)  # RFC 4180 quoting and CRLF line ends
    writer.writerow(columns)
    writer.writerows(rows)
    return out.getvalue()
