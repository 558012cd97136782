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
year; recurring intervals anchor to the install date. A cycle threshold's
date is found by bisecting the counter's log, and a schedule holds at most
MAX_ENTRIES entries.
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
from .model import DAYS_PER_YEAR, Record, UsageProfile, _require_finite, _require_positive
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
        _require_positive("calendar interval", self.years)


class CycleInterval(Record):
    cycles: float
    counter: str

    def __post_init__(self):
        _require_positive("cycle interval", self.cycles)


class WhicheverFirst(Record):
    years: float
    cycles: float
    counter: str

    def __post_init__(self):
        _require_positive("whichever_first years", self.years)
        _require_positive("whichever_first cycles", self.cycles)


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
        _require_positive("service life", self.value)
        if self.unit == CYCLES and not self.counter:
            raise ValidationError("cycles-based service life needs a counter id")


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
                _require_finite(f"cycle log count for {counter!r}", count)
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

_TRIGGERS = {
    "calendar_interval": lambda body: CalendarInterval(years=number("years", body["years"])),
    "cycle_interval": lambda body: CycleInterval(
        cycles=number("cycles", body["cycles"]), counter=text("counter", body["counter"])
    ),
    "whichever_first": lambda body: WhicheverFirst(
        years=number("years", body["years"]),
        cycles=number("cycles", body["cycles"]),
        counter=text("counter", body["counter"]),
    ),
    "event": lambda body: EventTrigger(kind=text("kind", body["kind"])),
}


def parse_trigger(doc: dict) -> Trigger:
    """Build a trigger from its tagged form; load_registry reports a malformed body."""
    return tagged(doc, "trigger", _TRIGGERS)


def _strings(row: dict, key: str) -> tuple:
    values = row.get(key, [])
    if not (isinstance(values, list) and all(isinstance(v, str) for v in values)):
        raise ValidationError(f"{key} must be a list of strings, got {values!r}")
    return tuple(values)


def _component_record(row: dict) -> ComponentRecord:
    life = row.get("service_life")
    specified = row.get("manufacturer_specified", False)
    if not isinstance(specified, bool):
        raise ValidationError(f"manufacturer_specified must be true or false, got {specified!r}")
    return ComponentRecord(
        id=text("id", row["id"]),
        group=text("group", row["group"]),
        failure_modes=_strings(row, "failure_modes"),
        service_life=None if life is None else ServiceLife(
            value=number("value", life["value"]),
            unit=text("unit", life["unit"]),
            counter=None if life.get("counter") is None else text("counter", life["counter"]),
        ),
        manufacturer_specified=specified,
        specifications=_strings(row, "specifications"),
        tasks=tuple(
            MaintenanceTask(text("description", t["description"]), parse_trigger(t["trigger"]))
            for t in row.get("tasks", ())
        ),
    )


def load_registry(document: dict) -> Registry:
    """Validate a registry document; errors carry the offending row."""

    def build(doc):
        if "components" not in doc:
            raise ValidationError("document must have a 'components' list")
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
        counters = doc.get("counters", doc)
        return UsageProfile(
            counters={str(k): number(f"usage rate for {k!r}", v) for k, v in counters.items()}
        )

    return read_document("usage document", build, document)


def installation_from_document(document: dict) -> InstallationRecord:
    def build(doc):
        return InstallationRecord(
            install_date=date.fromisoformat(doc["install_date"]),
            event_log=[
                (date.fromisoformat(e["date"]), text("kind", e["kind"])) for e in doc.get("events", ())
            ],
            cycle_log={
                str(counter): [
                    (date.fromisoformat(e["date"]), number("count", e["count"])) for e in entries
                ]
                for counter, entries in doc.get("cycles", {}).items()
            },
        )

    return read_document("installation document", build, document)


def usage_from_site(site) -> UsageProfile:
    """A site document's 'usage' rates, or presets.DEFAULT_USAGE without one."""
    if not isinstance(site, dict):
        raise ValidationError(f"--config must hold a JSON object, got {type(site).__name__}")
    if "usage" not in site:
        from . import presets

        return presets.DEFAULT_USAGE
    return usage_from_document(site["usage"])


def site_from_document(site, install_date: Optional[str]) -> tuple:
    """(installation record, usage_from_site) of a site document, the schedule
    commands' --config object. The record is its 'install' object or else one
    dated install_date, the ISO text of --install-date; one must be given."""
    usage = usage_from_site(site)
    if "install" in site:
        return installation_from_document(site["install"]), usage
    if install_date is None:
        raise ValidationError("need --install-date or a --config with an 'install' record")
    when = read_document(f"--install-date {install_date!r}", date.fromisoformat, install_date)
    return InstallationRecord(install_date=when), usage


# ---------------------------------------------------------------------------
# schedule compilation


def _years_to_days(years: float) -> int:
    return round(years * DAYS_PER_YEAR)


def _days_after(start: date, days: float) -> Optional[date]:
    """start + ceil(days), or None past date.max (beyond every horizon)."""
    try:
        return start + timedelta(days=math.ceil(days))
    except OverflowError:
        return None


def _counter(counter: str, install: InstallationRecord, usage: UsageProfile, end: date):
    """(date_reaching, value at end) of a cumulative counter.

    date_reaching(threshold) bisects the logged (date, count) points, which are
    authoritative; beyond the last one the counter grows at the usage rate (zero
    rate: log-driven only). The value at end counts only log points dated by end.
    """
    if counter not in usage.counters and counter not in install.cycle_log:
        raise ValidationError(f"unknown cycle counter {counter!r}")
    log = install.cycle_log.get(counter, ())
    dates, counts = zip(*log) if log else ((), ())
    rate = usage.counters.get(counter, 0.0)
    last_date, last_count = log[-1] if log else (install.install_date, 0.0)

    def date_reaching(threshold: float) -> Optional[date]:
        if threshold <= last_count:
            return dates[bisect_left(counts, threshold)]
        if rate > 0:
            return _days_after(last_date, max((threshold - last_count) / rate, 0))
        return None

    if last_date > end:  # the value at end is the last count logged by end
        return date_reaching, (0.0, *counts)[bisect_right(dates, end)]
    return date_reaching, last_count + rate * (end - last_date).days


def generate_schedule(
    registry: Registry,
    install: InstallationRecord,
    usage: UsageProfile,
    horizon_years: float,
) -> list[ScheduleEntry]:
    """Compile dated maintenance entries over the horizon.

    Calendar triggers recur from the install date; cycle triggers convert
    thresholds to dates by bisecting the counter's log (entries also carry
    the threshold as due_count); whichever_first takes the earlier side at
    each recurrence, calendar winning ties; event triggers emit one entry
    per logged matching event; a lifed component gets a life_expired entry.
    Output is sorted by (due date, component id, task, reason). The horizon
    must end by date.max; a recurrence that would pass it is never due. A
    trigger that could take the schedule past MAX_ENTRIES is a ValidationError.
    """
    if not 0 < horizon_years < math.inf:
        raise ValidationError(f"horizon must be positive and finite, got {horizon_years}")
    start = install.install_date
    end = _days_after(start, _years_to_days(horizon_years))
    if end is None:
        raise ValidationError(f"horizon of {horizon_years} years from {start} ends after {date.max}")
    horizon_days = (end - start).days
    entries: list[ScheduleEntry] = []

    def within(d: Optional[date]) -> bool:
        return d is not None and start <= d <= end

    # Entries are built with every field positional, Record's fast path.

    for component in registry.components:
        for task in component.tasks:
            trig = task.trigger
            if isinstance(trig, EventTrigger):
                entries.extend(
                    ScheduleEntry(when, component.id, task.description, EVENT, None)
                    for when, kind in install.event_log
                    if kind == trig.kind and within(when)
                )
                continue
            # A cycle interval is a whichever_first without a calendar side. Recurrence k is due
            # only if k*years in days rounds to at most horizon_days or k*cycles <= count at end.
            years = None if isinstance(trig, CycleInterval) else trig.years
            bound = 0.0 if years is None else (horizon_days + 1) / (years * DAYS_PER_YEAR) + 1
            if not isinstance(trig, CalendarInterval):
                date_reaching, count_at_end = _counter(trig.counter, install, usage, end)
                bound = max(bound, count_at_end / trig.cycles + 1)
            if not bound <= MAX_ENTRIES - len(entries):
                raise ValidationError(f"component {component.id!r} task {task.description!r} "
                                      f"would take the schedule past {MAX_ENTRIES} entries")
            if isinstance(trig, CalendarInterval):
                entries.extend(
                    ScheduleEntry(due, component.id, task.description, INTERVAL_ELAPSED, None)
                    for due in _calendar_recurrences(start, end, trig.years)
                )
                continue
            for k in range(1, int(bound) + 1):
                cyc_due = date_reaching(k * trig.cycles)
                cal_due = None if years is None else _days_after(start, _years_to_days(k * years))
                if cyc_due is not None and (cal_due is None or cyc_due < cal_due):
                    due, reason, count = cyc_due, CYCLES_ELAPSED, k * trig.cycles
                else:
                    due, reason, count = cal_due, INTERVAL_ELAPSED, None
                if not within(due):
                    break
                entries.append(ScheduleEntry(due, component.id, task.description, reason, count))
        life = component.service_life
        if life is not None:
            if life.unit == YEARS:
                due, count = _days_after(start, _years_to_days(life.value)), None
            else:
                due, count = _counter(life.counter, install, usage, end)[0](life.value), life.value
            if within(due):
                entries.append(
                    ScheduleEntry(
                        due, component.id,
                        f"Service life reached ({_life_text(life)})",
                        LIFE_EXPIRED, count,
                    )
                )

    entries.sort(key=attrgetter("due_date", "component_id", "task", "reason"))
    return entries


def _calendar_recurrences(start: date, end: date, interval_years: float):
    """start + k intervals for k = 1, 2, ... up to end; the days round as _years_to_days does."""
    first, last, k = start.toordinal(), end.toordinal(), 1
    while (day := first + round(k * interval_years * DAYS_PER_YEAR)) <= last:
        yield date.fromordinal(day)
        k += 1


def remaining_service_life(
    component: ComponentRecord, usage: UsageProfile, elapsed_years: float
) -> RemainingLife:
    """Remaining life and consumed fraction after elapsed_years of service.

    Cycle-based lives consume at elapsed * 365 * daily rate of their
    counter. Overconsumption clamps the fraction to 1 and sets the flag.
    """
    _require_finite("elapsed_years", elapsed_years)
    if elapsed_years < 0:
        raise ValidationError(f"elapsed_years must be >= 0, got {elapsed_years}")
    life = component.service_life
    if life is None:
        raise ValidationError(f"component {component.id!r} is not lifed")
    if life.unit == YEARS:
        consumed = elapsed_years
    else:
        if life.counter not in usage.counters:
            raise ValidationError(
                f"component {component.id!r} lifed against unknown counter {life.counter!r}"
            )
        consumed = elapsed_years * DAYS_PER_YEAR * usage.counters[life.counter]
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
