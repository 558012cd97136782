import math
from datetime import date, timedelta

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from dwtlife.errors import ValidationError
from dwtlife.model import DAYS_PER_YEAR
from dwtlife.presets import DEFAULT_USAGE
from dwtlife.schedule import (
    CYCLES_ELAPSED,
    EVENT,
    INTERVAL_ELAPSED,
    LIFE_EXPIRED,
    ComponentRecord,
    EventTrigger,
    InstallationRecord,
    MaintenanceTask,
    Recurrence,
    Registry,
    UsageProfile,
    _counter,
    default_registry,
    emit_report,
    generate_schedule,
    installation_from_document,
    load_registry,
    remaining_service_life,
    site_from_document,
)

import oracles

INSTALL = InstallationRecord(install_date=date(2025, 1, 1))


def single_component_registry(tasks, service_life=None):
    doc = {
        "components": [
            {
                "id": "widget",
                "group": "Structural",
                "failure_modes": ["wear"],
                "tasks": tasks,
                **({"service_life": service_life} if service_life else {}),
            }
        ]
    }
    return load_registry(doc)


class TestLoadRegistry:
    def test_default_registry_shape(self):
        reg = default_registry()
        by_group = {}
        for c in reg.components:
            by_group.setdefault(c.group, []).append(c)
        assert len(by_group["Structural"]) == 12
        assert len(by_group["Electromechanical"]) == 8
        assert len(by_group["Control"]) == 5
        assert len(by_group["Fasteners"]) == 22
        assert len(reg.components) == 47

    def test_slip_ring_replacement_task(self):
        slip_ring = default_registry().get("Slip Ring")
        descriptions = [t.description for t in slip_ring.tasks]
        assert "Replace after 20M cycles" in descriptions
        trigger = slip_ring.tasks[descriptions.index("Replace after 20M cycles")].trigger
        assert trigger.cycles == 20e6
        assert trigger.counter == "yaw_oscillations"

    def test_table_verbatim_rows(self):
        reg = default_registry()
        tower = reg.get("Tower")
        assert tower.service_life.years == 5
        assert tower.manufacturer_specified
        assert "Max base moment: 55000 ft-lbs*" in tower.specifications
        generator = reg.get("Generator")
        assert generator.service_life.years == 20
        assert "Demagnetization" in generator.failure_modes
        jack = reg.get("Screw Jack (Pole Raising System)")
        assert "Inspect every 100 cycles or 5 years (whichever comes first)" in [
            t.description for t in jack.tasks
        ]

    def test_empty_registry_is_valid(self):
        assert load_registry({"components": []}).components == ()

    def test_duplicate_id_rejected(self):
        doc = {
            "components": [
                {"id": "a", "group": "Structural", "tasks": []},
                {"id": "a", "group": "Control", "tasks": []},
            ]
        }
        with pytest.raises(ValidationError, match="duplicate"):
            load_registry(doc)

    def test_unknown_group_rejected_with_row_context(self):
        doc = {"components": [{"id": "a", "group": "Hydraulics", "tasks": []}]}
        with pytest.raises(ValidationError, match="component #0.*'a'"):
            load_registry(doc)

    def test_nonpositive_interval_rejected(self):
        doc = {
            "components": [
                {
                    "id": "a",
                    "group": "Structural",
                    "tasks": [
                        {"description": "x", "trigger": {"calendar_interval": {"years": 0}}}
                    ],
                }
            ]
        }
        with pytest.raises(ValidationError, match="component #0"):
            load_registry(doc)

    def test_trigger_parse_rejects_unknown_tag(self):
        task = {"description": "x", "trigger": {"lunar_phase": {}}}
        doc = {"components": [{"id": "a", "group": "Structural", "tasks": [task]}]}
        with pytest.raises(ValidationError, match="unknown trigger tag 'lunar_phase'"):
            load_registry(doc)

    @pytest.mark.parametrize("make", [
        lambda value: Recurrence(years=value),
        lambda value: Recurrence(cycles=value, counter="jack_cycles"),
        lambda value: Recurrence(years=value, cycles=1, counter="jack_cycles"),
        lambda value: Recurrence(years=1, cycles=value, counter="jack_cycles"),
        lambda value: single_component_registry([], {"value": value, "unit": "years"}),
        lambda value: single_component_registry(
            [], {"value": value, "unit": "cycles", "counter": "jack_cycles"}),
    ], ids=["calendar", "cycle", "whichever_years", "whichever_cycles", "life_years",
            "life_cycles"])
    def test_infinite_schedule_values_rejected(self, make):
        with pytest.raises(ValidationError, match=r"must lie in \(0, inf\), got inf$"):
            make(math.inf)


class TestRecurrence:
    """One record holds every recurring rule: a side left as None is never due."""

    def test_a_side_is_needed(self):
        with pytest.raises(ValidationError, match="^a recurrence needs years or cycles$"):
            Recurrence()

    @pytest.mark.parametrize("sides", [{"cycles": 5.0}, {"years": 1.0, "counter": "c"}])
    def test_counter_is_given_exactly_with_cycles(self, sides):
        with pytest.raises(ValidationError, match="^counter must be given exactly when cycles is"):
            Recurrence(**sides)

    def test_a_service_life_has_one_side(self):
        with pytest.raises(ValidationError, match="^a service life has one side"):
            ComponentRecord("a", "Control", service_life=Recurrence(1.0, 5.0, "c"))

    def test_each_tag_reads_into_its_sides(self):
        tasks = [{"description": tag, "trigger": {tag: body}} for tag, body in (
            ("calendar_interval", {"years": 2}),
            ("cycle_interval", {"cycles": 5, "counter": "c"}),
            ("whichever_first", {"years": 2, "cycles": 5, "counter": "c"}),
        )]
        reg = single_component_registry(tasks, {"value": 7, "unit": "cycles", "counter": "c"})
        widget = reg.components[0]
        assert [t.trigger for t in widget.tasks] == [
            Recurrence(years=2.0), Recurrence(cycles=5.0, counter="c"), Recurrence(2.0, 5.0, "c")]
        assert widget.service_life == Recurrence(cycles=7.0, counter="c")


class TestGenerateSchedule:
    def test_annual_ballast_top_off(self):
        entries = generate_schedule(default_registry(), INSTALL, DEFAULT_USAGE, 1.0)
        assert any(
            e.due_date == date(2026, 1, 1)
            and e.component_id == "Ballast Foundation"
            and e.task == "Top off ballast material every year"
            and e.reason == INTERVAL_ELAPSED
            for e in entries
        )

    def test_logged_jack_cycles_fire_lubrication_immediately(self):
        install = InstallationRecord(
            install_date=date(2025, 1, 1),
            cycle_log={"jack_cycles": [(date(2025, 3, 15), 15.0)]},
        )
        entries = generate_schedule(default_registry(), install, DEFAULT_USAGE, 1.0)
        lube = [
            e
            for e in entries
            if e.task == "Lubricate every 15 cycles or once a year with recommended grease"
        ]
        assert lube and lube[0].due_date == date(2025, 3, 15)
        assert lube[0].reason == CYCLES_ELAPSED
        assert lube[0].due_count == 15.0

    def test_short_horizon_taut_annual_registry(self):
        reg = single_component_registry(
            [{"description": "annual check", "trigger": {"calendar_interval": {"years": 1}}}]
        )
        assert generate_schedule(reg, INSTALL, DEFAULT_USAGE, 0.5) == []

    def test_whichever_first_cycle_boundary(self):
        reg = single_component_registry(
            [
                {
                    "description": "inspect",
                    "trigger": {
                        "whichever_first": {"years": 5, "cycles": 100, "counter": "jack_cycles"}
                    },
                }
            ]
        )
        usage = UsageProfile(counters={"jack_cycles": 1.0})
        entries = generate_schedule(reg, INSTALL, usage, 1.0)
        assert entries[0].due_date == date(2025, 1, 1) + timedelta(days=100)
        assert entries[0].reason == CYCLES_ELAPSED
        assert entries[0].due_count == 100.0

    def test_whichever_first_calendar_boundary(self):
        reg = single_component_registry(
            [
                {
                    "description": "inspect",
                    "trigger": {
                        "whichever_first": {"years": 5, "cycles": 100, "counter": "jack_cycles"}
                    },
                }
            ]
        )
        entries = generate_schedule(reg, INSTALL, DEFAULT_USAGE, 6.0)  # jack rate is 0
        assert entries[0].due_date == date(2025, 1, 1) + timedelta(days=5 * 365)
        assert entries[0].reason == INTERVAL_ELAPSED

    def test_whichever_first_takes_minimum_each_recurrence(self):
        reg = single_component_registry(
            [
                {
                    "description": "inspect",
                    "trigger": {
                        "whichever_first": {"years": 1, "cycles": 500, "counter": "jack_cycles"}
                    },
                }
            ]
        )
        usage = UsageProfile(counters={"jack_cycles": 2.0})
        entries = generate_schedule(reg, INSTALL, usage, 3.0)
        start = date(2025, 1, 1)
        for k, entry in enumerate(entries, start=1):
            calendar_due = start + timedelta(days=k * 365)
            cycle_due = start + timedelta(days=(k * 500 + 1) // 2)
            assert entry.due_date == min(calendar_due, cycle_due)

    def test_event_trigger_entries(self):
        install = InstallationRecord(
            install_date=date(2025, 1, 1),
            event_log=((date(2025, 6, 1), "high_load"),),
        )
        entries = generate_schedule(default_registry(), install, DEFAULT_USAGE, 1.0)
        event_entries = [e for e in entries if e.reason == EVENT]
        assert all(e.due_date == date(2025, 6, 1) for e in event_entries)
        assert {"Voltsys Controller", "Ballast Foundation"} <= {
            e.component_id for e in event_entries
        }

    def test_life_expired_entry(self):
        entries = generate_schedule(default_registry(), INSTALL, DEFAULT_USAGE, 1.0)
        expiries = [e for e in entries if e.reason == LIFE_EXPIRED]
        assert any(
            e.component_id == "Ballast Foundation" and e.due_date == date(2026, 1, 1)
            for e in expiries
        )
        # five-year lives fall outside a one-year horizon
        assert not any(e.component_id == "Tower" for e in expiries)

    def test_entries_within_horizon(self):
        install = InstallationRecord(
            install_date=date(2025, 1, 1),
            event_log=((date(2025, 2, 1), "high_load"),),
            cycle_log={"jack_cycles": [(date(2025, 2, 10), 40.0)]},
        )
        horizon_years = 2.5
        entries = generate_schedule(default_registry(), install, DEFAULT_USAGE, horizon_years)
        end = date(2025, 1, 1) + timedelta(days=round(horizon_years * 365))
        assert entries
        for e in entries:
            assert date(2025, 1, 1) <= e.due_date <= end

    def test_stable_under_row_reordering(self):
        reg = default_registry()
        reversed_reg = Registry(components=tuple(reversed(reg.components)))
        a = generate_schedule(reg, INSTALL, DEFAULT_USAGE, 2.0)
        b = generate_schedule(reversed_reg, INSTALL, DEFAULT_USAGE, 2.0)
        assert a == b

    def test_unknown_counter_rejected(self):
        reg = single_component_registry(
            [
                {
                    "description": "x",
                    "trigger": {"cycle_interval": {"cycles": 10, "counter": "phantom"}},
                }
            ]
        )
        with pytest.raises(ValidationError, match="phantom"):
            generate_schedule(reg, INSTALL, DEFAULT_USAGE, 1.0)

    def test_service_life_counter_id_is_read_as_its_triggers_are(self):
        reg = single_component_registry(
            [{"description": "x", "trigger": {"cycle_interval": {"cycles": 4, "counter": 5}}}],
            service_life={"value": 10, "unit": "cycles", "counter": 5},
        )
        assert reg.components[0].service_life.counter == "5"
        entries = generate_schedule(reg, INSTALL, UsageProfile(counters={"5": 1.0}), 1.0)
        assert (date(2025, 1, 11), LIFE_EXPIRED) in [(e.due_date, e.reason) for e in entries]
        for life in ({"value": 3, "unit": "years"}, {"value": 3, "unit": "years", "counter": None}):
            reg = single_component_registry([], service_life=life)
            assert reg.components[0].service_life.counter is None

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValidationError):
            generate_schedule(default_registry(), INSTALL, DEFAULT_USAGE, 0.0)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan, 8000.0, 1e300])
    def test_horizon_past_last_date_rejected(self, horizon):
        with pytest.raises(ValidationError, match="horizon"):
            generate_schedule(default_registry(), INSTALL, DEFAULT_USAGE, horizon)

    YEARLY = [{"description": "yearly", "trigger": {"calendar_interval": {"years": 1}}}]
    A_YEAR_BEFORE_DATE_MAX = InstallationRecord(install_date=date.max - timedelta(days=365))

    def test_horizon_ending_on_date_max_accepted(self):
        reg = single_component_registry(self.YEARLY)
        entries = generate_schedule(reg, self.A_YEAR_BEFORE_DATE_MAX, DEFAULT_USAGE, 1.0)
        assert [e.due_date for e in entries] == [date.max]

    # a day past date.max, and a horizon whose day count is inf
    @pytest.mark.parametrize("horizon", [366 / 365, 1e308])
    def test_horizon_ending_after_date_max_rejected(self, horizon):
        reg = single_component_registry(self.YEARLY)
        with pytest.raises(ValidationError, match=r"years from 9998-12-31 ends after 9999-12-31$"):
            generate_schedule(reg, self.A_YEAR_BEFORE_DATE_MAX, DEFAULT_USAGE, horizon)

    def test_recurrences_past_last_date_are_never_due(self):
        reg = single_component_registry(
            [
                {"description": "triennial", "trigger": {"calendar_interval": {"years": 3}}},
                {
                    "description": "inspect",
                    "trigger": {
                        "whichever_first": {"years": 4, "cycles": 100, "counter": "jack_cycles"}
                    },
                },
                {
                    "description": "lubricate",
                    "trigger": {"cycle_interval": {"cycles": 100, "counter": "jack_cycles"}},
                },
            ],
            service_life={"value": 50, "unit": "years"},
        )
        install = InstallationRecord(install_date=date(9990, 1, 1))
        usage = UsageProfile(counters={"jack_cycles": 0.01})
        # ends 9999-12-26; the next calendar, cycle and life dates pass date.max
        entries = generate_schedule(reg, install, usage, 9.99)
        assert [(e.task, e.due_date.year) for e in entries] == [
            ("triennial", 9992), ("inspect", 9993), ("triennial", 9995),
            ("inspect", 9997), ("triennial", 9998),
        ]

    def test_interval_longer_than_the_calendar_never_fires(self):
        reg = single_component_registry(
            [{"description": "someday", "trigger": {"calendar_interval": {"years": 1e6}}}],
            service_life={"value": 1e6, "unit": "years"},
        )
        assert generate_schedule(reg, INSTALL, DEFAULT_USAGE, 20.0) == []

    def test_installation_document_parsing(self):
        install = installation_from_document(
            {
                "install_date": "2025-01-01",
                "events": [{"date": "2025-02-01", "kind": "high_load"}],
                "cycles": {"jack_cycles": [{"date": "2025-03-01", "count": 7}]},
            }
        )
        assert install.install_date == date(2025, 1, 1)
        assert install.event_log == ((date(2025, 2, 1), "high_load"),)
        assert install.cycle_log["jack_cycles"] == ((date(2025, 3, 1), 7.0),)

    def test_log_monotonicity_enforced(self):
        with pytest.raises(ValidationError):
            InstallationRecord(
                install_date=date(2025, 1, 1),
                cycle_log={"jack_cycles": [(date(2025, 3, 1), 9.0), (date(2025, 2, 1), 10.0)]},
            )
        with pytest.raises(ValidationError):
            InstallationRecord(
                install_date=date(2025, 1, 1),
                event_log=((date(2025, 2, 1), "earthquake"),),
            )

    def test_logged_event_kind_is_read_by_the_trigger_rule(self):
        with pytest.raises(ValidationError) as by_trigger:
            EventTrigger("earthquake")
        with pytest.raises(ValidationError) as by_log:
            InstallationRecord(date(2025, 1, 1), ((date(2025, 2, 1), "earthquake"),))
        assert str(by_log.value) == str(by_trigger.value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_usage_rate_and_logged_count_rejected(self, value):
        with pytest.raises(ValidationError):
            UsageProfile(counters={"jack_cycles": value})
        with pytest.raises(ValidationError):
            InstallationRecord(
                install_date=date(2025, 1, 1),
                cycle_log={"jack_cycles": [(date(2025, 3, 1), value)]},
            )


class TestCounter:
    """_counter: the day after install a counter first reaches a threshold, and its value at end."""

    LOG = {"jack_cycles": [(date(2025, 2, 1), 10.0), (date(2025, 3, 1), 10.0),
                           (date(2025, 4, 1), 25.0)]}

    def counter(self, rate=0.0, end=date(2026, 1, 1), log=LOG):
        install = InstallationRecord(install_date=date(2025, 1, 1), cycle_log=log)
        day_reaching, count_at = _counter("jack_cycles", install, UsageProfile({"jack_cycles": rate}))
        return day_reaching, count_at((end - install.install_date).days)

    @staticmethod
    def day(when):
        return (when - date(2025, 1, 1)).days

    def test_threshold_equal_to_a_logged_count(self):
        day_reaching, _ = self.counter()
        assert day_reaching(25.0) == self.day(date(2025, 4, 1))

    def test_repeated_counts_give_the_first_point(self):
        day_reaching, _ = self.counter()
        assert day_reaching(10.0) == self.day(date(2025, 2, 1))

    def test_threshold_between_two_points(self):
        day_reaching, _ = self.counter()
        assert day_reaching(0.5) == self.day(date(2025, 2, 1))
        assert day_reaching(10.5) == self.day(date(2025, 4, 1))

    def test_past_the_last_point_at_rate_zero_is_never_due(self):
        day_reaching, at_end = self.counter(rate=0.0)
        assert day_reaching(25.5) == math.inf
        assert at_end == 25.0

    def test_past_the_last_point_projects_at_the_rate(self):
        day_reaching, at_end = self.counter(rate=2.0)
        # ceil((30 - 25) / 2) = 3 days after the last point
        assert day_reaching(30.0) == self.day(date(2025, 4, 4))
        assert at_end == 25.0 + 2.0 * (date(2026, 1, 1) - date(2025, 4, 1)).days

    def test_value_at_end_counts_only_points_dated_by_end(self):
        _, at_end = self.counter(rate=2.0, end=date(2025, 3, 15))
        assert at_end == 10.0
        _, at_end = self.counter(rate=2.0, end=date(2025, 1, 15))
        assert at_end == 0.0
        _, at_end = self.counter(rate=2.0, end=date(2025, 2, 1))  # a point dated on end counts
        assert at_end == 10.0

    def test_projection_past_every_date_is_never_due(self):
        # 10 / 5e-324 overflows to inf days
        day_reaching, _ = self.counter(rate=5e-324, log={})
        assert day_reaching(10.0) == math.inf

    def test_no_log_projects_from_the_install_date(self):
        day_reaching, at_end = self.counter(rate=4.0, log={})
        assert day_reaching(10.0) == self.day(date(2025, 1, 4))
        assert at_end == 4.0 * 365

    def test_past_every_day_at_rate_zero_adds_nothing(self):
        install = InstallationRecord(install_date=date(2025, 1, 1), cycle_log=self.LOG)
        _, count_at = _counter("jack_cycles", install, UsageProfile({"jack_cycles": 0.0}))
        assert count_at(math.inf) == 25.0  # not 25 + 0 * inf

    def test_unknown_counter_rejected(self):
        with pytest.raises(ValidationError, match="phantom"):
            _counter("phantom", INSTALL, DEFAULT_USAGE)


class TestSiteFromDocument:
    def test_no_install_record_and_no_date_gives_none(self):
        assert site_from_document({}, None) == (None, DEFAULT_USAGE)

    def test_install_date_text_gives_a_record_without_logs(self):
        assert site_from_document({}, "2025-01-01") == (INSTALL, DEFAULT_USAGE)

    def test_install_record_and_date_together_refused(self):
        site = {"install": {"install_date": "2025-01-01"}}
        with pytest.raises(ValidationError, match="not both"):
            site_from_document(site, "2025-01-01")


COUNTERS = ("jack_cycles", "yaw_cycles", "phantom")  # phantom is in no log and no usage
START = date(2025, 1, 1)


@st.composite
def triggers(draw):
    kind = draw(st.sampled_from(("calendar", "cycle", "whichever", "event")))
    years = draw(st.floats(0.05, 6.0))
    cycles = draw(st.floats(1.0, 400.0))
    counter = draw(st.sampled_from(COUNTERS[:2]) if draw(st.integers(0, 9)) else st.just("phantom"))
    if kind == "calendar":
        return Recurrence(years=years)
    if kind == "cycle":
        return Recurrence(cycles=cycles, counter=counter)
    if kind == "whichever":
        return Recurrence(years, cycles, counter)
    return EventTrigger(draw(st.sampled_from(("high_load", "post_install_inspection"))))


@st.composite
def lives(draw):
    kind = draw(st.sampled_from(("none", "years", "cycles")))
    if kind == "none":
        return None
    if kind == "years":
        return Recurrence(years=draw(st.floats(0.1, 25.0)))
    return Recurrence(cycles=draw(st.floats(1.0, 5000.0)),
                      counter=draw(st.sampled_from(COUNTERS[:2])))


@st.composite
def registries(draw):
    components = []
    for index in range(draw(st.integers(1, 4))):
        tasks = draw(st.lists(triggers(), max_size=4))
        components.append(ComponentRecord(
            id=f"part {index}", group="Structural", service_life=draw(lives()),
            tasks=tuple(MaintenanceTask(f"task {i}", t) for i, t in enumerate(tasks)),
        ))
    return Registry(components=tuple(components))


@st.composite
def cycle_logs(draw):
    """Nondecreasing points with zero day and count steps, some past a 20 y horizon."""
    when, count, log = START, 0.0, []
    for _ in range(draw(st.integers(0, 12))):
        when += timedelta(days=draw(st.sampled_from((0, 0, 1, 30)) | st.integers(0, 3000)))
        count += draw(st.sampled_from((0.0, 0.0, 100.0)) | st.floats(0.0, 500.0))
        log.append((when, count))
    return log


def _some_counters(draw):
    """Each known counter, most of the time."""
    return [c for c in COUNTERS[:2] if draw(st.integers(0, 3))]


@st.composite
def installations(draw):
    counters = _some_counters(draw)
    days = draw(st.lists(st.integers(0, 3000), max_size=5))
    kinds = draw(st.lists(st.sampled_from(("high_load", "post_install_inspection")),
                          min_size=len(days), max_size=len(days)))
    return InstallationRecord(
        install_date=START,
        event_log=tuple((START + timedelta(days=d), k) for d, k in zip(sorted(days), kinds)),
        cycle_log={counter: draw(cycle_logs()) for counter in counters},
    )


@st.composite
def usages(draw):
    counters = _some_counters(draw)
    return UsageProfile(counters={
        c: draw(st.sampled_from((0.0, 1.0)) | st.floats(0.0, 3.0)) for c in counters
    })


def _compiled(compile_, *args):
    try:
        return compile_(*args)
    except ValidationError as exc:
        return repr(exc)


@settings(
    max_examples=200, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
@given(registries(), installations(), usages(), st.floats(0.01, 20.0))
def test_schedule_matches_the_threshold_scan_reference(registry, install, usage, horizon):
    new = _compiled(generate_schedule, registry, install, usage, horizon)
    reference = _compiled(oracles.threshold_scan_schedule, registry, install, usage, horizon)
    assert new == reference


class TestRecurrenceBound:
    """The bound on recurrences reaches the last due one; past MAX_ENTRIES it is an error."""

    def test_threshold_equal_to_the_count_at_end_is_due(self):
        cycles = 22.597  # 3 * cycles / cycles rounds to 2.9999999999999996
        install = InstallationRecord(
            install_date=START, cycle_log={"jack_cycles": [(date(2025, 2, 1), 3 * cycles)]}
        )
        trigger = {"cycle_interval": {"cycles": cycles, "counter": "jack_cycles"}}
        reg = single_component_registry([{"description": "x", "trigger": trigger}])
        entries = generate_schedule(reg, install, DEFAULT_USAGE, 1.0)
        assert [e.due_count for e in entries] == [cycles, 2 * cycles, 3 * cycles]

    def test_sub_day_whichever_first_matches_the_reference(self):
        # 0.0365 days per recurrence: k is due while k * 0.0365 rounds to at most 36 days
        trigger = {"whichever_first": {"years": 1e-4, "cycles": 100, "counter": "jack_cycles"}}
        reg = single_component_registry([{"description": "x", "trigger": trigger}])
        entries = generate_schedule(reg, INSTALL, DEFAULT_USAGE, 0.1)
        assert len(entries) == 1000
        assert entries == oracles.threshold_scan_schedule(reg, INSTALL, DEFAULT_USAGE, 0.1)

    def test_cycle_side_continues_after_the_calendar_side_passes_date_max(self):
        # 20 years from 9990-01-01 is past date.max; a cycle is due every 10 days to the horizon
        install = InstallationRecord(install_date=date(9990, 1, 1))
        usage = UsageProfile(counters={"jack_cycles": 1.0})
        trigger = {"whichever_first": {"years": 20, "cycles": 10, "counter": "jack_cycles"}}
        reg = single_component_registry([{"description": "x", "trigger": trigger}])
        entries = generate_schedule(reg, install, usage, 9.99)
        assert len(entries) == 364 and {e.reason for e in entries} == {"cycles_elapsed"}
        assert entries == oracles.threshold_scan_schedule(reg, install, usage, 9.99)

    def test_calendar_span_too_large_to_round_is_never_due(self):
        # 1e308 years is inf days: the calendar side and the years life are never due
        huge = {"calendar_interval": {"years": 1e308}}
        either = {"whichever_first": {"years": 1e308, "cycles": 5e6, "counter": "rotor_cycles"}}
        cycle = {"cycle_interval": {"cycles": 5e6, "counter": "rotor_cycles"}}
        reg = single_component_registry(
            [{"description": "x", "trigger": huge}, {"description": "y", "trigger": either}],
            service_life={"value": 1e308, "unit": "years"},
        )
        entries = generate_schedule(reg, INSTALL, DEFAULT_USAGE, 1.0)
        alone = single_component_registry([{"description": "y", "trigger": cycle}])
        assert entries and entries == generate_schedule(alone, INSTALL, DEFAULT_USAGE, 1.0)

    def test_vanishing_whichever_first_years_rejected(self):
        # the calendar side rounds to day 0 for every k; the CLI cases pin the other repros
        trigger = {"whichever_first": {"years": 1e-300, "cycles": 100, "counter": "jack_cycles"}}
        reg = single_component_registry([{"description": "x", "trigger": trigger}])
        with pytest.raises(ValidationError, match="'widget' task 'x' .* past 1000000 entries"):
            generate_schedule(reg, INSTALL, DEFAULT_USAGE, 1.0)

    def test_huge_count_past_the_horizon_is_not_counted(self):
        log = {"jack_cycles": [(date(2025, 2, 1), 30.0), (date(2030, 1, 1), 1e300)]}
        install = InstallationRecord(install_date=START, cycle_log=log)
        trigger = {"cycle_interval": {"cycles": 15, "counter": "jack_cycles"}}
        reg = single_component_registry([{"description": "x", "trigger": trigger}])
        entries = generate_schedule(reg, install, DEFAULT_USAGE, 1.0)
        assert [e.due_count for e in entries] == [15.0, 30.0]

    def test_default_registry_over_a_thousand_years_fits(self):
        entries = generate_schedule(default_registry(), INSTALL, DEFAULT_USAGE, 1000.0)
        assert len(entries) == 122_496


class TestRemainingLife:
    def test_generator_at_five_years(self):
        generator = default_registry().get("Generator")
        result = remaining_service_life(generator, DEFAULT_USAGE, 5.0)
        assert result.remaining == pytest.approx(15.0)
        assert result.unit == "years"
        assert result.fraction_consumed == pytest.approx(0.25)
        assert not result.overconsumed

    def test_fresh_component(self):
        generator = default_registry().get("Generator")
        result = remaining_service_life(generator, DEFAULT_USAGE, 0.0)
        assert result.remaining == pytest.approx(20.0)
        assert result.fraction_consumed == 0.0

    def test_cycles_based_slip_ring_rating(self):
        rated = ComponentRecord(
            id="slip-ring-rating",
            group="Electromechanical",
            service_life=Recurrence(cycles=40e6, counter="yaw_oscillations"),
        )
        result = remaining_service_life(rated, DEFAULT_USAGE, 36.5)
        consumed = 1500.0 * 365 * 36.5
        assert result.remaining == pytest.approx(40e6 - consumed)
        assert result.fraction_consumed == pytest.approx(0.5, rel=1e-2)
        assert result.unit == "cycles"

    def test_overconsumption_clamped_and_flagged(self):
        generator = default_registry().get("Generator")
        result = remaining_service_life(generator, DEFAULT_USAGE, 30.0)
        assert result.remaining == 0.0
        assert result.fraction_consumed == 1.0
        assert result.overconsumed

    def test_not_lifed_component_rejected(self):
        controller = default_registry().get("Voltsys Controller")
        with pytest.raises(ValidationError, match="not lifed"):
            remaining_service_life(controller, DEFAULT_USAGE, 1.0)

    def test_missing_counter_rejected(self):
        rated = ComponentRecord(
            id="x",
            group="Electromechanical",
            service_life=Recurrence(cycles=1e6, counter="phantom"),
        )
        with pytest.raises(ValidationError, match="phantom"):
            remaining_service_life(rated, DEFAULT_USAGE, 1.0)

    def test_rul_nonincreasing_and_zero_at_life_end(self):
        generator = default_registry().get("Generator")
        values = [
            remaining_service_life(generator, DEFAULT_USAGE, t).remaining
            for t in (0.0, 5.0, 10.0, 19.0, 20.0, 21.0)
        ]
        assert values == sorted(values, reverse=True)
        assert remaining_service_life(generator, DEFAULT_USAGE, 20.0).remaining == 0.0


JACK_LOG = {"jack_cycles": [(date(2025, 3, 15), 15.0), (date(2026, 5, 1), 40.0)]}


def jack_lifed(cycles):
    return ComponentRecord(id="jk", group="Structural",
                           service_life=Recurrence(cycles=cycles, counter="jack_cycles"))


class TestRemainingLifeReadsTheCounter:
    """remaining_service_life consumes a cycle life through the schedule's counter model."""

    @settings(max_examples=300)
    @given(
        life=st.floats(min_value=5e-324, allow_infinity=False),
        rate=st.floats(min_value=0.0, allow_infinity=False),
        elapsed=st.floats(min_value=0.0, allow_infinity=False),
    )
    def test_without_a_record_the_count_is_elapsed_days_times_the_rate(self, life, rate, elapsed):
        result = remaining_service_life(
            jack_lifed(life), UsageProfile({"jack_cycles": rate}), elapsed, None
        )
        # the rate-only rule, bit for bit; a zero rate adds nothing, even over infinite days
        consumed = elapsed * DAYS_PER_YEAR * rate if rate else 0.0
        fraction = consumed / life
        expected = (max(life - consumed, 0.0), "cycles", min(fraction, 1.0), fraction > 1.0)
        assert repr(tuple(getattr(result, name) for name in result._fields)) == repr(expected)

    def test_logged_counts_are_read_between_and_past_the_points(self):
        install = InstallationRecord(install_date=date(2025, 1, 1), cycle_log=JACK_LOG)
        usage = UsageProfile({"jack_cycles": 0.0})
        consumed = [30.0 - remaining_service_life(jack_lifed(30.0), usage, t, install).remaining
                    for t in (0.0, 0.19, 0.21, 0.5, 1.32, 1.34, 2.0)]
        # day 69.35 is before the first point (day 73); day 485 is the second
        assert consumed == [0.0, 0.0, 15.0, 15.0, 15.0, 30.0, 30.0]
        result = remaining_service_life(jack_lifed(30.0), usage, 2.0, install)
        assert result.overconsumed and result.fraction_consumed == 1.0

    def test_rate_projects_past_the_last_point(self):
        install = InstallationRecord(install_date=date(2025, 1, 1), cycle_log=JACK_LOG)
        usage = UsageProfile({"jack_cycles": 0.5})
        result = remaining_service_life(jack_lifed(200.0), usage, 2.0, install)
        assert result.remaining == 200.0 - (40.0 + 0.5 * (730 - 485))

    def test_a_logged_counter_needs_no_rate(self):
        install = InstallationRecord(install_date=date(2025, 1, 1), cycle_log=JACK_LOG)
        result = remaining_service_life(jack_lifed(30.0), UsageProfile({}), 0.5, install)
        assert result.remaining == 15.0 and result.fraction_consumed == 0.5

    @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    @given(
        steps=st.lists(st.tuples(st.integers(0, 400), st.integers(0, 40)), max_size=8),
        life=st.integers(1, 200),
        rate=st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=20.0)),
        elapsed=st.floats(min_value=0.0, max_value=5.0),
    )
    def test_overconsumed_exactly_when_the_schedule_expires_the_life(
        self, steps, life, rate, elapsed
    ):
        # repeated dates and counts come from zero steps; a log may run past the horizon
        log, day, count = [], 0, 0.0
        for gap, added in steps:
            day, count = day + gap, count + added
            log.append((START + timedelta(days=day), count))
        install = InstallationRecord(install_date=START, cycle_log={"jack_cycles": log})
        usage = UsageProfile({"jack_cycles": rate} if rate else {})  # rate 0: log-only
        registry = Registry(components=(jack_lifed(float(life)),))
        expired = [e.due_date for e in generate_schedule(registry, install, usage, elapsed + 1)
                   if e.reason == LIFE_EXPIRED]
        elapsed_days = elapsed * DAYS_PER_YEAR
        if expired:
            expired_day = (expired[0] - START).days
            assume(abs(expired_day - elapsed_days) > 1)
        due = bool(expired) and expired_day <= elapsed_days
        result = remaining_service_life(jack_lifed(float(life)), usage, elapsed, install)
        assert (result.overconsumed or result.fraction_consumed == 1.0) == due


class TestReports:
    def test_empty_schedule_csv(self):
        assert emit_report([], "csv") == "due_date,component_id,task,reason\r\n"

    def test_registry_markdown_layout(self):
        text = emit_report(default_registry(), "markdown")
        assert "| Component | Failure Modes | Service Life | Specifications | Service Tasks |" in text
        assert "## Fasteners" in text
        assert "Inspect / Check torque" in text
        assert "| Tower |" in text
        assert "5 years*" in text  # manufacturer-specified life keeps its asterisk
        assert "N/A" in text

    def test_byte_determinism(self):
        entries = generate_schedule(default_registry(), INSTALL, DEFAULT_USAGE, 1.5)
        assert emit_report(entries, "csv") == emit_report(entries, "csv")
        assert emit_report(default_registry(), "markdown") == emit_report(
            default_registry(), "markdown"
        )

    def test_csv_quoting(self):
        entries = generate_schedule(default_registry(), INSTALL, DEFAULT_USAGE, 6.0)
        text = emit_report(entries, "csv")
        assert '"Inspect column deflection, cracks, localized damage, every 5 years"' in text

    def test_schedule_markdown(self):
        entries = generate_schedule(default_registry(), INSTALL, DEFAULT_USAGE, 1.0)
        text = emit_report(entries, "markdown")
        assert text.startswith("| due_date | component_id | task | reason |")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValidationError):
            emit_report([], "pdf")
