import math
from datetime import date, timedelta

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dwtlife.errors import ValidationError
from dwtlife.presets import DEFAULT_USAGE
from dwtlife.schedule import (
    CYCLES_ELAPSED,
    EVENT,
    INTERVAL_ELAPSED,
    LIFE_EXPIRED,
    CalendarInterval,
    ComponentRecord,
    CycleInterval,
    EventTrigger,
    InstallationRecord,
    MaintenanceTask,
    Registry,
    ServiceLife,
    UsageProfile,
    WhicheverFirst,
    _counter,
    default_registry,
    emit_report,
    generate_schedule,
    installation_from_document,
    load_registry,
    parse_trigger,
    remaining_service_life,
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
        assert tower.service_life.value == 5
        assert tower.manufacturer_specified
        assert "Max base moment: 55000 ft-lbs*" in tower.specifications
        generator = reg.get("Generator")
        assert generator.service_life.value == 20
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
        with pytest.raises(ValidationError):
            parse_trigger({"lunar_phase": {}})

    @pytest.mark.parametrize("make", [
        lambda value: CalendarInterval(years=value),
        lambda value: CycleInterval(cycles=value, counter="jack_cycles"),
        lambda value: WhicheverFirst(years=value, cycles=1, counter="jack_cycles"),
        lambda value: WhicheverFirst(years=1, cycles=value, counter="jack_cycles"),
        lambda value: ServiceLife(value=value, unit="years"),
        lambda value: ServiceLife(value=value, unit="cycles", counter="jack_cycles"),
    ], ids=["calendar", "cycle", "whichever_years", "whichever_cycles", "life_years",
            "life_cycles"])
    def test_infinite_schedule_values_rejected(self, make):
        with pytest.raises(ValidationError, match="finite"):
            make(math.inf)


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

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValidationError):
            generate_schedule(default_registry(), INSTALL, DEFAULT_USAGE, 0.0)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan, 8000.0, 1e300])
    def test_horizon_past_last_date_rejected(self, horizon):
        with pytest.raises(ValidationError, match="horizon"):
            generate_schedule(default_registry(), INSTALL, DEFAULT_USAGE, horizon)

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
    """_counter: the date a counter first reaches a threshold, and its value at end."""

    LOG = {"jack_cycles": [(date(2025, 2, 1), 10.0), (date(2025, 3, 1), 10.0),
                           (date(2025, 4, 1), 25.0)]}

    def counter(self, rate=0.0, end=date(2026, 1, 1), log=LOG):
        install = InstallationRecord(install_date=date(2025, 1, 1), cycle_log=log)
        return _counter("jack_cycles", install, UsageProfile(counters={"jack_cycles": rate}), end)

    def test_threshold_equal_to_a_logged_count(self):
        date_reaching, _ = self.counter()
        assert date_reaching(25.0) == date(2025, 4, 1)

    def test_repeated_counts_give_the_first_point(self):
        date_reaching, _ = self.counter()
        assert date_reaching(10.0) == date(2025, 2, 1)

    def test_threshold_between_two_points(self):
        date_reaching, _ = self.counter()
        assert date_reaching(0.5) == date(2025, 2, 1)
        assert date_reaching(10.5) == date(2025, 4, 1)

    def test_past_the_last_point_at_rate_zero_is_never_due(self):
        date_reaching, at_end = self.counter(rate=0.0)
        assert date_reaching(25.5) is None
        assert at_end == 25.0

    def test_past_the_last_point_projects_at_the_rate(self):
        date_reaching, at_end = self.counter(rate=2.0)
        # ceil((30 - 25) / 2) = 3 days after the last point
        assert date_reaching(30.0) == date(2025, 4, 4)
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
        date_reaching, _ = self.counter(rate=5e-324, log={})
        assert date_reaching(10.0) is None

    def test_no_log_projects_from_the_install_date(self):
        date_reaching, at_end = self.counter(rate=4.0, log={})
        assert date_reaching(10.0) == date(2025, 1, 4)
        assert at_end == 4.0 * 365

    def test_unknown_counter_rejected(self):
        with pytest.raises(ValidationError, match="phantom"):
            _counter("phantom", INSTALL, DEFAULT_USAGE, date(2026, 1, 1))


COUNTERS = ("jack_cycles", "yaw_cycles", "phantom")  # phantom is in no log and no usage
START = date(2025, 1, 1)


@st.composite
def triggers(draw):
    kind = draw(st.sampled_from(("calendar", "cycle", "whichever", "event")))
    years = draw(st.floats(0.05, 6.0))
    cycles = draw(st.floats(1.0, 400.0))
    counter = draw(st.sampled_from(COUNTERS[:2]) if draw(st.integers(0, 9)) else st.just("phantom"))
    if kind == "calendar":
        return CalendarInterval(years)
    if kind == "cycle":
        return CycleInterval(cycles, counter)
    if kind == "whichever":
        return WhicheverFirst(years, cycles, counter)
    return EventTrigger(draw(st.sampled_from(("high_load", "post_install_inspection"))))


@st.composite
def lives(draw):
    kind = draw(st.sampled_from(("none", "years", "cycles")))
    if kind == "none":
        return None
    if kind == "years":
        return ServiceLife(draw(st.floats(0.1, 25.0)), "years")
    return ServiceLife(draw(st.floats(1.0, 5000.0)), "cycles", draw(st.sampled_from(COUNTERS[:2])))


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
            service_life=ServiceLife(value=40e6, unit="cycles", counter="yaw_oscillations"),
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
            service_life=ServiceLife(value=1e6, unit="cycles", counter="phantom"),
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
