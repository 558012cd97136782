"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.
"""

import json
import math
import sys
from datetime import date, timedelta
from pathlib import Path

import pytest

from dwtlife import presets
from dwtlife.bearing import LifeModFactors, l10_life, oscillating_rating
from dwtlife.fatigue import (
    MarinFactors,
    cycles_to_calendar,
    cycles_to_failure,
    endurance_limit_unmodified,
    marin_modified_endurance,
    sn_constants,
)
from dwtlife.model import ColumnSpec, RectSection
from dwtlife.schedule import (
    CYCLES_ELAPSED,
    INTERVAL_ELAPSED,
    InstallationRecord,
    UsageProfile,
    default_registry,
    emit_report,
    generate_schedule,
    load_registry,
)
from dwtlife.structural import (
    FLAT,
    UPRIGHT,
    rect_bending_stress,
    rect_torsion_max_shear,
    secant_allowable_load,
    secant_deflection,
)
from dwtlife.system import (
    Component,
    LifeModel,
    Series,
    monte_carlo_mttf,
    parallel_reliability,
    poisson_pmf,
    series_reliability,
    system_service_life,
)
from dwtlife.units import convert, parse_quantity
from dwtlife.weibull import (
    QuantilePoint,
    WeibullParams,
    cdf,
    fit_two_quantiles,
    hazard,
    quantile_Bp,
    sample,
)

from oracles import empirical_cdf_distance, ode_midspan_deflection

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))
import regen  # noqa: E402

KSI = 6.894757e6


def ksi(x):
    return x * KSI


def to_ksi(pa):
    return convert(pa, "Pa", "ksi")


def rel_err(value, target):
    return abs(value - target) / abs(target)


def preset_chain(s_ut, marin):
    """Endurance limit and S-N constants of a preset strength (quantity text) and Marin set."""
    s_ut = parse_quantity(s_ut, "Pa")
    se = marin_modified_endurance(endurance_limit_unmodified(s_ut), MarinFactors(**marin))
    return se, sn_constants(s_ut, se, 0.9)


def tower_chain():
    return preset_chain(presets.TOWER_STEEL_SUT, presets.TOWER_MARIN)


def blade_chain():
    return preset_chain(presets.BLADE_ALUMINUM_SUT, presets.BLADE_MARIN)


def test_criterion_1_fatigue_golden_values():
    tower_se, _ = tower_chain()
    blade_se, blade_sn = blade_chain()
    assert rel_err(to_ksi(tower_se), 19.68) < 0.005
    assert rel_err(to_ksi(blade_se), 17.6) < 0.005
    assert rel_err(to_ksi(blade_sn.a), 93.196) < 0.001
    assert rel_err(blade_sn.b, -0.1206) < 0.001
    print("criterion 1 PASS: endurance limits 19.68/17.6 ksi and S-N pair "
          f"(a={to_ksi(blade_sn.a):.3f} ksi, b={blade_sn.b:.5f})")


def test_criterion_2_life_cycle_counts():
    _, tower_sn = tower_chain()
    _, blade_sn = blade_chain()
    tower_n = cycles_to_failure(ksi(13.56), tower_sn).cycles
    blade_n = cycles_to_failure(ksi(6.48), blade_sn).cycles
    assert rel_err(tower_n, 1.4e7) < 0.05
    assert rel_err(blade_n, 4.0e9) < 0.05
    tower_years = cycles_to_calendar(1.4e7, 1000.0)
    blade_years = cycles_to_calendar(4.0e9, 144000.0)
    assert tower_years > 38.0
    assert blade_years > 75.0
    print(f"criterion 2 PASS: N_tower={tower_n:.3e}, N_blade={blade_n:.3e}, "
          f"{tower_years:.1f} yr / {blade_years:.1f} yr")


def test_criterion_3_blade_stresses():
    section = RectSection(width_b=0.185, thickness_t=0.004)
    moment = 22055e-3  # N·m
    flat = rect_bending_stress(moment, section, FLAT)
    upright = rect_bending_stress(moment, section, UPRIGHT)
    assert rel_err(flat, 44.7e6) < 0.01
    assert rel_err(upright, 0.97e6) < 0.02
    print(f"criterion 3 PASS: bending {flat / 1e6:.2f} MPa flat, {upright / 1e6:.3f} MPa upright")


def cli_json(argv):
    """The JSON object `dwtlife ARGV --json` prints."""
    code, out, err = regen.run_cli([*argv, "--json"])
    assert code == 0, err
    return json.loads(out)


def test_criterion_4_rotor_torque_and_torsion_oracle():
    # the extreme-gust operating point is the aero torque and sweep flags' defaults
    gust = cli_json(["aero", "torque"])
    cq, torque = gust["cq"], gust["torque"]
    assert rel_err(cq, 0.207) < 0.005
    assert rel_err(torque, 3231.0) < 0.005
    published = {(0.5, 600.0): 4027.0, (0.6, 600.0): 4838.0, (0.4, 900.0): 2154.0}
    swept = {(row["cp"], row["rpm"]): row["torque"] for row in cli_json(["aero", "sweep"])["rows"]}
    assert swept.keys() == published.keys()
    for key, target in published.items():
        assert rel_err(swept[key], target) < 0.005
    # The published torsion stresses (1.232/13.269 MPa) mix N·m torque with
    # mm section dimensions and are not reproducible in consistent units;
    # the torsion operation is accepted against the consistent-unit oracle
    # and its linearity instead.
    section = RectSection(width_b=0.185, thickness_t=0.004)
    oracle = 300.0 * (3.0 + 1.8 * 0.004 / 0.185) / (0.185 * 0.004**2)
    assert rect_torsion_max_shear(300.0, section) == pytest.approx(oracle, rel=1e-12)
    assert rect_torsion_max_shear(600.0, section) == pytest.approx(2 * oracle, rel=1e-12)
    print(f"criterion 4 PASS: C_q={cq:.4f}, T={torque:.0f} N·m, sweep within 0.5%, "
          "torsion accepted on consistent-unit oracle")


def test_criterion_5_bearing_pipeline():
    factor = oscillating_rating(1.0, 30.0)
    assert abs(factor - 1.81712) < 1e-5
    assert abs(factor - 6.0 ** (1.0 / 3.0)) < 1e-12
    assert LifeModFactors(**presets.BEARING_LIFE_FACTORS).product() == 0.085
    years = cycles_to_calendar(44.89e6, 1500.0)
    assert 75.0 <= years <= 85.0
    scale = 2.3
    base = l10_life(oscillating_rating(5000.0, 30.0), 800.0)
    scaled = l10_life(oscillating_rating(5000.0, 30.0), scale * 800.0)
    assert scaled == pytest.approx(base * scale**-3, rel=1e-9)
    print(f"criterion 5 PASS: osc factor {factor:.5f}, a-product 0.085, "
          f"raceway basis {years:.1f} yr, cube-law scaling holds")


def test_criterion_6_weibull():
    for beta in (0.5, 1.0, 2.0, 3.5, 5.0):
        for eta in (0.1, 1.0, 1e3, 1e6):
            w = WeibullParams(shape_beta=beta, scale_eta=eta)
            fitted = fit_two_quantiles(
                QuantilePoint(10.0, quantile_Bp(10.0, w)),
                QuantilePoint(50.0, quantile_Bp(50.0, w)),
            )
            assert rel_err(fitted.shape_beta, beta) < 1e-10
            assert rel_err(fitted.scale_eta, eta) < 1e-10
    w = WeibullParams(shape_beta=2.0, scale_eta=7.5)
    assert abs(cdf(7.5, w) - 0.63212) < 1e-5
    for t in (0.5, 2.0, 7.5, 20.0):
        density = 2.0 / 7.5 * (t / 7.5) * math.exp(-((t / 7.5) ** 2))  # beta = 2
        assert hazard(t, w) == pytest.approx(density / (1 - cdf(t, w)), rel=1e-9)
    draws = sample(WeibullParams(1.8, 3.0), seed=11, count=1_000_000)
    distance = empirical_cdf_distance(draws, lambda t: -math.expm1(-((t / 3.0) ** 1.8)))
    assert distance < 0.005
    print(f"criterion 6 PASS: fit round-trip 1e-10, cdf(eta)=0.63212, "
          f"hazard identity, KS distance {distance:.5f}")


def test_criterion_7_system_reliability():
    assert series_reliability([0.9, 0.9]) == 0.81
    assert parallel_reliability([0.9, 0.9]) == 0.99
    topo = Series([
        Component("a", LifeModel.exponential(0.1)),
        Component("b", LifeModel.exponential(0.3)),
    ])
    estimate, se = monte_carlo_mttf(topo, samples=1_000_000, seed=2)
    assert abs(estimate - 2.5) < 3 * se
    total = sum(poisson_pmf(k, 4.0) for k in range(201))
    assert total >= 1 - 1e-12
    summary = {
        "tower": 38.0, "slew_bearing": 80.0, "blades": 75.0,
        "generator": 20.0, "slip_ring": 80.0,
    }
    assert system_service_life(summary) == (20.0, "generator")
    print(f"criterion 7 PASS: 0.81/0.99 exact, MTTF {estimate:.4f}±{se:.4f} vs 2.5, "
          "Poisson normalized, limiter=generator")


def test_criterion_8_column_mechanics():
    modulus, inertia, length = 200e9, 1e-5, 6.0
    p_buckle = math.pi**2 * modulus * inertia / length**2
    worst = 0.0
    for load_fraction in (0.1, 0.3, 0.5, 0.7, 0.9):
        for ecc_fraction in (0.001, 0.01, 0.05):
            load = load_fraction * p_buckle
            ecc = ecc_fraction * length
            col = ColumnSpec(
                load_P=load, eccentricity_e=ecc, centroid_c=0.05, gyration_k=0.05,
                height_l=length, area_A=0.01, moment_I=inertia,
                yield_strength_compressive=250e6, elastic_modulus=modulus,
            )
            delta = secant_deflection(col)
            oracle = ode_midspan_deflection(load, modulus, inertia, ecc, length)
            worst = max(worst, rel_err(delta, oracle))
    assert worst < 1e-3
    steel = dict(yield_strength_compressive=250e6, elastic_modulus=200e9)
    col = ColumnSpec(
        load_P=1.0, eccentricity_e=0.05, centroid_c=0.05, gyration_k=0.05,
        height_l=5.0, area_A=0.01, moment_I=1e-5, **steel,
    )
    allowable = secant_allowable_load(col)
    arg = (col.height_l / (2 * col.gyration_k)) * math.sqrt(
        allowable / (col.area_A * col.elastic_modulus)
    )
    residual = allowable / col.area_A * (1 + col.eccentricity_ratio / math.cos(arg)) - 250e6
    assert abs(residual) / 250e6 < 1e-8
    concentric = ColumnSpec(
        load_P=1.0, eccentricity_e=0.0, centroid_c=0.05, gyration_k=0.05,
        height_l=5.0, area_A=0.01, moment_I=1e-5, **steel,
    )
    # its yield load 0.01 * 250e6 N exceeds its Euler load, which bounds it
    assert secant_allowable_load(concentric) == 0.01 * 200e9 * (math.pi * 0.05 / 5.0) ** 2
    stocky = ColumnSpec(
        load_P=1.0, eccentricity_e=0.0, centroid_c=0.05, gyration_k=0.05,
        height_l=2.0, area_A=0.01, moment_I=1e-5, **steel,
    )
    assert secant_allowable_load(stocky) == 0.01 * 250e6
    print(f"criterion 8 PASS: deflection grid max error {worst:.2e}, "
          f"implicit-solve residual {abs(residual) / 250e6:.2e}")


def test_criterion_9_schedule_compilation():
    registry = default_registry()
    groups = [c.group for c in registry.components]
    assert groups.count("Structural") == 12
    assert groups.count("Electromechanical") == 8
    assert groups.count("Control") == 5
    assert groups.count("Fasteners") == 22
    # document round-trip: reload the emitted structure and compare
    from dwtlife.default_registry import DEFAULT_REGISTRY_DOC

    assert load_registry(DEFAULT_REGISTRY_DOC) == registry

    usage = presets.DEFAULT_USAGE
    install = InstallationRecord(install_date=date(2025, 1, 1))
    entries = generate_schedule(registry, install, usage, 1.0)
    assert any(
        e.due_date == date(2026, 1, 1)
        and e.component_id == "Ballast Foundation"
        and e.task == "Top off ballast material every year"
        for e in entries
    )

    logged = InstallationRecord(
        install_date=date(2025, 1, 1),
        cycle_log={"jack_cycles": [(date(2025, 2, 1), 15.0)]},
    )
    entries = generate_schedule(registry, logged, usage, 1.0)
    assert any(
        e.task == "Lubricate every 15 cycles or once a year with recommended grease"
        and e.due_date == date(2025, 2, 1)
        and e.reason == CYCLES_ELAPSED
        for e in entries
    )

    jack_first = {
        "components": [
            {
                "id": "jack",
                "group": "Structural",
                "tasks": [
                    {
                        "description": "inspect",
                        "trigger": {"whichever_first": {"years": 5, "cycles": 100,
                                                        "counter": "jack_cycles"}},
                    }
                ],
            }
        ]
    }
    reg = load_registry(jack_first)
    fast = generate_schedule(
        reg, install, UsageProfile(counters={"jack_cycles": 1.0}), 1.0
    )
    assert fast[0].due_date == date(2025, 1, 1) + timedelta(days=100)
    assert fast[0].reason == CYCLES_ELAPSED
    slow = generate_schedule(
        reg, install, UsageProfile(counters={"jack_cycles": 0.0}), 6.0
    )
    assert slow[0].due_date == date(2025, 1, 1) + timedelta(days=5 * 365)
    assert slow[0].reason == INTERVAL_ELAPSED

    entries = generate_schedule(registry, logged, usage, 2.0)
    assert emit_report(entries, "csv") == emit_report(entries, "csv")
    assert emit_report(registry, "markdown") == emit_report(registry, "markdown")
    print("criterion 9 PASS: registry rows round-trip, annual top-off and "
          "15-cycle lubrication fire, whichever-first honors both boundaries, "
          "reports byte-stable")
