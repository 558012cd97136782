import itertools
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from scipy.integrate import quad

from dwtlife import cli, system
from dwtlife.errors import NumericError, ValidationError
from dwtlife.system import (
    Component,
    LifeModel,
    Parallel,
    Series,
    expected_repairs,
    monte_carlo_mttf,
    parallel_reliability,
    poisson_pmf,
    series_reliability,
    system_reliability_at,
    system_service_life,
    topology_from_document,
)
from dwtlife.weibull import WeibullParams
from oracles import one_shot_mttf, whole_chunk_mttf

LIFE_SUMMARY = {
    "tower": 38.0,
    "slew_bearing": 80.0,
    "blades": 75.0,
    "generator": 20.0,
    "slip_ring": 80.0,
}


def exp_leaf(cid, rate):
    return Component(component_id=cid, model=LifeModel.exponential(rate))


class TestComposition:
    def test_series_product(self):
        assert series_reliability([0.9, 0.9]) == 0.81

    def test_series_empty(self):
        assert series_reliability([]) == 1.0

    def test_series_identity_element(self):
        assert series_reliability([1.0, 0.44]) == pytest.approx(0.44)

    def test_parallel_complement(self):
        assert parallel_reliability([0.9, 0.9]) == 0.99

    def test_parallel_absorbing(self):
        assert parallel_reliability([1.0, 0.01]) == 1.0

    def test_parallel_singleton(self):
        assert parallel_reliability([0.37]) == pytest.approx(0.37)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            series_reliability([1.1])
        with pytest.raises(ValidationError):
            parallel_reliability([-0.1])

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8))
    def test_series_below_min_parallel_above_max(self, rs):
        assert series_reliability(rs) <= min(rs) + 1e-15
        assert parallel_reliability(rs) >= max(rs) - 1e-15


class TestSystemReliability:
    def test_everything_alive_at_zero(self):
        topo = Series([exp_leaf("a", 0.3), Parallel([exp_leaf("b", 1.0), exp_leaf("c", 2.0)])])
        assert system_reliability_at(0.0, topo) == 1.0

    def test_single_exponential(self):
        topo = exp_leaf("a", 0.2)
        assert system_reliability_at(3.0, topo) == pytest.approx(math.exp(-0.6), rel=1e-12)

    def test_series_of_exponentials(self):
        topo = Series([exp_leaf("a", 0.1), exp_leaf("b", 0.3)])
        assert system_reliability_at(2.0, topo) == pytest.approx(math.exp(-0.8), rel=1e-12)

    def test_weibull_and_fixed_leaves(self):
        wb = Component("w", LifeModel.weibull(WeibullParams(2.0, 10.0)))
        assert system_reliability_at(10.0, wb) == pytest.approx(math.exp(-1.0), rel=1e-12)
        fixed = Component("f", LifeModel.fixed_life(5.0))
        assert system_reliability_at(4.999, fixed) == 1.0
        assert system_reliability_at(5.0, fixed) == 0.0

    def test_nonincreasing_in_time(self):
        topo = Series([
            exp_leaf("a", 0.5),
            Parallel([exp_leaf("b", 1.0), Component("c", LifeModel.fixed_life(2.0))]),
        ])
        values = [system_reliability_at(t, topo) for t in np.linspace(0, 10, 60)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            system_reliability_at(1.0, Series([exp_leaf("a", 0.1), exp_leaf("a", 0.2)]))

    @pytest.mark.parametrize("model", [
        LifeModel.exponential(0.2),
        LifeModel.weibull(WeibullParams(2.0, 10.0)),
        LifeModel.fixed_life(5.0),
    ], ids=["exponential", "weibull", "fixed_life"])
    def test_nan_time_rejected_infinite_time_dead(self, model):
        with pytest.raises(ValidationError):
            model.survival(math.nan)
        with pytest.raises(ValidationError):
            system_reliability_at(math.nan, Component("a", model))
        assert model.survival(math.inf) == 0.0
        assert system_reliability_at(math.inf, Component("a", model)) == 0.0

    def test_empty_group_rejected(self):
        with pytest.raises(ValidationError):
            Series([])


class TestMonteCarlo:
    def test_single_exponential_mttf(self):
        estimate, se = monte_carlo_mttf(exp_leaf("a", 0.1), samples=1_000_000, seed=3)
        assert abs(estimate - 10.0) < 3 * se

    def test_series_mttf(self):
        topo = Series([exp_leaf("a", 0.1), exp_leaf("b", 0.3)])
        estimate, se = monte_carlo_mttf(topo, samples=1_000_000, seed=5)
        assert abs(estimate - 2.5) < 3 * se

    def test_parallel_exceeds_best_child(self):
        topo = Parallel([exp_leaf("a", 0.5), exp_leaf("b", 1.0)])
        estimate, _ = monte_carlo_mttf(topo, samples=200_000, seed=9)
        # max of exponentials: 1/0.5 + 1/1.0 - 1/1.5
        assert estimate == pytest.approx(2.0 + 1.0 - 1.0 / 1.5, rel=0.02)

    def test_deterministic_per_seed(self):
        topo = Series([exp_leaf("a", 0.1), exp_leaf("b", 0.3)])
        assert monte_carlo_mttf(topo, 10_000, seed=7) == monte_carlo_mttf(topo, 10_000, seed=7)

    def test_minimum_sample_count(self):
        with pytest.raises(ValidationError):
            monte_carlo_mttf(exp_leaf("a", 1.0), samples=50, seed=0)

    def test_three_sigma_coverage_over_seeds(self):
        # fixed 100-seed window; nominal 3-sigma coverage is 99.73%
        topo = Series([exp_leaf("a", 0.1), exp_leaf("b", 0.3)])
        hits = 0
        for seed in range(100, 200):
            estimate, se = monte_carlo_mttf(topo, samples=1_000_000, seed=seed)
            if abs(estimate - 2.5) < 3 * se:
                hits += 1
        assert hits >= 99


def leaf_doc(cid, kind, **params):
    return {"component": {"id": cid, "model": {kind: params}}}


# README topology: generator in series with (inv1 || inv2)
README_DOC = {"series": [
    leaf_doc("generator", "exponential", rate=0.05),
    {"parallel": [
        leaf_doc("inv1", "weibull", beta=2.0, eta=15.0),
        leaf_doc("inv2", "fixed_life", life=12.0),
    ]},
]}

# 5 leaves, 3 levels; a group as first child and as a later child. At
# samples=1001 the leaf offsets 0, 1001, ..., 4004 cover every offset % 4.
MIXED_DOC = {"series": [
    {"parallel": [
        {"series": [
            leaf_doc("a", "weibull", beta=0.9, eta=30.0),
            leaf_doc("b", "exponential", rate=0.08),
        ]},
        leaf_doc("c", "fixed_life", life=12.0),
    ]},
    {"parallel": [
        leaf_doc("d", "exponential", rate=0.05),
        leaf_doc("e", "weibull", beta=2.0, eta=15.0),
    ]},
]}


class TestStreamingMonteCarlo:
    @pytest.mark.parametrize("chunk", [97, 1000])
    def test_chunk_invariance_against_one_shot(self, monkeypatch, chunk):
        monkeypatch.setattr(system, "_CHUNK", chunk)
        got = monte_carlo_mttf(topology_from_document(MIXED_DOC), samples=1001, seed=2024)
        want = one_shot_mttf(MIXED_DOC, samples=1001, seed=2024)
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_memory_flat_in_samples(self):
        # every draw held at once would need over 250 MB here
        doc = {"series": [
            {"parallel": [leaf_doc(f"p{i}", "weibull", beta=1.5, eta=20.0 + i) for i in range(4)]},
            *(leaf_doc(f"s{i}", "exponential", rate=0.01 * (i + 1)) for i in range(4)),
        ]}
        topo = topology_from_document(doc)
        tracemalloc.start()
        try:
            monte_carlo_mttf(topo, samples=2_000_000, seed=11)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_within_four_se_of_quadrature(self):
        # MTTF = integral of R(t) over [0, inf), split at the fixed-life step
        topo = topology_from_document(README_DOC)
        reliability = lambda t: system_reliability_at(t, topo)
        exact = quad(reliability, 0.0, 12.0)[0] + quad(reliability, 12.0, math.inf)[0]
        estimate, se = monte_carlo_mttf(topo, samples=1_000_000, seed=7)
        assert abs(estimate - exact) < 4 * se


# fixed-life leaves as the first child of the root and of an inner group
FIXED_FIRST_DOC = {"parallel": [
    leaf_doc("f", "fixed_life", life=9.0),
    {"series": [
        leaf_doc("g", "fixed_life", life=14.0),
        leaf_doc("a", "exponential", rate=0.08),
        leaf_doc("b", "weibull", beta=1.5, eta=20.0),
    ]},
    leaf_doc("c", "weibull", beta=0.8, eta=6.0),
]}


def set_workers(monkeypatch, workers):
    monkeypatch.setattr(system, "_worker_count", lambda: workers)


class TestWorkerThreads:
    @pytest.mark.parametrize("doc", [MIXED_DOC, FIXED_FIRST_DOC], ids=["mixed", "fixed_first"])
    @pytest.mark.parametrize("chunk", [97, 1000])
    def test_estimate_independent_of_worker_count(self, monkeypatch, chunk, doc):
        # 5001 samples: 52 chunks of 97 or 6 of 1000, split over up to 3 workers
        monkeypatch.setattr(system, "_CHUNK", chunk)
        topo = topology_from_document(doc)
        estimates = []
        for workers in (1, 2, 3):
            set_workers(monkeypatch, workers)
            estimates.append(monte_carlo_mttf(topo, samples=5001, seed=2024))
        assert estimates[0] == estimates[1] == estimates[2]
        want = one_shot_mttf(doc, samples=5001, seed=2024)
        assert estimates[0] == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("chunk", [97, 1000])
    def test_bare_fixed_life_root(self, monkeypatch, chunk, workers):
        monkeypatch.setattr(system, "_CHUNK", chunk)
        set_workers(monkeypatch, workers)
        topo = Component(component_id="f", model=LifeModel.fixed_life(12.0))
        assert monte_carlo_mttf(topo, samples=5001, seed=3) == (12.0, 0.0)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_non_finite_estimate_on_workers_is_quiet_numeric_error(self, monkeypatch, workers):
        monkeypatch.setattr(system, "_CHUNK", 97)
        set_workers(monkeypatch, workers)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError):
                monte_carlo_mttf(topology_from_document(OVERFLOWING_DOC), samples=1000, seed=0)

    def test_chunk_runs_leave_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(system, "_CHUNK", 97)
        set_workers(monkeypatch, 2)
        threads = set()
        original = LifeModel.failure_times

        def spy(model, u):
            threads.add(threading.get_ident())
            return original(model, u)

        monkeypatch.setattr(LifeModel, "failure_times", spy)
        monte_carlo_mttf(topology_from_document(MIXED_DOC), samples=5001, seed=1)
        assert threads and threading.get_ident() not in threads

    def test_one_chunk_starts_no_pool(self):
        child = (
            "import sys\n"
            "from dwtlife import system\n"
            "from dwtlife.system import Component, LifeModel, monte_carlo_mttf\n"
            "monte_carlo_mttf(Component('a', LifeModel.exponential(0.1)), 10_000, 1)\n"
            "assert 'concurrent.futures' not in sys.modules\n"
            "system._worker_count = lambda: 2\n"
            "monte_carlo_mttf(Component('a', LifeModel.exponential(0.1)), 4 * system._CHUNK, 1)\n"
            "assert 'concurrent.futures' not in sys.modules\n"
            "assert 'logging' not in sys.modules\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", child], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_run_exception_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(system, "_CHUNK", 97)
        set_workers(monkeypatch, 2)
        original = system._chunk_moments

        def failing(topo, plan, samples, seed, lo, hi):
            if lo > 0:
                raise MemoryError("run past chunk 0")
            return original(topo, plan, samples, seed, lo, hi)

        monkeypatch.setattr(system, "_chunk_moments", failing)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="run past chunk 0"):
            monte_carlo_mttf(topology_from_document(MIXED_DOC), samples=5001, seed=1)
        assert threading.active_count() == before

    @pytest.mark.parametrize("model", [
        LifeModel.exponential(0.3),
        LifeModel.weibull(WeibullParams(shape_beta=1.7, scale_eta=8.0)),
        LifeModel.fixed_life(4.5),
    ], ids=["exponential", "weibull", "fixed_life"])
    def test_failure_times_overwrites_its_input(self, model):
        u = np.random.default_rng(5).random(1000)
        want = {
            "exponential": lambda: -np.log1p(-u) / 0.3,
            "weibull": lambda: 8.0 * (-np.log1p(-u)) ** (1.0 / 1.7),
            "fixed_life": lambda: np.full_like(u, 4.5),
        }[model.kind]()
        assert model.failure_times(u) is u
        assert np.array_equal(u, want)


LIVES = st.floats(0.5, 50.0)
LEAF_MODELS = st.one_of(
    st.floats(0.01, 2.0).map(LifeModel.exponential),
    st.builds(
        lambda beta, eta: LifeModel.weibull(WeibullParams(shape_beta=beta, scale_eta=eta)),
        st.floats(0.3, 4.0),
        LIVES,
    ),
    LIVES.map(LifeModel.fixed_life),
)


@st.composite
def topologies(draw):
    """Series/parallel trees 1-4 group levels deep, 1-3 children per group."""
    ids = itertools.count()

    def node(levels):
        if levels == 0:
            return Component(component_id=f"c{next(ids)}", model=draw(LEAF_MODELS))
        width = draw(st.integers(1, 3))
        deepest = draw(st.integers(0, width - 1))
        children = tuple(
            node(levels - 1 if i == deepest else draw(st.integers(0, levels - 1)))
            for i in range(width)
        )
        return draw(st.sampled_from([Series, Parallel]))(children=children)

    return node(draw(st.integers(1, 4)))


# a group of fixed lives only, below a fixed-life first child
ALL_FIXED_DOC = {"series": [
    leaf_doc("f", "fixed_life", life=9.0),
    {"parallel": [leaf_doc("g", "fixed_life", life=4.0), leaf_doc("h", "fixed_life", life=7.0)]},
    leaf_doc("a", "exponential", rate=0.2),
]}

# 16 leaves, 3 group levels. Hungriest first, the root's children need 3
# (the first parallel), 2, 1, 1, 1 and 0 buffers, so the root needs
# max(3, 1 + 2) = 3; in depth-first order it would need 1 + 3 = 4.
WORKING_SET_DOC = {"series": [
    leaf_doc("a", "exponential", rate=0.1),
    leaf_doc("b", "fixed_life", life=30.0),
    {"parallel": [
        {"series": [
            leaf_doc("c", "exponential", rate=0.05),
            leaf_doc("d", "weibull", beta=1.5, eta=20.0),
            leaf_doc("e", "fixed_life", life=25.0),
            leaf_doc("f", "exponential", rate=0.02),
        ]},
        {"series": [
            leaf_doc("g", "weibull", beta=0.8, eta=40.0),
            leaf_doc("h", "exponential", rate=0.04),
            leaf_doc("i", "exponential", rate=0.03),
        ]},
    ]},
    {"parallel": [
        leaf_doc("j", "weibull", beta=2.5, eta=12.0),
        leaf_doc("k", "exponential", rate=0.07),
        leaf_doc("l", "fixed_life", life=8.0),
        {"series": [
            leaf_doc("m", "exponential", rate=0.06),
            leaf_doc("n", "weibull", beta=1.1, eta=30.0),
        ]},
    ]},
    leaf_doc("o", "weibull", beta=3.0, eta=50.0),
    leaf_doc("p", "exponential", rate=0.01),
]}


class TestTiledFold:
    @settings(
        max_examples=60, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        topo=topologies(),
        chunk=st.sampled_from([97, 1000]),
        workers=st.integers(1, 3),
        samples=st.integers(100, 2500),
        seed=st.integers(0, 2**64),
    )
    @example(topo=topology_from_document(FIXED_FIRST_DOC), chunk=97, workers=2, samples=1001, seed=4)
    @example(topo=topology_from_document(ALL_FIXED_DOC), chunk=97, workers=3, samples=2000, seed=9)
    @example(topo=topology_from_document(WORKING_SET_DOC), chunk=1000, workers=2, samples=2500, seed=1)
    def test_bit_identical_to_whole_chunk_fold(self, topo, chunk, workers, samples, seed):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(system, "_CHUNK", chunk)
            patch.setattr(system, "_worker_count", lambda: workers)
            got = monte_carlo_mttf(topo, samples, seed)
            assert got == whole_chunk_mttf(topo, samples, seed, workers)

    def test_working_set_is_need_chunks(self, monkeypatch):
        set_workers(monkeypatch, 2)
        topo = topology_from_document(WORKING_SET_DOC)
        need = 3
        assert system._plan(topo, itertools.count())[0] == need
        samples = 4 * system._CHUNK  # two chunks per worker
        monte_carlo_mttf(topo, samples, seed=1)  # first-use imports outside the trace
        tracemalloc.start()
        try:
            monte_carlo_mttf(topo, samples, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 2 * need * system._CHUNK * 8


OVERFLOWING_DOC = {"parallel": [leaf_doc("a", "weibull", beta=0.05, eta=1e300)]}


def write_config(tmp_path, doc):
    path = tmp_path / "topology.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestRobustness:
    def test_non_finite_estimate_is_numeric_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError):
                monte_carlo_mttf(topology_from_document(OVERFLOWING_DOC), samples=1000, seed=0)

    def test_non_finite_estimate_exits_2_quietly(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.run(["system", "mttf", "--config", write_config(tmp_path, OVERFLOWING_DOC)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("numeric failure") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("make", [
        lambda: LifeModel.exponential(math.inf),
        lambda: LifeModel.fixed_life(math.inf),
        lambda: WeibullParams(math.inf, 10.0),
        lambda: WeibullParams(2.0, math.inf),
        lambda: WeibullParams(math.nan, 10.0),
    ])
    def test_non_finite_parameters_rejected(self, make):
        with pytest.raises(ValidationError):
            make()

    def test_infinite_rate_document_exits_1(self, tmp_path, capsys):
        doc = {"series": [leaf_doc("a", "exponential", rate="inf")]}
        code = cli.run(["system", "mttf", "--config", write_config(tmp_path, doc)])
        assert code == 1
        assert "finite" in capsys.readouterr().err

    def test_zero_samples_not_replaced_by_default(self, tmp_path, capsys):
        config = write_config(tmp_path, README_DOC)
        for argv in (
            ["system", "mttf", "--config", config, "--samples", "0"],
            ["weibull", "sample", "--beta", "2", "--eta", "5", "--samples", "0"],
        ):
            assert cli.run(argv) == 1
            assert capsys.readouterr().err.startswith("error")


class TestPoisson:
    def test_zero_count(self):
        assert poisson_pmf(0, 4.0) == pytest.approx(math.exp(-4.0), rel=1e-12)

    def test_normalization(self):
        total = sum(poisson_pmf(k, 4.0) for k in range(201))
        assert total >= 1 - 1e-12

    def test_mean_recovered(self):
        mean = sum(k * poisson_pmf(k, 4.0) for k in range(201))
        assert mean == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("mean", [0.3, 1.0, 4.0, 25.0, 400.0])
    def test_normalization_over_extended_range(self, mean):
        top = int(mean + 40 * math.sqrt(mean)) + 1
        total = sum(poisson_pmf(k, mean) for k in range(top))
        assert total >= 1 - 1e-12

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            poisson_pmf(-1, 2.0)

    def test_expected_repairs(self):
        assert expected_repairs(0.0, 100.0) == 0.0
        assert expected_repairs(0.2, 20.0) == pytest.approx(4.0)
        assert expected_repairs(0.2, 40.0) == pytest.approx(2 * expected_repairs(0.2, 20.0))


class TestServiceLife:
    def test_default_summary_set(self):
        assert system_service_life(LIFE_SUMMARY) == (20.0, "generator")

    def test_single_entry(self):
        assert system_service_life({"x": 3.0}) == (3.0, "x")

    def test_lexicographic_tie_break(self):
        assert system_service_life({"zeta": 5.0, "alpha": 5.0, "mid": 9.0}) == (5.0, "alpha")

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            system_service_life({})


class TestTopologyDocument:
    def test_round_trip_evaluation(self):
        doc = {
            "series": [
                {"component": {"id": "gen", "model": {"exponential": {"rate": 0.05}}}},
                {
                    "parallel": [
                        {"component": {"id": "inv1", "model": {"weibull": {"beta": 2.0, "eta": 15.0}}}},
                        {"component": {"id": "inv2", "model": {"fixed_life": {"life": 12.0}}}},
                    ]
                },
            ]
        }
        topo = topology_from_document(doc)
        r = system_reliability_at(1.0, topo)
        expected = math.exp(-0.05) * (1 - (1 - math.exp(-((1 / 15.0) ** 2))) * 0.0)
        assert r == pytest.approx(expected, rel=1e-12)

    def test_malformed_documents(self):
        with pytest.raises(ValidationError):
            topology_from_document({"series": [], "parallel": []})
        with pytest.raises(ValidationError):
            topology_from_document({"ring": []})
        with pytest.raises(ValidationError):
            topology_from_document({"component": {"id": "x", "model": {"gamma": {}}}})
