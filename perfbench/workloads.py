"""Seeded inputs and output checks for the four workloads.

Every workload draws its cases from a fixed pool whose members are built
from their pool index alone, so that reference outputs could be recorded
once (``record_refs.py``) and looked up by case id. The workload seed
picks which pool member is used from each stratum and in what order.
Each pass over the strata visits every stratum once, so any run covers
the whole parameter range evenly and its medians do not depend on which
cases the seed happened to pick.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, field
from datetime import date, timedelta

# Generator parameters. The refs in refs/*.json are keyed by the case ids
# these produce; changing a value here needs refs recorded again.
CLI_FAMILIES = (
    "fatigue", "blade", "tower", "ballast", "aero",
    "bearing", "weibull", "system", "schedule",
)
CLI_VARIANTS = 6          # pool members per CLI family
CLI_MAX_MC_SAMPLES = 10_000
CLI_MAX_HORIZON_Y = 5
MC_SAMPLES = 500_000      # fixed per estimate
MC_LEAF_COUNTS = range(8, 17)
MC_VARIANTS = 4           # topologies per leaf count
HORIZON_STRATA = 9        # horizons 20..195 y in 5 y steps, 4 per stratum
HORIZON_INSTALL_DATES = ("2020-01-01", "2024-02-29", "2025-06-15", "2031-11-30")
LOGGED_STRATA = 10        # log lengths 500..5000 points, 450 per stratum
LOGGED_VARIANTS = 4
LOGGED_HORIZONS_Y = (10, 30)

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")
_MAX_NUMBERS = 256        # longer outputs are checked by exact sha256


@dataclass
class Case:
    id: str
    params: dict = field(default_factory=dict)


def strata_sequence(strata: list[list[Case]], seed: int):
    """Endless cases: each pass visits every stratum once, in seeded order.

    A stratum hands out its members in seeded rounds, each member once per
    round, so that over many passes every member is run about equally often.
    """
    rng = random.Random(seed)
    rounds: list[list[Case]] = [[] for _ in strata]
    while True:
        order = list(range(len(strata)))
        rng.shuffle(order)
        for index in order:
            if not rounds[index]:
                rounds[index] = rng.sample(strata[index], len(strata[index]))
            yield rounds[index].pop()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# cli_cold


def _cli_case(family: str, i: int) -> Case:
    r = random.Random(f"cli:{family}:{i}")
    files = {}
    units = ["--units", r.choice(["si", "imperial"])]
    json_flag = ["--json"] if r.random() < 0.3 else []
    if family == "fatigue":
        kind = ("endurance", "sn", "life")[i % 3]
        if kind == "endurance":
            argv = ["fatigue", "endurance", "--sut", f"{r.uniform(40, 90):.2f}ksi",
                    "--preset", r.choice(["tower", "blade", "none"])] + units
        elif kind == "sn":
            sut = r.uniform(300, 700)
            argv = ["fatigue", "sn", "--sut", f"{sut:.1f} MPa",
                    "--se", f"{sut * r.uniform(0.3, 0.45):.1f} MPa"] + units
        else:
            argv = ["fatigue", "life", "--stress", f"{r.uniform(150, 300):.1f} MPa",
                    "--a", f"{r.uniform(800, 1200):.1f} MPa", "--b", f"{-r.uniform(0.08, 0.12):.4f}",
                    "--cycles-per-day", f"{r.uniform(500, 2000):.0f}"]
    elif family == "blade":
        kind = ("bending", "torsion", "life")[i % 3]
        if kind == "bending":
            argv = ["blade", "bending", "--mass", f"{r.uniform(2, 8):.2f}",
                    "--mount-angle", f"{r.uniform(0, 30):.1f}"] + units
        elif kind == "torsion":
            argv = ["blade", "torsion", "--torque", f"{r.uniform(50, 500):.1f} Nm"] + units
        else:
            argv = ["blade", "life", "--cycles-per-day", f"{r.uniform(1e5, 2e5):.0f}"]
    elif family == "tower":
        if i % 2 == 0:
            argv = ["tower", "column", "--load", f"{r.uniform(5000, 20000):.0f}",
                    "--eccentricity", "0.01", "--centroid", "0.05", "--gyration", "0.05",
                    "--height", f"{r.uniform(4, 8):.2f}", "--area", "0.01", "--inertia", "1e-5"]
        else:
            argv = ["tower", "life", "--cycles-per-day", f"{r.uniform(500, 2000):.0f}"] + units
    elif family == "ballast":
        argv = ["ballast", "--thrust", f"{r.uniform(3000, 9000):.0f}",
                "--nacelle-diameter", f"{r.uniform(1.5, 2.5):.2f}",
                "--safety-factor", f"{r.uniform(1, 2):.2f}",
                "--base-diameter", f"{r.uniform(2.5, 4):.2f}",
                "--base-area", f"{r.uniform(3, 6):.2f}"]
    elif family == "aero":
        kind = ("torque", "betz", "sweep")[i % 3]
        if kind == "torque":
            argv = ["aero", "torque", "--cp", f"{r.uniform(0.3, 0.5):.3f}",
                    "--rpm", f"{r.uniform(300, 900):.0f}"] + units
        elif kind == "betz":
            argv = ["aero", "betz", "--a0", f"{r.uniform(0, 0.3):.3f}"]
        else:
            argv = ["aero", "sweep"]
    elif family == "bearing":
        name = f"bearing_{i}.json"
        files[name] = {
            "geometry": {"fcm": round(r.uniform(0.8, 1.2), 3), "rows": r.choice([1, 2]),
                         "balls": r.randint(20, 40),
                         "ball_diameter_mm": round(r.uniform(20, 30), 2),
                         "contact_angle_deg": round(r.uniform(45, 60), 1),
                         "raceway_center_diameter_mm": round(r.uniform(800, 1200), 1)},
            "loads": {"radial_n": round(r.uniform(0, 500), 1),
                      "axial_n": round(r.uniform(500, 5000), 1),
                      "moment_nm": round(r.uniform(50, 500), 1)},
            "theta_deg": round(r.uniform(20, 40), 1),
            "oscillations_per_day": round(r.uniform(1000, 2000), 0),
        }
        argv = ["bearing", "life", "--config", name]
    elif family == "weibull":
        kind = ("fit", "cdf", "quantile", "hazard", "sample")[i % 5]
        shape = ["--beta", f"{r.uniform(0.8, 3.5):.4f}", "--eta", f"{r.uniform(5, 40):.3f}"]
        if kind == "fit":
            argv = ["weibull", "fit", "--p", "10", "--bp", f"{r.uniform(8, 12):.2f}",
                    "--q", "50", "--bq", f"{r.uniform(15, 25):.2f}"]
        elif kind == "cdf":
            argv = ["weibull", "cdf", *shape, "--t", f"{r.uniform(1, 30):.2f}"]
        elif kind == "quantile":
            argv = ["weibull", "quantile", *shape, "--p", f"{r.uniform(1, 50):.1f}"]
        elif kind == "hazard":
            t = r.uniform(1, 20)
            argv = ["weibull", "hazard", *shape, "--t", f"{t:.2f}", "--t2", f"{t + r.uniform(1, 5):.2f}"]
        else:
            argv = ["weibull", "sample", *shape, "--seed", str(r.randint(0, 999)),
                    "--samples", str(r.randint(10, 200))]
    elif family == "system":
        kind = ("mttf", "reliability", "life")[i % 3]
        if kind == "life":
            argv = ["system", "life"]
        else:
            name = f"topology_{i}.json"
            files[name] = topology_doc(r.randint(3, 8), r)
            if kind == "mttf":
                argv = ["system", "mttf", "--config", name, "--seed", str(r.randint(0, 999)),
                        "--samples", str(r.choice([1000, 2000, 5000, CLI_MAX_MC_SAMPLES]))]
            else:
                argv = ["system", "reliability", "--config", name, "--t", f"{r.uniform(1, 10):.2f}",
                        "--repair-rate", f"{r.uniform(0.05, 0.5):.3f}", "--events", str(r.randint(0, 3))]
    else:  # schedule
        kind = ("generate", "report", "rul")[i % 3]
        fmt = ["--format", r.choice(["csv", "markdown"])]
        if kind == "generate":
            argv = ["schedule", "generate", "--install-date", r.choice(HORIZON_INSTALL_DATES),
                    "--horizon", str(r.randint(1, CLI_MAX_HORIZON_Y))] + fmt
        elif kind == "report":
            argv = ["schedule", "report"] + fmt
        else:
            argv = ["schedule", "rul", "--component", r.choice(["Generator", "Tower", "Blades", "Hub"]),
                    "--elapsed", f"{r.uniform(1, 10):.1f}"]
    if family != "schedule" and argv[1] != "sample":
        argv = argv + json_flag
    return Case(id=f"{family}/{i}", params={"argv": argv, "files": files})


def cli_strata() -> list[list[Case]]:
    return [[_cli_case(f, i) for i in range(CLI_VARIANTS)] for f in CLI_FAMILIES]


def output_ref(stdout: str) -> dict:
    """Reference record of a CLI output: numbers plus the text around them."""
    numbers = _NUMBER.findall(stdout)
    if len(numbers) > _MAX_NUMBERS:
        return {"sha256": sha256(stdout)}
    return {"skeleton": sha256(_NUMBER.sub("#", stdout)), "numbers": [float(n) for n in numbers]}


def check_output(stdout: str, ref: dict) -> str | None:
    """None when stdout matches ref (numbers to 1e-9 relative), else why not."""
    if "sha256" in ref:
        return None if sha256(stdout) == ref["sha256"] else "output hash differs"
    numbers = [float(n) for n in _NUMBER.findall(stdout)]
    if sha256(_NUMBER.sub("#", stdout)) != ref["skeleton"] or len(numbers) != len(ref["numbers"]):
        return "output text differs"
    for got, want in zip(numbers, ref["numbers"]):
        if not rel_close(got, want, 1e-9):
            return f"number {got!r} differs from reference {want!r}"
    return None


# ---------------------------------------------------------------------------
# mc_mttf


def _leaf_doc(cid: str, r: random.Random) -> dict:
    kind = r.choices(["exponential", "weibull", "fixed_life"], weights=[2, 2, 1])[0]
    if kind == "exponential":
        model = {"exponential": {"rate": round(r.uniform(0.02, 0.15), 4)}}
    elif kind == "weibull":
        model = {"weibull": {"beta": round(r.uniform(0.8, 3.5), 3), "eta": round(r.uniform(5, 40), 2)}}
    else:
        model = {"fixed_life": {"life": round(r.uniform(5, 30), 2)}}
    return {"component": {"id": cid, "model": model}}


def topology_doc(leaves: int, r: random.Random) -> dict:
    """A series root over nested groups, 2 or 3 levels deep, tags alternating."""
    depth = r.choice([2, 3])
    items = [_leaf_doc(f"c{i}", r) for i in range(leaves)]

    def group(members: list, level: int) -> dict:
        tag = "series" if level % 2 else "parallel"
        if level >= depth or len(members) <= 2:
            return {tag: members}
        cuts = sorted(r.sample(range(1, len(members)), r.randint(1, min(3, len(members) - 1))))
        chunks = [members[a:b] for a, b in zip([0] + cuts, cuts + [len(members)])]
        return {tag: [c[0] if len(c) == 1 else group(c, level + 1) for c in chunks]}

    return group(items, 1)


def mc_strata() -> list[list[Case]]:
    strata = []
    for n in MC_LEAF_COUNTS:
        cases = []
        for j in range(MC_VARIANTS):
            r = random.Random(f"mc:{n}:{j}")
            cases.append(Case(id=f"n{n}/{j}", params={
                "doc": topology_doc(n, r), "seed": r.randint(0, 2**31 - 1)}))
        strata.append(cases)
    return strata


def _fixed_lives(doc: dict) -> list[float]:
    tag, body = next(iter(doc.items()))
    if tag == "component":
        model = body["model"]
        return [model["fixed_life"]["life"]] if "fixed_life" in model else []
    return [life for child in body for life in _fixed_lives(child)]


def exact_mttf(doc: dict, reliability_at, topo) -> float:
    """MTTF = integral of R(t) over [0, inf), by graded Gauss-Legendre panels.

    Panels split at every fixed_life breakpoint (R jumps there) and are
    graded geometrically towards each segment's left end, where a Weibull
    leaf with beta < 1 makes R'(t) unbounded. The tail stops where R < 1e-16.
    """
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(12)

    def R(t: float) -> float:
        return reliability_at(float(t), topo)

    end = 1.0
    while R(end) > 1e-16:
        end *= 2.0
    cuts = [0.0] + sorted(x for x in set(_fixed_lives(doc)) if x < end) + [end]
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        edges = [a] + [a + (b - a) * 2.0 ** -k for k in range(30, -1, -1)]
        for lo, hi in zip(edges, edges[1:]):
            half = 0.5 * (hi - lo)
            total += half * sum(w * R(lo + half * (x + 1.0)) for x, w in zip(nodes, weights))
    return total


# ---------------------------------------------------------------------------
# schedule_horizon / schedule_logged


def horizon_strata() -> list[list[Case]]:
    strata = []
    for s in range(HORIZON_STRATA):
        cases = []
        for h in range(20 + 20 * s, 40 + 20 * s, 5):
            for d, install in enumerate(HORIZON_INSTALL_DATES):
                cases.append(Case(id=f"h{h}/d{d}", params={
                    "install": {"install_date": install}, "horizon": h}))
        strata.append(cases)
    return strata


def logged_doc(points: int, horizon: int, r: random.Random) -> dict:
    """Installation with a jack_cycles log spread over 90% of the horizon."""
    start = date(2020, 1, 1) + timedelta(days=r.randint(0, 3650))
    span = int(horizon * 365 * 0.9)
    days = sorted(r.randrange(1, span) for _ in range(points))
    count = 0
    cycles = []
    for day in days:
        count += r.randint(0, 12)
        cycles.append({"date": (start + timedelta(days=day)).isoformat(), "count": count})
    events = [{"date": (start + timedelta(days=day)).isoformat(), "kind": "high_load"}
              for day in sorted(r.sample(range(1, span), r.randint(5, 50)))]
    return {"install_date": start.isoformat(), "events": events, "cycles": {"jack_cycles": cycles}}


def logged_strata() -> list[list[Case]]:
    strata = []
    for s in range(LOGGED_STRATA):
        cases = []
        for j in range(LOGGED_VARIANTS):
            r = random.Random(f"logged:{s}:{j}")
            points = r.randint(500 + 450 * s, 949 + 450 * s)
            horizon = r.randint(*LOGGED_HORIZONS_Y)
            cases.append(Case(id=f"L{s}/{j}", params={
                "install": logged_doc(points, horizon, r), "horizon": horizon}))
        strata.append(cases)
    return strata


# The pool builder of each workload, keyed by workload name.
STRATA = {
    "cli_cold": cli_strata,
    "mc_mttf": mc_strata,
    "schedule_horizon": horizon_strata,
    "schedule_logged": logged_strata,
}


def schedule_ref_key(case: Case, fmt: str) -> str:
    return f"{case.id}/{fmt}"


def rel_close(a: float, b: float, tol: float) -> bool:
    return a == b or abs(a - b) <= tol * max(abs(a), abs(b))
