"""Smoke/shape tests of the experiment modules themselves.

The cheap deterministic experiments are run for real; the stochastic sweeps
are exercised at ``quick`` scale but with a reduced footprint where the
module allows it.  The full ``quick``-scale outputs are produced by the
benchmark suite (one bench per experiment) and recorded in EXPERIMENTS.md.
"""

import pytest

from repro.experiments import run_experiment
from repro.experiments.registry import all_experiments
from repro.experiments.results import ExperimentResult
from repro.scenarios.probes import get_probe


@pytest.mark.parametrize("experiment_id", ["E7", "E9"])
def test_cheap_experiments_run_and_have_rows(experiment_id):
    result = run_experiment(experiment_id, scale="quick", seed=0)
    assert isinstance(result, ExperimentResult)
    assert result.rows
    assert result.columns
    assert all(len(row) == len(result.columns) for row in result.rows)


def test_e9_fig1_properties_hold():
    result = run_experiment("E9", scale="quick", seed=0)
    by_dist = {}
    for row in result.rows:
        by_dist.setdefault(row[3], []).append(row)
    # Alpha rows: floor column (min_k Pr * 2 log n) is Θ(1); ratio column >= 1/2.
    for row in by_dist["alpha"]:
        assert row[4] >= 0.5
        assert row[6] >= 0.5
    # Alpha' rows exist for every (n, D) pair.
    assert len(by_dist["alpha_prime"]) == len(by_dist["alpha"])


def test_e7_lower_bound_holds_for_every_q():
    result = run_experiment("E7", scale="quick", seed=0)
    # Column 5 is "relay tx / (n log2 n / 2)": the lower bound says this must
    # not drop below a constant; we check a conservative 0.5 for successful rows.
    for row in result.rows:
        success_rate, normalised = row[2], row[5]
        if success_rate >= 0.8 and normalised == normalised:  # not NaN
            assert normalised >= 0.5


def test_e6_tradeoff_shape():
    result = run_experiment("E6", scale="quick", seed=0)
    energies = [row[4] for row in result.rows if row[4] is not None]
    lambdas = [row[0] for row in result.rows]
    assert lambdas == sorted(lambdas)
    # Energy at the largest lambda should not exceed energy at the smallest.
    assert energies[-1] <= energies[0] * 1.15


def test_e5_energy_advantage_direction():
    result = run_experiment("E5", scale="quick", seed=0)
    # Group rows by workload; within each, algorithm3 must use fewer mean
    # transmissions per node than czumaj_rytter.
    by_workload = {}
    for row in result.rows:
        by_workload.setdefault(row[0], {})[row[4]] = row
    for workload, protocols in by_workload.items():
        alg3 = protocols["algorithm3"]
        cr = protocols["czumaj_rytter"]
        assert alg3[8] < cr[8], f"Algorithm 3 should be cheaper on {workload}"


def test_results_are_json_serialisable():
    result = run_experiment("E9", scale="quick", seed=0)
    text = result.to_json()
    back = ExperimentResult.from_json(text)
    assert back.experiment_id == "E9"


#: Samples of the probes that drive the engine themselves (E2, E7, E8, E10,
#: E13) at tiny parameters: ``(probe, params, seed, samples)``, repetitions
#: = ``len(samples)``.  The values are the serial engine's; the probes run
#: exact-mode ``BatchEngine`` and must reproduce them bit for bit.
_PROBE_PINS = [
    (
        "e2.phase_growth",
        {"n": 256, "p": 0.06},
        3,
        [
            {
                "success": 0.0,
                "log_growth": [0.0408219945202552],
                "phase1_ratio": 1.0416666666666667,
                "T": 1.0,
                "phase2_fraction": 0.36328125,
            },
            {
                "success": 0.0,
                "log_growth": [-0.4291816347254803],
                "phase1_ratio": 0.6510416666666667,
                "T": 1.0,
                "phase2_fraction": 0.33984375,
            },
        ],
    ),
    (
        "e7.relay_transmissions",
        {"n": 8, "q": 0.25},
        5,
        [
            {"success": 1.0, "rounds": 13.0, "relay_tx": 36.0},
            {"success": 1.0, "rounds": 12.0, "relay_tx": 40.0},
            {"success": 1.0, "rounds": 11.0, "relay_tx": 12.0},
        ],
    ),
    (
        "e8.time_invariant_frontier",
        {"n": 16, "q": 0.25},
        7,
        [
            {"success": 1.0, "rounds": 147.0, "leaf_tx": 30.2},
            {"success": 1.0, "rounds": 116.0, "leaf_tx": 26.466666666666665},
            {"success": 1.0, "rounds": 139.0, "leaf_tx": 31.4},
        ],
    ),
    (
        "e8.algorithm3_reference",
        {"n": 16},
        7,
        [
            {"success": 1.0, "rounds": 65.0, "leaf_tx": 16.933333333333334},
            {"success": 1.0, "rounds": 117.0, "leaf_tx": 16.1},
            {"success": 1.0, "rounds": 93.0, "leaf_tx": 15.1},
        ],
    ),
    (
        "e10.linear_budget",
        {"n": 16, "q": 0.15},
        9,
        [
            {"success": 1.0, "rounds": 167.0, "leaf_tx": 20.133333333333333},
            {"success": 1.0, "rounds": 139.0, "leaf_tx": 15.633333333333333},
            {"success": 1.0, "rounds": 155.0, "leaf_tx": 20.0},
        ],
    ),
    (
        "e13.geometric_comparison",
        {"n": 64, "factor": 2.0, "topology": "geometric"},
        11,
        [
            {
                "algorithm1 (p_eff)/success": 0.0,
                "algorithm1 (p_eff)/rounds": None,
                "algorithm1 (p_eff)/mean_tx": 0.25,
                "algorithm1 (p_eff)/max_tx": 1.0,
                "algorithm3/success": 1.0,
                "algorithm3/rounds": 9.0,
                "algorithm3/mean_tx": 13.6875,
                "algorithm3/max_tx": 22.0,
                "decay/success": 1.0,
                "decay/rounds": 30.0,
                "decay/mean_tx": 2.09375,
                "decay/max_tx": 12.0,
            },
            {
                "algorithm1 (p_eff)/success": 1.0,
                "algorithm1 (p_eff)/rounds": 14.0,
                "algorithm1 (p_eff)/mean_tx": 0.25,
                "algorithm1 (p_eff)/max_tx": 1.0,
                "algorithm3/success": 1.0,
                "algorithm3/rounds": 30.0,
                "algorithm3/mean_tx": 13.75,
                "algorithm3/max_tx": 20.0,
                "decay/success": 1.0,
                "decay/rounds": 65.0,
                "decay/mean_tx": 8.390625,
                "decay/max_tx": 17.0,
            },
        ],
    ),
    (
        "e13.geometric_comparison",
        {"n": 64, "factor": 1.5, "topology": "geometric-asymmetric"},
        13,
        [
            {
                "algorithm1 (p_eff)/success": 0.0,
                "algorithm1 (p_eff)/rounds": None,
                "algorithm1 (p_eff)/mean_tx": 0.28125,
                "algorithm1 (p_eff)/max_tx": 1.0,
                "algorithm3/success": 1.0,
                "algorithm3/rounds": 25.0,
                "algorithm3/mean_tx": 13.640625,
                "algorithm3/max_tx": 22.0,
                "decay/success": 1.0,
                "decay/rounds": 40.0,
                "decay/mean_tx": 3.875,
                "decay/max_tx": 10.0,
            },
            {
                "algorithm1 (p_eff)/success": 0.0,
                "algorithm1 (p_eff)/rounds": None,
                "algorithm1 (p_eff)/mean_tx": 0.1875,
                "algorithm1 (p_eff)/max_tx": 1.0,
                "algorithm3/success": 1.0,
                "algorithm3/rounds": 24.0,
                "algorithm3/mean_tx": 16.0,
                "algorithm3/max_tx": 24.0,
                "decay/success": 1.0,
                "decay/rounds": 52.0,
                "decay/mean_tx": 4.78125,
                "decay/max_tx": 16.0,
            },
        ],
    ),
]


@pytest.mark.parametrize(
    "probe, params, seed, expected",
    _PROBE_PINS,
    ids=[f"{case[0]}-{case[2]}" for case in _PROBE_PINS],
)
def test_probe_samples_pinned(probe, params, seed, expected):
    all_experiments()  # registers every experiment module's probes
    samples = list(get_probe(probe)(params, seed, len(expected)))
    assert samples == expected
