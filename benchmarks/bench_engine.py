"""Performance microbenchmarks of the two engines themselves.

Not a paper artifact — these track the throughput of the substrate so
regressions in the simulator's hot path (event loop, FIFO fabric, queue
pumping) and the analytic solver (chain enumeration + dense stationary
solve) are visible in the pytest-benchmark history.
"""


from repro.core import Deviation, WorkloadParams, markov_acc
from repro.core.acc import _markov_cached
from repro.sim import DSMSystem, RunConfig
from repro.workloads import read_disturbance_workload

PARAMS = WorkloadParams(N=8, p=0.3, a=6, sigma=0.1, S=100.0, P=30.0)


def test_simulator_throughput(benchmark):
    """Operations per second through the full message-passing stack."""
    workload = read_disturbance_workload(PARAMS, M=4)

    config = RunConfig(ops=3000, warmup=500, seed=1, mean_gap=10.0)

    def run():
        system = DSMSystem("berkeley", N=PARAMS.N, M=4, S=PARAMS.S,
                           P=PARAMS.P, config=config)
        return system.run_workload(workload)

    result = benchmark(run)
    assert result.measured == 2500


def test_markov_solver_speed(benchmark):
    """One exact chain evaluation (largest per-protocol state space)."""
    big = WorkloadParams(N=50, p=0.2, a=10, sigma=0.05, S=5000.0, P=30.0)

    def run():
        _markov_cached.cache_clear()
        return markov_acc("write_once", big, Deviation.READ)

    acc = benchmark(run)
    assert acc > 0


def test_closed_form_grid_speed(benchmark):
    """Vectorized closed-form surface: the cheap path surfaces use."""
    import numpy as np
    from repro.core.closed_forms import acc_write_through_rd

    p = np.linspace(0, 0.9, 200)[:, None]
    sigma = np.linspace(0, 0.009, 200)[None, :]

    def run():
        return acc_write_through_rd(p, sigma, 10, 5000.0, 30.0, 50)

    grid = benchmark(run)
    assert grid.shape == (200, 200)
