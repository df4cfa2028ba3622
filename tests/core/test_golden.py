"""Golden-value regression tests for the analytic model.

These pin the exact analytic ``acc`` of every protocol under every
deviation at three parameter points (including the paper's Table 7 and
Figure 5 configurations).  Any change to a protocol's message
choreography (the chains are extracted from the running protocols), a
closed form, or the Markov engine that shifts a steady-state cost breaks
these tests on purpose: a reconstruction decision must be changed
consciously, with DESIGN.md/EXPERIMENTS.md updated alongside.

The values were generated from the model itself at the revision that
validated against the paper (Table 7 within +-8%, WTV-vs-WT crossover
exact); they are regression anchors, not external ground truth.
"""

import numpy as np
import pytest

from repro.core.acc import analytical_acc
from repro.core.parameters import Deviation, WorkloadParams

POINTS = [
    # the paper's Table 7 configuration
    WorkloadParams(N=3, p=0.3, a=2, sigma=0.2, xi=0.15, beta=2,
                   S=100, P=30),
    # the paper's Figure 5/6 configuration
    WorkloadParams(N=50, p=0.2, a=10, sigma=0.05, xi=0.04, beta=5,
                   S=5000, P=30),
    # a write-heavy mid-size point
    WorkloadParams(N=10, p=0.6, a=3, sigma=0.1, xi=0.08, beta=4,
                   S=500, P=10),
]

GOLDEN = {
        (0, "write_through", Deviation.READ): 49.67999999999999,
        (0, "write_through", Deviation.WRITE): 44.28,
        (0, "write_through", Deviation.MULTIPLE_ACTIVITY_CENTERS): 42.85384615384615,
        (0, "write_through_v", Deviation.READ): 34.980000000000004,
        (0, "write_through_v", Deviation.WRITE): 64.74,
        (0, "write_through_v", Deviation.MULTIPLE_ACTIVITY_CENTERS): 33.9,
        (0, "write_once", Deviation.READ): np.float64(37.87591836734694),
        (0, "write_once", Deviation.WRITE): np.float64(83.69999999999997),
        (0, "write_once", Deviation.MULTIPLE_ACTIVITY_CENTERS): np.float64(40.033136094674546),
        (0, "synapse", Deviation.READ): 68.88000000000001,
        (0, "synapse", Deviation.WRITE): np.float64(96.48),
        (0, "synapse", Deviation.MULTIPLE_ACTIVITY_CENTERS): np.float64(73.3491124260355),
        (0, "illinois", Deviation.READ): 42.651428571428575,
        (0, "illinois", Deviation.WRITE): np.float64(86.66999999999999),
        (0, "illinois", Deviation.MULTIPLE_ACTIVITY_CENTERS): np.float64(47.861538461538466),
        (0, "berkeley", Deviation.READ): 24.994285714285716,
        (0, "berkeley", Deviation.WRITE): np.float64(45.33),
        (0, "berkeley", Deviation.MULTIPLE_ACTIVITY_CENTERS): np.float64(24.242307692307698),
        (0, "dragon", Deviation.READ): 27.9,
        (0, "dragon", Deviation.WRITE): 55.8,
        (0, "dragon", Deviation.MULTIPLE_ACTIVITY_CENTERS): 27.9,
        (0, "firefly", Deviation.READ): 28.2,
        (0, "firefly", Deviation.WRITE): 56.4,
        (0, "firefly", Deviation.MULTIPLE_ACTIVITY_CENTERS): 28.2,
        (0, "write_through_dir", Deviation.READ): np.float64(49.319999999999986),
        (0, "write_through_dir", Deviation.WRITE): np.float64(43.199999999999996),
        (0, "write_through_dir", Deviation.MULTIPLE_ACTIVITY_CENTERS): np.float64(42.41538461538461),
        (1, "write_through", Deviation.READ): 2617.0400000000004,
        (1, "write_through", Deviation.WRITE): 1248.48,
        (1, "write_through", Deviation.MULTIPLE_ACTIVITY_CENTERS): 2239.1111111111113,
        (1, "write_through_v", Deviation.READ): 2017.2000000000005,
        (1, "write_through_v", Deviation.WRITE): 3116.186666666667,
        (1, "write_through_v", Deviation.MULTIPLE_ACTIVITY_CENTERS): 2239.333333333334,
        (1, "write_once", Deviation.READ): np.float64(2216.575510204081),
        (1, "write_once", Deviation.WRITE): np.float64(5453.899306666668),
        (1, "write_once", Deviation.MULTIPLE_ACTIVITY_CENTERS): np.float64(2704.50007558579),
        (1, "synapse", Deviation.READ): 3865.971428571429,
        (1, "synapse", Deviation.WRITE): np.float64(6002.106666666667),
        (1, "synapse", Deviation.MULTIPLE_ACTIVITY_CENTERS): np.float64(4032.4867724867727),
        (1, "illinois", Deviation.READ): 2722.6571428571433,
        (1, "illinois", Deviation.WRITE): np.float64(5681.072000000001),
        (1, "illinois", Deviation.MULTIPLE_ACTIVITY_CENTERS): np.float64(3185.409523809525),
        (1, "berkeley", Deviation.READ): 2007.9428571428575,
        (1, "berkeley", Deviation.WRITE): np.float64(3093.36),
        (1, "berkeley", Deviation.MULTIPLE_ACTIVITY_CENTERS): np.float64(2232.6171428571442),
        (1, "dragon", Deviation.READ): 310.0,
        (1, "dragon", Deviation.WRITE): 930.0000000000001,
        (1, "dragon", Deviation.MULTIPLE_ACTIVITY_CENTERS): 310.0,
        (1, "firefly", Deviation.READ): 310.20000000000005,
        (1, "firefly", Deviation.WRITE): 930.6000000000001,
        (1, "firefly", Deviation.MULTIPLE_ACTIVITY_CENTERS): 310.20000000000005,
        (1, "write_through_dir", Deviation.READ): np.float64(2607.6400000000017),
        (1, "write_through_dir", Deviation.WRITE): np.float64(1219.2400000000002),
        (1, "write_through_dir", Deviation.MULTIPLE_ACTIVITY_CENTERS): np.float64(2229.666666666667),
        (2, "write_through", Deviation.READ): 184.1142857142857,
        (2, "write_through", Deviation.WRITE): 84.26880000000001,
        (2, "write_through", Deviation.MULTIPLE_ACTIVITY_CENTERS): 184.11428571428573,
        (2, "write_through_v", Deviation.READ): 142.28571428571425,
        (2, "write_through_v", Deviation.WRITE): 218.32822857142855,
        (2, "write_through_v", Deviation.MULTIPLE_ACTIVITY_CENTERS): 335.1428571428571,
        (2, "write_once", Deviation.READ): np.float64(200.35238095238097),
        (2, "write_once", Deviation.WRITE): np.float64(395.7585554285714),
        (2, "write_once", Deviation.MULTIPLE_ACTIVITY_CENTERS): np.float64(531.7380952380952),
        (2, "synapse", Deviation.READ): 346.42857142857144,
        (2, "synapse", Deviation.WRITE): np.float64(417.3888),
        (2, "synapse", Deviation.MULTIPLE_ACTIVITY_CENTERS): np.float64(650.9285714285713),
        (2, "illinois", Deviation.READ): 231.68571428571428,
        (2, "illinois", Deviation.WRITE): np.float64(401.06148571428577),
        (2, "illinois", Deviation.MULTIPLE_ACTIVITY_CENTERS): np.float64(578.4428571428571),
        (2, "berkeley", Deviation.READ): 131.08571428571426,
        (2, "berkeley", Deviation.WRITE): np.float64(204.15908571428568),
        (2, "berkeley", Deviation.MULTIPLE_ACTIVITY_CENTERS): np.float64(327.39285714285717),
        (2, "dragon", Deviation.READ): 66.0,
        (2, "dragon", Deviation.WRITE): 92.4,
        (2, "dragon", Deviation.MULTIPLE_ACTIVITY_CENTERS): 66.0,
        (2, "firefly", Deviation.READ): 66.6,
        (2, "firefly", Deviation.WRITE): 93.24,
        (2, "firefly", Deviation.MULTIPLE_ACTIVITY_CENTERS): 66.6,
        (2, "write_through_dir", Deviation.READ): np.float64(178.97142857142856),
        (2, "write_through_dir", Deviation.WRITE): np.float64(76.74720000000002),
        (2, "write_through_dir", Deviation.MULTIPLE_ACTIVITY_CENTERS): np.float64(178.97142857142856),
}


@pytest.mark.parametrize("key", sorted(GOLDEN, key=str))
def test_golden_acc(key):
    point, protocol, deviation = key
    value = analytical_acc(protocol, POINTS[point], deviation)
    assert value == pytest.approx(GOLDEN[key], rel=1e-12), (
        f"{protocol}/{deviation.short_name} at point {point} moved from "
        f"{GOLDEN[key]} to {value}; if intentional, regenerate the golden "
        "values and update DESIGN.md/EXPERIMENTS.md"
    )
