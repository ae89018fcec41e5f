"""The speed gauge's kernel does the same work every time.

Run from the repository root: python3 -m pytest perfbench
"""

import gauge


def test_kernel_stays_on_the_curve_and_repeats():
    for x, y in (gauge.G, gauge.TWO_G):
        assert (y * y - (x ** 3 + x + 1)) % gauge.P == 0
    assert gauge._kernel() == gauge._kernel()


def test_scaling_cancels_a_uniform_slowdown():
    fast = gauge.scaled(1.0, gauge.REFERENCE_S, gauge.REFERENCE_S)
    slow = gauge.scaled(1.5, 1.5 * gauge.REFERENCE_S, 1.5 * gauge.REFERENCE_S)
    assert fast == 1.0 and abs(slow - 1.0) < 1e-12
