"""Per-sample reference implementations of the allpass structures.

Plain Python loops, one sample at a time, that the tests compare the
block-filtering runtime in warpbank.streaming against.  No production path
uses them.
"""

import numpy as np

from warpbank.allpass import _check_alpha


class AllpassSection:
    """Single first-order allpass stage with one state variable.

    Realizes  y[n] + a*y[n-1] = x[n-1] + a*x[n]  in transposed direct form II.
    An impulse through a = 0.5 yields 0.5, 0.75, -0.375, 0.1875, ...

    Note the warped delay line of a bank with warp coefficient alpha uses
    sections with a = -alpha; see AllpassLine.
    """

    def __init__(self, coefficient):
        self.coefficient = _check_alpha(coefficient)
        self.state = 0.0

    def reset(self):
        self.state = 0.0

    def step(self, x):
        """Advance one sample; returns the section output."""
        a = self.coefficient
        y = a * x + self.state
        self.state = x - a * y
        return y


class AllpassLine:
    """Tapped cascade of n_taps-1 allpass sections for warp coefficient alpha.

    tap 0 is the current input; tap n is the input filtered through n
    sections.  Sections carry coefficient -alpha so the cascade realizes the
    warped delay line (z^-1 - alpha)/(1 - alpha z^-1); state persists across
    calls.
    """

    def __init__(self, alpha, n_taps):
        if not abs(float(alpha)) < 1.0:
            raise ValueError("|alpha| < 1 required")
        if int(n_taps) < 1:
            raise ValueError("need at least one tap")
        self.alpha = float(alpha)
        self.n_taps = int(n_taps)
        self.state = np.zeros(self.n_taps - 1)

    def reset(self):
        self.state[:] = 0.0

    def step(self, x):
        """Advance one sample; returns the full tap vector."""
        a = -self.alpha
        taps = np.empty(self.n_taps)
        taps[0] = x
        for i in range(1, self.n_taps):
            y = a * taps[i - 1] + self.state[i - 1]
            self.state[i - 1] = taps[i - 1] - a * y
            taps[i] = y
        return taps

