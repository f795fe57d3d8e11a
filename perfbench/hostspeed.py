"""How fast the host runs right now, measured by a fixed reference slice.

On the 2-core x86-64 sandbox where REF_NOMINAL_S was measured, the host
switches between a fast and a slow mode (one reference slice takes 0.65 ms
or 1.1 ms) many times a second, and the share of slow time differs from
run to run: one ladder seed took 20.2 s and then 15.5 s.  So the worker
times reference slices between questions, for REF_SHARE of the time each
question took, and divides the end-to-end times by host_factor = mean
slice time / REF_NOMINAL_S.  The slice mixes small numpy calls with Python
arithmetic, as the program does, and shares no code with it, so a change
to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

REF_SHARE = 0.02
REF_NOMINAL_S = 0.00065  # one slice on the reference sandbox in its fast mode

_A = np.arange(24.0).reshape(4, 6)
_M = np.eye(6) * 3 + 0.1


def reference_slice() -> float:
    start = time.perf_counter()
    for _ in range(40):
        x = np.linalg.solve(_A.T @ _A + _M, _A[0])
        float(np.max(np.abs(x))) + sum(i * i for i in range(60))
    return time.perf_counter() - start


class HostMeter:
    def __init__(self) -> None:
        self.slices: list[float] = []

    def sample_after(self, elapsed: float) -> None:
        """Time slices for REF_SHARE of a question's elapsed time, at least one."""
        spent = 0.0
        while True:
            self.slices.append(reference_slice())
            spent += self.slices[-1]
            if spent >= REF_SHARE * elapsed:
                return

    @property
    def factor(self) -> float:
        return sum(self.slices) / len(self.slices) / REF_NOMINAL_S
