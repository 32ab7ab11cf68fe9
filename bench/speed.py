"""How fast the machine runs rigrad-like code at the moment, and times scaled by it.

On a shared host the speed of the same code can change by 1.5-1.9x from one
stretch of seconds to the next (see README.md).  The timings are therefore
reported at a fixed reference speed: a timed stretch of work is measured
next to a fixed probe, and its wall time is scaled by the probe's
``REFERENCE_S`` over the probe's time.  A program that gets slower reads
slower at any machine speed; a machine that gets slower does not move the
figures.  The raw wall times go to the results file as well.

The host does not slow all kinds of work alike, so each kind of timed work
has a probe that does the same kind of work, and neither uses rigrad:

* ``SpeedProbe``, for operations: what rigrad's quadrature loop does,
  per-point numpy work on small arrays (a dense tanh network's forward and
  backward pass) driven from Python.
* ``SetupProbe``, for set-up: what importing modules does, compiling Python
  source, unmarshalling the code and running a module body that defines
  functions and classes.  Scaled by the numpy probe, set-up times spread
  more than raw ones.
"""

from __future__ import annotations

import marshal
import time

import numpy as np

POINTS = 64

SETUP_DEFINITIONS = 200


class _Probe:
    # probe time that defines the reference speed
    REFERENCE_S: float

    def __init__(self):
        self.samples: list[float] = []

    def _once(self) -> float:
        raise NotImplementedError

    def measure(self) -> float:
        """Seconds one run of the probe takes now: the median of three runs,
        so that a single interrupted run does not count."""
        elapsed = sorted(self._once() for _ in range(3))[1]
        self.samples.append(elapsed)
        return elapsed

    def scale(self, *probe_s: float) -> float:
        """Factor taking a wall time measured next to these probe times to the
        reference speed."""
        return self.REFERENCE_S * len(probe_s) / sum(probe_s)


class SpeedProbe(_Probe):
    REFERENCE_S = 1e-3

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self._w1 = rng.standard_normal((32, 8)) / np.sqrt(8)
        self._w2 = rng.standard_normal((32, 32)) / np.sqrt(32)
        self._w3 = rng.standard_normal(32) / np.sqrt(32)
        self._points = rng.standard_normal((POINTS, 8))

    def _once(self) -> float:
        w1, w2, w3 = self._w1, self._w2, self._w3
        start = time.perf_counter()
        for x in self._points:
            a1 = np.tanh(w1 @ x)
            a2 = np.tanh(w2 @ a1)
            g = (w2.T @ (w3 * (1.0 - a2 * a2))) * (1.0 - a1 * a1)
            float((w1.T @ g) @ x)
        return time.perf_counter() - start


class SetupProbe(_Probe):
    REFERENCE_S = 25e-3

    SOURCE = "\n".join(
        f"def f{i}(a, b=1, *c, **d):\n    return [a + b for _ in c if d]\n"
        f"class C{i}:\n    x = {i}\n    def m(self):\n        return self.x"
        for i in range(SETUP_DEFINITIONS)
    )

    def _once(self) -> float:
        start = time.perf_counter()
        code = compile(self.SOURCE, "<setup probe>", "exec")
        exec(marshal.loads(marshal.dumps(code)), {})
        return time.perf_counter() - start
