"""Speed probe: rescales a pass's times by the machine's speed during it.

The machine the benchmark was built on shares its cores with other tenants.
Its speed drifts by up to ±25 % over tens of seconds, for the pipeline and
for a fixed loop of plain Python alike.  So a job process times a fixed
loop (`REF_LOOP` iterations) from a SIGALRM handler every `INTERVAL_S`
seconds, and each reported time is

    (raw seconds - the probes' own seconds) * REF_NS / median probe time

with the median taken over the probes of the same phase (set-up or pass).
The result is in seconds of a machine on which the loop takes `REF_NS`
nanoseconds.  Every probe's own time is left out of the timed phase, and
a tracer passed as `on_sample` leaves it out of every span's self time.
"""

import signal
import statistics
import time

INTERVAL_S = 0.1
REF_LOOP = 20000
# the loop's time on the machine the benchmark was built on, in the middle
# of the range seen there (1.2-2.2 ms)
REF_NS = 1_500_000


def _loop():
    s = 0
    for i in range(REF_LOOP):
        s += i * i % 7
    return s


class SpeedProbe:
    """Probe durations in nanoseconds, in the order they were taken."""

    def __init__(self, on_sample=None):
        self.samples = []
        self.on_sample = on_sample

    def sample(self, *_signal_args):
        started = time.perf_counter_ns()
        _loop()
        took = time.perf_counter_ns() - started
        self.samples.append(took)
        if self.on_sample is not None:
            self.on_sample(took)

    def start(self):
        """Take one probe now, then one every INTERVAL_S until stop()."""
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def factor(durations):
    """Reference seconds per second at the speed these probes saw."""
    return REF_NS / statistics.median(durations)


def rescale(seconds, inside, also=()):
    """`seconds` of a phase, at reference speed.

    `inside` are the probes taken during the phase, whose time is taken
    out; `also` are probes taken next to it, used only for the median.
    """
    return ((seconds - sum(inside) / 1e9)
            * factor(list(inside) + list(also)))
