"""Fixed reference kernel that calibrates run time against the host's speed.

The host's speed drifts by 10-20 % within minutes and switches between fast
and slow phases within seconds, so raw seconds of two runs of the same code
disagree by that much.  The kernel does a fixed, small amount (~30-40 ms) of
the three kinds of work the workloads do:

* elementwise arithmetic on an 8 MB array, larger than the L2 cache, like
  the GRT temporaries;
* a zero-padded 2-D real FFT round trip at a padded size the convolution
  engine uses;
* float-to-text formatting in the CSV writers' format.

It never calls helioflux.  ``Sampler`` runs it on a wall-clock timer
*during* the timed operations, so the samples see the same phases of the
host as the operations do; samples taken only between operations did not
(see README.md).
"""

import signal
import time

import numpy as np
import scipy.fft

ELEMENTWISE_SIZE = 1 << 20  # float64 elements: 8 MB
FFT_SHAPE, FFT_PADDED = (384, 384), (432, 432)
FORMAT_VALUES = 12288
INTERVAL_S = 0.25  # wall-clock seconds between samples


def reference_kernel():
    """Run the kernel once on freshly allocated inputs.

    Returns the seconds of its three parts: (elementwise, fft, format).
    """
    start = time.perf_counter()
    a = np.linspace(0.0, 1.0, ELEMENTWISE_SIZE)
    c = np.empty(ELEMENTWISE_SIZE)
    np.multiply(a, a, out=c)
    np.add(c, a, out=c)
    np.sqrt(c, out=c)
    elementwise = time.perf_counter()
    image = np.linspace(0.0, 1.0, FFT_SHAPE[0] * FFT_SHAPE[1]).reshape(FFT_SHAPE)
    scipy.fft.irfft2(scipy.fft.rfft2(image, s=FFT_PADDED), s=FFT_PADDED)
    fft = time.perf_counter()
    values = np.linspace(0.001, 37.0, FORMAT_VALUES).tolist()
    ",".join(f"{v:.9e}" for v in values)
    end = time.perf_counter()
    return elementwise - start, fft - elementwise, end - fft


class Sampler:
    """Runs the reference kernel every INTERVAL_S seconds while active.

    A SIGALRM interval timer interrupts the operation; Python runs the
    handler in the main thread between bytecodes, so it never enters numpy
    or the package mid-call.  ``samples`` holds (start, part seconds) of
    every kernel run.
    """

    def __init__(self):
        self.samples = []
        self._previous = None

    def _tick(self, signum, frame):
        self.samples.append((time.perf_counter(), reference_kernel()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
