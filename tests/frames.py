"""Frames built from an expected-rate raster the way `acquire` builds them,
for tests that need every bracket in full or a frame without noise, the
dense rates of an optical image, which the pipeline never builds, and the
PSF blur of dense planes."""

import numpy as np

from camsim.exposure import _bracket_seed
from camsim.optics import psf_blur
from camsim.scene import gather
from camsim.sensor import adc, expose


def brackets(rate, sensor, durations_s, seed) -> list:
    """One full noisy frame per duration, each with the noise stream
    `acquire` gives that bracket."""
    return [expose(rate, sensor, t, _bracket_seed(seed, i)) for i, t in enumerate(durations_s)]


def noise_free(rate, sensor, exposure_s):
    """The frame of `rate` exposed for `exposure_s` with no shot, dark or
    read noise: electrons clamped to the well, then the ADC."""
    return adc(np.clip(rate * exposure_s, 0.0, sensor.effective_well_e()), sensor, exposure_s)


def dense_rates(image):
    """An optical image's (H, W, C) float64 rates: its planes, or its
    palette gathered over its labels."""
    return image.planes if image.planes is not None else gather(image.palette, image.labels)


def dense_blur(planes, sigma):
    """`psf_blur` of float64 (H, W, C) planes: each cell its own palette
    row, over identity labels."""
    h, w, c = planes.shape
    return psf_blur(planes.reshape(-1, c), np.arange(h * w).reshape(h, w), sigma)
