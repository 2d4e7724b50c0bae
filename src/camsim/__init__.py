"""camsim: end-to-end camera simulation with detection-metric evaluation.

Pipeline: spectral scene -> `optical_image` (lens, PSF, channel QE) ->
`acquire` (pixel sampling, exposure control / HDR bracketing, noise, ADC) ->
ISP -> ground-truth annotation -> (proxy) detection -> AP-vs-distance and
OD50 metrics.
"""

__version__ = "0.1.0"

from .spectral import (  # noqa: F401
    WavelengthGrid, Spectrum, DEFAULT_GRID, RADIANCE, IRRADIANCE,
    resample, luminance_cd_m2, illuminance_lux, photopic_curve, d65_spectrum,
)
from .scene import (  # noqa: F401
    Scene, SceneSpec, SceneMeta, TargetSpec, Region,
    synthesize, edge_case_scene, scene_statistics, save_scene, load_scene,
)
from .optics import LensSpec, OpticalImage, optical_image  # noqa: F401
from .sensor import (  # noqa: F401
    PixelSpec, SensorSpec, CFA, RGGB, MONO, RCCC, RawFrame, derive_geometry,
    expected_rate, expose, apply_noise, adc, dynamic_range_db, dn_to_electrons,
)
from .exposure import (  # noqa: F401
    ExposurePlan, HDRFrame, Acquisition, acquire, hdr_combine, effective_dynamic_range,
)
from .isp import (  # noqa: F401
    RGBImage, GammaSpec, demosaic_bilinear, color_correct, apply_gamma,
    raw_passthrough, render, fit_color_matrix, write_ppm,
)
from .annotation import (  # noqa: F401
    GroundTruthBox, LabelPolicy, project_truth, apply_policy, export_dataset,
)
from .evalmetrics import (  # noqa: F401
    Detection, GTBox, APCurve, APBin, OD50Result, as_gt,
    iou, match, average_precision, ap_vs_distance, od50,
)
from .detector import ProxyDetectorConfig, proxy_detect, import_detections  # noqa: F401
