"""Tiny SSD: a self-contained CPU inference engine and resource auditor for
the 300x300 fire-module single-shot detector."""

from .accountant import AuditReport, LayerAudit, audit, compare
from .arch import (
    VOC_CLASSES,
    ArchSpec,
    ConvSpec,
    FireConfig,
    HeadSpec,
    LayerSpec,
    PoolSpec,
    describe_text,
    intermediate_shapes,
    param_manifest,
    spec_from_json,
    spec_to_json,
    tiny_ssd_spec,
)
from .errors import (
    ConfigError,
    FormatError,
    GeometryError,
    MissingBlobError,
    ShapeError,
    SpecError,
    TinySSDError,
)
from .image import annotate, preprocess_image, read_ppm, write_ppm
from .modelio import (
    WeightStore,
    init_random,
    load_weights,
    model_file_size,
    quantize_fp16,
    save_weights,
)
from .network import HeadOutput, activations, forward
from .ops import concat_channels, conv2d, maxpool2d, relu, softmax_rows
from .priors import (
    Detection,
    PriorConfig,
    PriorSet,
    decode_boxes,
    detect,
    format_detection_line,
    generate_priors,
    iou,
    nms_per_class,
    tiny_ssd_prior_config,
)
from .tensor import Tensor, read_tnsr, write_tnsr
from .voceval import EvalResult, GroundTruthBox, evaluate, parse_ground_truth

__version__ = "0.1.0"
