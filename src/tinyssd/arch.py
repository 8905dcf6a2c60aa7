"""Declarative description of the Tiny SSD graph: layer table, the lowering
into primitive steps (which also checks the graph and its heads), static
shape inference, the parameter manifest, and text/JSON rendering."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

from .errors import ConfigError, SpecError
from .ops import ConvSpec, PoolSpec, TypedFields, dump_key, out_extents

VOC_CLASSES = (
    "aeroplane", "bicycle", "bird", "boat", "bottle",
    "bus", "car", "cat", "chair", "cow",
    "diningtable", "dog", "horse", "motorbike", "person",
    "pottedplant", "sheep", "sofa", "train", "tvmonitor",
)
CLASS_COUNT = len(VOC_CLASSES) + 1  # fixed background class 0
INPUT_SIZE = 300
INPUT_CHANNELS = 3
INPUT_NAME = "image"  # reserved upstream name for the network input


@dataclass(frozen=True)
class FireConfig(TypedFields):
    """Filter counts of one fire module: squeeze 1x1, expand 1x1, expand 3x3."""

    squeeze: int
    expand1x1: int
    expand3x3: int

    def __post_init__(self):
        super().__post_init__()
        if min(self.squeeze, self.expand1x1, self.expand3x3) < 1:
            raise SpecError(f"fire filter counts must be >= 1, got {self}")


_GEOMETRY_KINDS = {"conv": ConvSpec, "pool": PoolSpec, "fire": FireConfig}


@dataclass(frozen=True)
class LayerSpec(TypedFields):
    """One named node of the graph. inputs name previously declared layers
    (or the reserved input name), so any valid spec is already in
    topological order."""

    name: str
    geometry: ConvSpec | PoolSpec | FireConfig
    inputs: tuple[str, ...]

    @property
    def kind(self) -> str:
        """"conv", "pool" or "fire", from the geometry's type."""
        return next(kind for kind, t in _GEOMETRY_KINDS.items() if isinstance(self.geometry, t))


@dataclass(frozen=True)
class HeadSpec(TypedFields):
    """One detection scale: a source feature layer and its loc/conf predictors."""

    source: str
    loc: str
    conf: str
    priors_per_cell: int


@dataclass(frozen=True)
class ArchSpec(TypedFields):
    """Whole-network description; immutable and shareable across threads."""

    layers: tuple[LayerSpec, ...]
    heads: tuple[HeadSpec, ...] = ()
    class_count: int = CLASS_COUNT
    input_size: int = INPUT_SIZE
    input_channels: int = INPUT_CHANNELS


# The body in layer order; each layer reads the one above it. Fire rows
# give the filter counts (squeeze, expand 1x1, expand 3x3).
_BODY = (
    ("conv1", ConvSpec(57, stride=2, pad=0)),
    ("pool1", PoolSpec()),
    ("fire1", FireConfig(15, 49, 53)),
    ("fire2", FireConfig(15, 54, 52)),
    ("pool3", PoolSpec()),
    ("fire3", FireConfig(29, 92, 94)),
    ("fire4", FireConfig(29, 90, 83)),
    ("pool5", PoolSpec()),
    ("fire5", FireConfig(44, 166, 161)),
    ("fire6", FireConfig(45, 155, 146)),
    ("fire7", FireConfig(49, 163, 171)),
    ("fire8", FireConfig(25, 29, 54)),
    ("pool9", PoolSpec()),
    ("fire9", FireConfig(37, 45, 56)),
    ("pool10", PoolSpec()),
    ("fire10", FireConfig(38, 41, 44)),
    ("conv12_1", ConvSpec(51, stride=2)),
    ("conv12_2", ConvSpec(46)),
    ("conv13_1", ConvSpec(55)),
    ("conv13_2", ConvSpec(85, stride=2)),
)

# Detection scales: (source layer, priors per cell), large maps first.
_HEAD_SOURCES = (
    ("fire4", 4),
    ("fire8", 6),
    ("fire9", 6),
    ("fire10", 6),
    ("conv12_2", 6),
    ("conv13_2", 4),
)

# SSD300 box-size ladder in input pixels: scale k spans entries k (min) and k + 1 (max).
DEFAULT_BOX_SIZES = (30.0, 60.0, 111.0, 162.0, 213.0, 264.0, 315.0)
# Aspect ratios by priors per cell: a cell holds one min-size square, one
# sqrt(min*max) square, and a w/h = a plus h/w = a pair per ratio.
ASPECT_RATIOS = {4: (2.0,), 6: (2.0, 3.0)}


def check_prior_layout(scales, input_size: int) -> None:
    """The one prior-layout rule over (feature-map side, priors per cell) per scale:
    ConfigError unless there is a scale, every side is >= 1 and every scale has 4
    or 6 priors per cell, and the ladder covers every scale within 1.05x the input."""
    if not scales:
        raise ConfigError("a prior layout needs at least one scale")
    for side, per_cell in scales:
        if side < 1:
            raise ConfigError(f"feature-map side must be >= 1, got {side}")
        if per_cell not in ASPECT_RATIOS:
            raise ConfigError(f"{per_cell} priors per cell; only 4 or 6 are laid out")
    if len(scales) >= len(DEFAULT_BOX_SIZES):
        raise ConfigError(f"default sizes cover {len(DEFAULT_BOX_SIZES) - 1} scales, "
                          f"got {len(scales)}")
    max_size = DEFAULT_BOX_SIZES[len(scales)]
    if max_size > input_size * 1.05 + 1e-9:
        # SSD convention allows the last max_size to slightly exceed the input
        raise ConfigError(f"max_size {max_size} too large for input {input_size}")


def tiny_ssd_spec() -> ArchSpec:
    """The canonical 300x300 Tiny SSD graph: a 57-filter stem, ten fire
    modules with interleaved ceil-mode pools, four auxiliary convolutions,
    and twelve multibox predictor heads over six scales."""
    upstream = [INPUT_NAME] + [name for name, _ in _BODY]
    layers = [LayerSpec(name, g, (prev,)) for prev, (name, g) in zip(upstream, _BODY)]

    heads = []
    for source, priors in _HEAD_SOURCES:
        loc = f"{source}_mbox_loc"
        conf = f"{source}_mbox_conf"
        layers.append(LayerSpec(loc, ConvSpec(priors * 4, activation="none"), (source,)))
        layers.append(LayerSpec(conf, ConvSpec(priors * CLASS_COUNT, activation="none"), (source,)))
        heads.append(HeadSpec(source, loc, conf, priors))

    return ArchSpec(layers=tuple(layers), heads=tuple(heads))


@dataclass(frozen=True)
class Step:
    """One primitive operation of a lowered layer: "conv", "pool" or "concat".
    ``inputs`` name the layer's input or earlier steps of the same layer;
    shapes are (channels, height, width), ``in_shape`` that of the first input."""

    name: str
    op: str
    inputs: tuple[str, ...]
    geometry: ConvSpec | PoolSpec | None
    in_shape: tuple[int, int, int]
    out_shape: tuple[int, int, int]

    @property
    def blobs(self) -> list[tuple[str, tuple[int, ...]]]:
        """(name, shape) of the parameters a conv step owns: ``<name>/w``, then
        ``<name>/b`` when it has a bias. Other steps own none."""
        g = self.geometry
        if self.op != "conv":
            return []
        w = (f"{self.name}/w", (g.out_channels, self.in_shape[0], *g.kernel))
        return [w, (f"{self.name}/b", (g.out_channels,))] if g.has_bias else [w]


def _step(name, op, inputs, g, known) -> Step:
    """Build one step and record its output shape in known."""
    c, h, w = known[inputs[0]]
    if op == "concat":
        shape = (sum(known[i][0] for i in inputs), h, w)
    else:
        shape = (g.out_channels if op == "conv" else c, *out_extents(g, h, w, name))
    known[name] = shape
    return Step(name, op, inputs, g, (c, h, w), shape)


def lower(spec: ArchSpec) -> list[tuple[str, tuple[Step, ...]]]:
    """Each layer, in declared order, as its name and its primitive steps,
    with shapes at spec.input_size.

    Conv and pool layers are one step of the same name. A fire layer is a
    1x1 squeeze conv, then parallel 1x1 and pad-1 3x3 expand convs, joined by
    a concat named after the layer; nothing else knows this. The last step's
    output is the layer's output. Runs without weights and checks the graph (field
    types are checked as each spec object is built): SpecError for a class count
    below 2, a non-positive input size or channel count, a duplicate or reserved
    name, a layer without exactly one input, an undeclared input, or a head with
    an undeclared layer or a loc or conf that is not a conv reading its source with
    priors x 4 or priors x class_count channels on its grid; GeometryError from
    ops.out_extents for an output extent below 1; then ConfigError for a head
    source grid that is not square, or from check_prior_layout over the heads.
    """
    if spec.class_count < 2:
        raise SpecError(f"class_count must be >= 2, got {spec.class_count}")
    if spec.input_size < 1 or spec.input_channels < 1:
        raise SpecError("input size and channels must be positive")
    shapes = {INPUT_NAME: (spec.input_channels, spec.input_size, spec.input_size)}
    lowered = []
    for layer in spec.layers:
        if layer.name == INPUT_NAME:
            raise SpecError(f"layer name {INPUT_NAME!r} is reserved for the network input")
        if layer.name in shapes:
            raise SpecError(f"duplicate layer name {layer.name!r}")
        if len(layer.inputs) != 1:
            raise SpecError(f"{layer.name}: expected exactly one input, got {layer.inputs}")
        upstream = layer.inputs[0]
        if upstream not in shapes:
            raise SpecError(
                f"{layer.name}: input {upstream!r} is not declared earlier "
                "(cycle or forward reference)"
            )
        known = {upstream: shapes[upstream]}  # sub-step shapes stay inside the layer
        g = layer.geometry
        if layer.kind == "fire":
            squeeze, e1, e3 = (f"{layer.name}/{b}" for b in ("squeeze", "expand1x1", "expand3x3"))
            steps = (
                _step(squeeze, "conv", (upstream,), ConvSpec(g.squeeze, (1, 1), pad=0), known),
                _step(e1, "conv", (squeeze,), ConvSpec(g.expand1x1, (1, 1), pad=0), known),
                _step(e3, "conv", (squeeze,), ConvSpec(g.expand3x3, (3, 3), pad=1), known),
                _step(layer.name, "concat", (e1, e3), None, known),
            )
        else:
            steps = (_step(layer.name, layer.kind, (upstream,), g, known),)
        shapes[layer.name] = steps[-1].out_shape
        lowered.append((layer.name, steps))
    plan = dict(lowered)
    for head in spec.heads:
        for role, name in (("source", head.source), ("loc", head.loc), ("conf", head.conf)):
            if name not in plan:
                raise SpecError(f"head {role} layer {name!r} is not declared")
        _, src_h, src_w = plan[head.source][-1].out_shape
        for role, name, per_prior in (("loc", head.loc, 4), ("conf", head.conf, spec.class_count)):
            step = plan[name][-1]
            if step.op != "conv":
                raise SpecError(f"head {role} layer {name!r} must be a conv layer")
            if step.inputs != (head.source,):
                raise SpecError(f"head {role} layer {name!r} does not read from {head.source!r}")
            channels, h, w = step.out_shape
            want = head.priors_per_cell * per_prior
            if channels != want:
                raise SpecError(f"head {role} layer {name!r} has {channels} "
                                f"channels, expected {want} for {head.priors_per_cell} priors")
            if (h, w) != (src_h, src_w):
                raise SpecError(f"head {role} layer {name!r} has a {h}x{w} grid, "
                                f"expected {src_h}x{src_w} of {head.source!r}")
        if src_h != src_w:
            raise ConfigError(f"head source {head.source!r} has a {src_h}x{src_w} grid; "
                              "priors are laid out on square grids only")
    if spec.heads:
        check_prior_layout([(plan[h.source][-1].out_shape[1], h.priors_per_cell)
                            for h in spec.heads], spec.input_size)
    return lowered


def intermediate_shapes(spec: ArchSpec) -> list[tuple[str, tuple[int, int, int]]]:
    """Static (channels, height, width) output shape of every layer, in order.
    Runs without weights and raises what :func:`lower` raises."""
    return [(name, steps[-1].out_shape) for name, steps in lower(spec)]


def param_manifest(spec: ArchSpec) -> list[tuple[str, tuple[int, ...]]]:
    """Ordered (blob name, shape) list of every parameter the graph needs:
    the blobs of every conv step, in step order."""
    return [blob for _, steps in lower(spec) for step in steps for blob in step.blobs]


def display_name(name: str) -> str:
    """Machine name to table row label: conv12_1 -> Conv12-1, fire4_mbox_loc -> Fire4-mbox-loc."""
    head, *rest = name.split("_")
    return "-".join([head.capitalize()] + rest)


def _filter_column(layer: LayerSpec) -> str:
    g = layer.geometry
    if layer.kind == "conv":
        return f"{g.kernel[0]}x{g.kernel[1]}x{g.out_channels}"
    if layer.kind == "pool":
        return f"{g.kernel[0]}x{g.kernel[1]}"
    return f"{g.squeeze}@S -- {g.expand1x1}@E1 -- {g.expand3x3}@E3"


def describe_text(spec: ArchSpec) -> str:
    """Plain-text layer table (Type / Stride, Filter Shapes, Input Size)."""
    rows = [("Type / Stride", "Filter Shapes", "Input Size")]
    for layer, (_, steps) in zip(spec.layers, lower(spec)):
        label = display_name(layer.name)
        stride = getattr(layer.geometry, "stride", 1)
        if stride > 1:
            label += f" / s{stride}"
        _, h, w = steps[0].in_shape
        rows.append((label, _filter_column(layer), f"{h}x{w}"))
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines) + "\n"


def _fields_to_json(obj) -> dict:
    return {dump_key(f): getattr(obj, f.name) for f in fields(obj)}


def _json_values(cls, entry: dict, skip=()) -> dict:
    """Field name -> dump value of each field of cls not in skip; JSON lists become tuples."""
    values = {f.name: entry[dump_key(f)] for f in fields(cls) if f.name not in skip}
    return {name: tuple(v) if isinstance(v, list) else v for name, v in values.items()}


def spec_to_json(spec: ArchSpec) -> str:
    """Machine-readable dump; round-trips through :func:`spec_from_json`."""
    layers = [{"name": layer.name, "kind": layer.kind, "inputs": list(layer.inputs),
               **_fields_to_json(layer.geometry)} for layer in spec.layers]
    doc = {
        "format": "tinyssd-arch",
        "version": 1,
        "input_size": spec.input_size,
        "input_channels": spec.input_channels,
        "class_count": spec.class_count,
        "layers": layers,
        "heads": [_fields_to_json(h) for h in spec.heads],
    }
    return json.dumps(doc, indent=2) + "\n"


def spec_from_json(text: str) -> ArchSpec:
    """Parse a :func:`spec_to_json` dump into an ArchSpec; raises what :func:`lower` raises."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict) or doc.get("format") != "tinyssd-arch":
        raise SpecError("missing 'tinyssd-arch' format marker")
    if doc.get("version") != 1:
        raise SpecError(f"unsupported arch dump version {doc.get('version')!r}")
    try:
        layers = []
        for entry in doc["layers"]:
            geometry_type = _GEOMETRY_KINDS.get(entry["kind"])
            if geometry_type is None:
                raise SpecError(f"unknown layer kind {entry['kind']!r}")
            g = geometry_type(**_json_values(geometry_type, entry))
            layers.append(LayerSpec(geometry=g, **_json_values(LayerSpec, entry, skip=("geometry",))))
        heads = tuple(HeadSpec(**_json_values(HeadSpec, h)) for h in doc["heads"])
        spec = ArchSpec(layers=tuple(layers), heads=heads,
                        **_json_values(ArchSpec, doc, skip=("layers", "heads")))
    except (KeyError, TypeError) as e:
        raise SpecError(f"malformed arch dump: {e!r}") from None
    lower(spec)
    return spec
