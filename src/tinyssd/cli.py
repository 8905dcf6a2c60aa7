"""Command-line entry point.

Exit status: 0 success, 1 usage error, 2 I/O or format error, 3 a failed
audit check. Machine-readable output goes to stdout and is byte-identical for
identical inputs; diagnostics and timings go to stderr.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import accountant, image, modelio, priors, voceval
from .arch import describe_text, param_manifest, spec_to_json, tiny_ssd_spec
from .errors import ConfigError, ShapeError, TinySSDError
from .network import forward
from .tensor import TNSR_MAGIC, read_tnsr


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)  # no "--top" for "--top-k"

    def parse_known_args(self, args=None, namespace=None):
        # A subcommand reports its own leftovers, under its own usage line;
        # argparse would hand them up to the top-level parser.
        parsed, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return parsed, extras

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="tinyssd", description="Tiny SSD inference engine and resource auditor")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("describe", help="print the layer table")
    p.add_argument("--format", choices=("text", "struct"), default="text")

    sub.add_parser("audit", help="parameter/MAC/size audit against the published figures")

    p = sub.add_parser("detect", help="run detection on one image")
    p.add_argument("--model", required=True)
    p.add_argument("--image", required=True, help="PPM (P6) image or raw TNSR tensor")
    p.add_argument("--conf", type=float, default=0.5)
    p.add_argument("--iou", type=float, default=0.45)
    p.add_argument("--top-k", type=int, default=200)
    p.add_argument("--out", choices=("lines", "annotated-ppm"), default="lines")
    p.add_argument("--image-id", default=None, help="id for emitted lines (default: image stem)")

    p = sub.add_parser("eval", help="VOC-protocol evaluation of emitted detections")
    p.add_argument("--detections", required=True, help="file of emission-format lines")
    p.add_argument("--annotations", required=True, help="directory of VOC-style .xml files")
    p.add_argument("--pr-csv", default=None, help="also write PR curve points as CSV")

    p = sub.add_parser("quantize", help="rewrite a model with fp16 payloads")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("init-random", help="write a seeded random weight store")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dtype", choices=("f16", "f32"), default="f32")

    return parser


def _cmd_describe(args) -> int:
    spec = tiny_ssd_spec()
    sys.stdout.write(spec_to_json(spec) if args.format == "struct" else describe_text(spec))
    return 0


def _cmd_audit(args) -> int:
    spec = tiny_ssd_spec()
    start = time.perf_counter()
    report = accountant.audit(spec)
    elapsed = time.perf_counter() - start
    cmp = accountant.compare(report)
    sys.stdout.write(accountant.format_audit_table(report))
    sys.stdout.write("\n")
    sys.stdout.write(accountant.format_comparison(cmp))
    print(f"audit computed in {elapsed * 1e3:.1f} ms", file=sys.stderr)
    return 0 if cmp.passed else 3


def _load_input_tensor(path):
    with open(path, "rb") as f:
        magic = f.read(4)
    if magic == TNSR_MAGIC:
        return read_tnsr(path), None
    pixels = image.read_ppm(path)
    return image.preprocess_image(pixels), pixels


def _cmd_detect(args) -> int:
    image_id = args.image_id if args.image_id is not None else Path(args.image).stem
    if args.out == "lines" and image_id.split() != [image_id]:
        raise ConfigError(f"image id {image_id!r} must be one token without whitespace")
    priors.check_thresholds(args.conf, args.iou, args.top_k)
    spec = tiny_ssd_spec()
    store = modelio.load_weights(args.model, manifest=param_manifest(spec))
    tensor, pixels = _load_input_tensor(args.image)
    if tensor.n != 1:
        raise ShapeError(f"detect takes one image, got a TNSR batch of {tensor.n}")
    if args.out == "annotated-ppm" and pixels is None:
        raise TinySSDError("annotated-ppm output needs a PPM input image")
    start = time.perf_counter()
    head = forward(spec, store, tensor)
    prior_set = priors.generate_priors(priors.tiny_ssd_prior_config(spec))
    found = priors.detect(head, prior_set, conf_threshold=args.conf,
                          iou_threshold=args.iou, top_k=args.top_k)
    elapsed = time.perf_counter() - start
    print(f"inference in {elapsed * 1e3:.1f} ms, {len(found)} detection(s)", file=sys.stderr)
    if args.out == "annotated-ppm":
        sys.stdout.buffer.write(image.encode_ppm(image.annotate(pixels, found)))
    else:
        for det in found:
            print(priors.format_detection_line(image_id, det))
    return 0


def _cmd_eval(args) -> int:
    lines = voceval.read_detection_file(args.detections)
    truths = voceval.load_annotation_dir(args.annotations)
    result = voceval.evaluate(lines, truths)
    print(f"scored {result.detections} detection line(s) against {len(truths)} truth box(es): "
          f"parse {result.parse_s * 1e3:.1f} ms, match {result.match_s * 1e3:.1f} ms",
          file=sys.stderr)
    sys.stdout.write(voceval.format_eval_report(result))
    if args.pr_csv:
        Path(args.pr_csv).write_text(voceval.pr_curve_csv(result), encoding="utf-8")
    return 0


def _cmd_quantize(args) -> int:
    store = modelio.load_weights(args.input)
    quantized = modelio.quantize_fp16(store)
    modelio.save_weights(quantized, args.out, dtype="f16")
    max_err, mean_err = modelio.quantization_error(store, quantized)
    print(f"blobs:    {len(store)}")
    print(f"values:   {store.total_elements}")
    print(f"max |dx|: {max_err:.8g}")
    print(f"mean|dx|: {mean_err:.8g}")
    return 0


def _cmd_init_random(args) -> int:
    spec = tiny_ssd_spec()
    store = modelio.init_random(spec, args.seed)
    modelio.save_weights(store, args.out, dtype=args.dtype)
    print(f"wrote {len(store)} blobs ({store.total_elements} values, dtype {args.dtype}) to {args.out}")
    return 0


_COMMANDS = {
    "describe": _cmd_describe,
    "audit": _cmd_audit,
    "detect": _cmd_detect,
    "eval": _cmd_eval,
    "quantize": _cmd_quantize,
    "init-random": _cmd_init_random,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (TinySSDError, OSError) as e:
        print(f"tinyssd {args.command}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
