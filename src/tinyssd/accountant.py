"""Static parameter, multiply-accumulate, and serialized-size audit of a graph.

One MAC is one multiply-accumulate; bias adds and activations are excluded.
Pool layers contribute nothing. Sizes in MB are decimal (1e6 bytes).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .arch import ArchSpec, lower, param_manifest
from .modelio import model_file_size


@dataclass(frozen=True)
class LayerAudit:
    name: str
    param_count: int
    mac_count: int
    output_shape: tuple[int, int, int]


@dataclass(frozen=True)
class AuditReport:
    layers: tuple[LayerAudit, ...]
    total_params: int
    total_macs: int
    fp16_bytes: int
    fp32_bytes: int

    @property
    def fp16_mb(self) -> float:
        return self.fp16_bytes / 1e6


def audit(spec: ArchSpec) -> AuditReport:
    """Per-layer and total resource accounting for one input image."""
    layers = []
    for name, steps in lower(spec):
        convs = [step for step in steps if step.op == "conv"]
        params = sum(prod(shape) for step in convs for _, shape in step.blobs)
        # one MAC per weight per output position
        macs = sum(step.out_shape[1] * step.out_shape[2] * prod(step.blobs[0][1]) for step in convs)
        layers.append(LayerAudit(name, params, macs, steps[-1].out_shape))
    total_params = sum(a.param_count for a in layers)
    total_macs = sum(a.mac_count for a in layers)
    manifest = param_manifest(spec)
    return AuditReport(
        layers=tuple(layers),
        total_params=total_params,
        total_macs=total_macs,
        fp16_bytes=model_file_size(manifest, "f16"),
        fp32_bytes=model_file_size(manifest, "f32"),
    )


@dataclass(frozen=True)
class MetricCheck:
    metric: str
    actual: float
    reference: float
    deviation: float  # relative, signed
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.deviation) <= self.tolerance


@dataclass(frozen=True)
class Comparison:
    checks: tuple[MetricCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


# The paper's published resource figures: (metric, published value, relative
# tolerance of the audited total).
PUBLISHED = (
    ("params", 1.13e6, 0.06),
    ("macs", 571.09e6, 0.10),
    ("fp16_mb", 2.3, 0.06),
)


def compare(report: AuditReport) -> Comparison:
    """Relative deviation of the audited totals from the PUBLISHED figures."""
    actual = {"params": float(report.total_params), "macs": float(report.total_macs),
              "fp16_mb": report.fp16_mb}
    return Comparison(checks=tuple(
        MetricCheck(metric, actual[metric], ref, (actual[metric] - ref) / ref, tol)
        for metric, ref, tol in PUBLISHED
    ))


def format_audit_table(report: AuditReport) -> str:
    """Aligned per-layer table plus totals block."""
    rows = [("layer", "params", "MACs", "output")]
    for a in report.layers:
        c, h, w = a.output_shape
        rows.append((a.name, f"{a.param_count:,}", f"{a.mac_count:,}", f"{c}x{h}x{w}"))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = []
    for row in rows:
        lines.append(
            "  ".join(
                cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
                for i, cell in enumerate(row)
            ).rstrip()
        )
    lines.insert(1, "-" * max(len(line) for line in lines))
    lines.append("")
    lines.append(f"total params: {report.total_params:,}")
    lines.append(f"total MACs:   {report.total_macs:,}")
    lines.append(f"fp16 size:    {report.fp16_bytes:,} bytes ({report.fp16_mb:.3f} MB)")
    lines.append(f"fp32 size:    {report.fp32_bytes:,} bytes ({report.fp32_bytes / 1e6:.3f} MB)")
    return "\n".join(lines) + "\n"


def format_comparison(cmp: Comparison) -> str:
    lines = []
    for c in cmp.checks:
        verdict = "PASS" if c.passed else "FAIL"
        lines.append(
            f"{c.metric:<8} actual {c.actual:,.2f}  reference {c.reference:,.2f}  "
            f"deviation {c.deviation:+.2%} (tolerance {c.tolerance:.0%})  {verdict}"
        )
    lines.append(f"overall: {'PASS' if cmp.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"
