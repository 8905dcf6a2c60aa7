"""Names the benchmark under perfbench/ binds. Deleting one fails here, in
the tier-1 suite, rather than in a benchmark run."""

from pathlib import Path

from tinyssd import accountant, priors, voceval
from tinyssd.arch import tiny_ssd_spec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_bound_names_exist(monkeypatch):
    # perfbench/reference.py is not imported: its module name is tests/reference.py's
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    with spans.Tracer().installed():  # looks up every TRACE_POINTS name
        pass
    assert callable(voceval.parse_detection_lines)
    assert "boxes" in priors.PriorSet.__dataclass_fields__
    # the call shape of perfbench/tests/test_reference.py
    prior_set = priors.generate_priors(priors.tiny_ssd_prior_config(tiny_ssd_spec()))
    assert prior_set.boxes.shape == (8030, 4)
    # perfbench/run.py --trace and perfbench/tests/test_spans.py key layer rows by these fields
    spec = tiny_ssd_spec()
    report = accountant.audit(spec)
    assert [a.name for a in report.layers] == [layer.name for layer in spec.layers]
    assert sum(a.mac_count for a in report.layers) == report.total_macs
