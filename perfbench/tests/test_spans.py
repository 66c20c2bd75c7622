"""The traced run: every per-layer metric fires where it applies; spans nest."""

import warnings

import pytest

import run
import spans
import workloads
from talentflow.synthgen import GeneratorSpec


def small_spec(name: str) -> GeneratorSpec:
    """The workload's corpus shape at a size a test can afford."""
    if name == "graph_sweep":
        # Fewer organizations than the benchmark's spec, so that every graph of
        # the min_support sweep keeps enough nodes for its power-law fits.
        ladders = {f"sector {i:02d}": tuple(f"grade {r:02d}" for r in range(10))
                   for i in range(4)}
        return GeneratorSpec(seed=11, n_users=1500, titles_per_industry=ladders,
                             orgs_per_industry=10)
    return workloads.WORKLOADS[name].spec(seed=11, n_users=400)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    metrics, tally = run.measure(
        workloads.WORKLOADS[name], small_spec(name), 0, trace=True, work=tmp_path
    )
    assert tally.failures == []
    assert list(metrics) == [m["name"] for m in spans.PER_LAYER]
    assert metrics["trace.overhead_s"][0] > 0


def test_child_self_times_never_exceed_their_parent(tmp_path):
    workload = workloads.WORKLOADS["report_default"]
    corpus = workload.setup(small_spec("report_default"), tmp_path)
    tracer = spans.Tracer()
    with tracer.installed():
        workload.run_pass(corpus, tmp_path / "out")
    self_times = tracer.self_times()
    children: dict[int, list[int]] = {}
    for i, span in enumerate(tracer.spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(i)
    assert any(tracer.spans[p].name == "write_all_reports" for p in children)
    for parent, kids in children.items():
        outer = tracer.spans[parent]
        for k in kids:
            assert outer.start <= tracer.spans[k].start <= tracer.spans[k].end <= outer.end
            assert self_times[k] <= outer.duration
        assert sum(tracer.spans[k].duration for k in kids) <= outer.duration
    assert min(self_times) >= 0.0


def test_tracer_restores_the_program(tmp_path):
    from talentflow import cli, metrics, reports

    before = (reports.write_all_reports, cli.ingest_profiles, metrics.CorpusIndex.build)
    with spans.Tracer().installed():
        assert reports.write_all_reports is not before[0]
        assert cli.ingest_profiles is not before[1]
    assert (reports.write_all_reports, cli.ingest_profiles, metrics.CorpusIndex.build) == before


def test_warnings_of_a_fit_that_raises_are_counted():
    def failing_fit(values):
        warnings.warn("invalid value encountered in divide", RuntimeWarning)
        raise ValueError("too few values")

    tracer = spans.Tracer()
    with pytest.raises(ValueError):
        tracer._wrap("fit_power_law", failing_fit)([1, 2])
    assert tracer.counts["graphalgo.powerlaw_warnings"] == 1
