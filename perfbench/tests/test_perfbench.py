"""Quick tests of the benchmark itself, at tiny workload sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run as bench  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = bench.DEFAULT_SEED


def tiny_run(name, trace=False, expected=None, seed=SEED):
    if expected is None and seed == SEED:
        expected = bench.load_digests()[name]
    return bench.run(name, seed, 0, trace, expected, tiny=True)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_completes_and_checks_pass(name):
    res = tiny_run(name)
    assert res["correct"], res["detail"]["failures"]
    assert res["failed"] == 0
    assert res["attempted"] == res["detail"]["items"] * res["detail"]["passes"]
    assert set(res["metrics"]) == {"setup_s", "items_per_s", "item_p50_ms", "item_p90_ms",
                                   "peak_rss_mb"}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_other_seed_passes_without_digests():
    res = tiny_run("splice_batch", seed=1)
    assert res["correct"] and res["failed"] == 0


def test_tampered_digest_counts_as_failure():
    expected = dict(bench.load_digests()["splice_batch"])
    key = sorted(expected)[0]
    expected[key] = "0" * len(expected[key])
    res = tiny_run("splice_batch", expected=expected)
    assert not res["correct"]
    assert res["failed"] == res["detail"]["passes"]
    assert "committed digest" in res["detail"]["failures"][key]


def test_swapped_numerator_counts_as_failure(monkeypatch):
    ladder = WORKLOADS["plumbing_ladder"]
    original = ladder.run_item

    def swapped(item, call):
        outs = original(item, call)
        payload = json.loads(outs[0].stdout)
        zeta = payload["zeta"]
        zeta["numerator"], zeta["denominator"] = zeta["denominator"], zeta["numerator"]
        outs[0].stdout = json.dumps(payload)
        return outs

    monkeypatch.setattr(ladder, "run_item", swapped)
    res = tiny_run("plumbing_ladder", expected={})
    assert not res["correct"]
    assert res["failed"] == res["attempted"]
    assert all("differs between" in reason for reason in res["detail"]["failures"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_output_is_byte_identical_and_self_times_fit(name):
    untraced = tiny_run(name)
    traced = tiny_run(name, trace=True)
    assert traced["correct"], traced["detail"]["failures"]
    assert traced["detail"]["digests"] == untraced["detail"]["digests"]
    own = traced["detail"]["self_by_item_ns"]
    walls = traced["detail"]["latencies"]
    assert own and all(own[i] <= walls[i] * 1e9 for i in own)
    metrics = traced["metrics"]
    assert metrics["cli.main.calls"]["value"] > 0
    assert "trace.overhead_frac" in metrics


def test_tracer_patches_every_binding_and_restores():
    sz = bench.load_package()
    import splicezeta.divisors as divisors
    import splicezeta.realize as realize

    original = divisors.nu_values
    method = sz.diagrams.SpliceDiagram.linking_product
    tracer = Tracer()
    tracer.install()
    try:
        assert realize.nu_values is divisors.nu_values is not original
        assert realize.nu_values.__wrapped__ is original
        assert sz.diagrams.SpliceDiagram.linking_product is not method
    finally:
        tracer.uninstall()
    assert realize.nu_values is original and divisors.nu_values is original
    assert sz.diagrams.SpliceDiagram.linking_product is method


def test_rung_table_has_one_row_per_rung():
    res = tiny_run("plumbing_ladder", trace=True)
    rows = res["detail"]["rung_table"].splitlines()[2:]
    assert [r.split("|")[1].strip() for r in rows] == ["5", "8"]
