"""splicezeta benchmark: closed-loop CLI workloads, checked outputs, traced layers.

    python3 perfbench/run.py --workload plumbing_ladder --seed 0 --seconds 30 --trace 0

One client drives ``splicezeta.cli.main(argv)`` in this process and starts
the next item only when the previous one returned; ``--json`` stdout is
captured and checked after the timed region.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` an untraced and a traced pass over the
same items and the per-layer metrics.  ``--workload all`` runs every
workload in its own process and prints one table.  The last stdout line is
one JSON object: correct, attempted, failed, metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_ROUNDS = 7
MIN_PASSES = 3
# Host-speed normalisation (see README.md): every time is rescaled by
# REF_NOMINAL_S / (time the reference loop takes around it), measured at
# least every REF_EVERY_S seconds.
REF_NOMINAL_S = 0.004
REF_EVERY_S = 1.0
MODULES = ["cli", "generate", "io", "corpus", "diagrams", "divisors", "exact", "monodromy",
           "allowed", "zeta"]

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Output  # noqa: E402


def load_package() -> SimpleNamespace:
    """Fresh import of splicezeta from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "splicezeta" or n.startswith("splicezeta.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("splicezeta")
    if Path(pkg.__file__).resolve().parent != SRC / "splicezeta":
        raise ImportError(f"splicezeta imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"splicezeta.{m}") for m in MODULES})


def reference_loop() -> Fraction:
    """Fixed exact-arithmetic work in benchmark code: the host-speed probe."""
    s = Fraction(0)
    for i in range(1, 1200):
        s += Fraction(1, i)
    return s


def host_ref_s() -> float:
    """Seconds the reference loop takes now (median of three)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def setup(workload, seed: int, tiny: bool):
    """Import, generate and write the inputs SETUP_ROUNDS times; median of
    the normalised times."""
    times = []
    for _ in range(SETUP_ROUNDS):
        ref_before = host_ref_s()
        t0 = time.perf_counter()
        sz = load_package()
        workdir = OUT / workload.name
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        items = workload.build(sz, seed, workdir, tiny)
        elapsed = time.perf_counter() - t0
        times.append(elapsed * 2 * REF_NOMINAL_S / (ref_before + host_ref_s()))
    return sz, items, statistics.median(times)


def make_call(sz):
    def call(argv: list[str]) -> Output:
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = sz.cli.main(argv)
        except Exception:  # a traceback is a failed item, not a stopped benchmark
            return Output(argv[0], -1, traceback.format_exc())
        return Output(argv[0], rc, out.getvalue())

    return call


def digest(outs: list[Output]) -> str:
    blob = json.dumps([[o.command, o.rc, o.stdout] for o in outs])
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


@dataclass
class Measurement:
    latencies: list[float] = field(default_factory=list)  # raw seconds
    scales: list[float] = field(default_factory=list)  # per latency: nominal / host
    refs: list[float] = field(default_factory=list)  # reference loop times
    wall: float = 0.0
    passes: int = 0
    outputs: dict = field(default_factory=dict)  # key -> outputs of the first pass
    digests: list[dict] = field(default_factory=list)  # one {key: digest} per pass


def measure(workload, items, call, seconds: float, passes: int | None = None,
            tracer: Tracer | None = None) -> Measurement:
    """Whole passes over the items, closed loop, until the next pass would
    end after ``seconds`` (or exactly ``passes`` passes); at least
    MIN_PASSES, so that every item has a median."""
    m = Measurement()
    start = time.perf_counter()
    while True:
        pass_start = chunk_start = time.perf_counter()
        m.refs.append(host_ref_s())
        pass_digests = {}
        for idx, item in enumerate(items):
            if tracer is not None:
                tracer.item = idx
            t0 = time.perf_counter()
            outs = workload.run_item(item, call)
            m.latencies.append(time.perf_counter() - t0)
            pass_digests[item.key] = digest(outs)
            if m.passes == 0:
                m.outputs[item.key] = outs
            if time.perf_counter() - chunk_start >= REF_EVERY_S or idx == len(items) - 1:
                m.refs.append(host_ref_s())
                scale = 2 * REF_NOMINAL_S / (m.refs[-2] + m.refs[-1])
                m.scales += [scale] * (len(m.latencies) - len(m.scales))
                chunk_start = time.perf_counter()
        m.digests.append(pass_digests)
        m.passes += 1
        now = time.perf_counter()
        if passes is not None:
            if m.passes >= passes:
                break
        elif m.passes >= MIN_PASSES and now - start + (now - pass_start) > seconds:
            break
    m.wall = time.perf_counter() - start
    return m


def check_outputs(workload, sz, items, m: Measurement, expected: dict | None):
    """Failed item keys with reasons: the workload's own checks on the first
    pass, the ``expected`` digests (if given), and byte-identical output on
    every later pass."""
    failures = {}
    for item in items:
        try:
            workload.check(sz, item, m.outputs[item.key])
        except CheckFailed as exc:
            failures[item.key] = str(exc)
        except Exception as exc:  # a crashing check is a failed item
            failures[item.key] = f"check raised {exc!r}"
        if expected is not None and expected.get(item.key) != m.digests[0][item.key]:
            failures.setdefault(item.key, "--json output differs from the committed digest")
    runs_failed = 0
    for pass_digests in m.digests:
        for key, dig in pass_digests.items():
            if key in failures or dig != m.digests[0][key]:
                runs_failed += 1
                failures.setdefault(key, "output changed between passes")
    return failures, runs_failed


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def metric(value, unit):
    return {"value": value, "unit": unit}


def item_medians_ms(m: Measurement) -> list[float]:
    """Each item's normalised latency, median over the passes, in ms.

    On a shared virtual machine other tenants change the speed of every
    computation by up to 2x within a second.  Each latency is rescaled by
    the reference loop timed before and after its chunk of items, and the
    per-item median over passes discards what the rescaling misses."""
    n = len(m.latencies) // m.passes
    norm = [t * k for t, k in zip(m.latencies, m.scales)]
    return [statistics.median(norm[i::n]) * 1000 for i in range(n)]


def end_to_end(m: Measurement, setup_s: float) -> dict:
    lat_ms = sorted(item_medians_ms(m))
    return {
        "setup_s": metric(setup_s, "s"),
        "items_per_s": metric(1000 * len(lat_ms) / sum(lat_ms), "1/s"),
        "item_p50_ms": metric(statistics.median(lat_ms), "ms"),
        "item_p90_ms": metric(statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: Tracer, traced: Measurement, untraced: Measurement) -> dict:
    out = {}
    functions = tracer.per_function()
    for name, stats in functions.items():
        out[f"{name}.calls"] = metric(stats["calls"], "count")
        out[f"{name}.self_s"] = metric(stats["self_s"], "s")
        out[f"{name}.errors"] = metric(stats["errors"], "count")
    out["exact.poly_gcd.max_coeff_bits"] = metric(tracer.max_coeff_bits, "bits")
    attempts = functions["realize.certify"]["calls"]
    out["realize.certify.ok_frac"] = metric(
        tracer.certify_ok / attempts if attempts else 0.0, "ratio")
    windows = [json.loads(o.stdout)["explored"]["window"]
               for outs in traced.outputs.values() for o in outs
               if o.command == "realize" and o.rc == 0]
    out["realize.window_reached"] = metric(max(windows, default=0), "count")
    out["trace.overhead_frac"] = metric(
        sum(item_medians_ms(traced)) / sum(item_medians_ms(untraced)) - 1, "ratio")
    return out


def rung_table(tracer: Tracer, items) -> str:
    """Per-rung ladder table: median and max ms per graph for the two zeta
    routes and the conversion, by plumbing vertex count."""
    cols = ["zeta.zeta_plumbing", "zeta.zeta_splice", "diagrams.plumbing_to_splice"]
    per_fn = {c: tracer.durations_by_item(c) for c in cols}
    rungs: dict[int, list[int]] = {}
    for idx, item in enumerate(items):
        rungs.setdefault(item.meta["vertices"], []).append(idx)
    lines = ["| vertices | graphs | " + " | ".join(f"{c.split('.')[-1]} median / max ms"
                                                  for c in cols) + " |",
             "| --- | --- |" + " --- |" * len(cols)]
    for v in sorted(rungs):
        cells = []
        for c in cols:
            ms = [per_fn[c].get(i, 0) / 1e6 for i in rungs[v]]
            cells.append(f"{statistics.median(ms):.1f} / {max(ms):.1f}")
        lines.append(f"| {v} | {len(rungs[v])} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def run(name: str, seed: int, seconds: float, trace: bool, expected: dict | None,
        tiny: bool = False) -> dict:
    """One benchmark run; returns the result object (plus a ``detail`` key).

    ``expected`` maps item keys to the --json digests the outputs must have;
    None skips that check."""
    workload = WORKLOADS[name]
    sz, items, setup_s = setup(workload, seed, tiny)
    call = make_call(sz)
    detail = {"items": len(items)}
    if not trace:
        m = measure(workload, items, call, seconds)
        failures, runs_failed = check_outputs(workload, sz, items, m, expected)
        metrics = end_to_end(m, setup_s)
    else:
        untraced = measure(workload, items, call, seconds, passes=1)
        tracer = Tracer()
        tracer.install()
        try:
            m = measure(workload, items, call, seconds, passes=1, tracer=tracer)
        finally:
            tracer.uninstall()
        m.digests.insert(0, untraced.digests[0])
        failures, runs_failed = check_outputs(workload, sz, items, m, expected)
        own = tracer.self_by_item_ns()
        for idx, item in enumerate(items):
            if own.get(idx, 0) > m.latencies[idx] * 1e9:
                if item.key not in failures:
                    runs_failed += 1
                failures.setdefault(item.key, "self times exceed the item's wall time")
        metrics = per_layer(tracer, m, untraced)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{name}-spans.tsv.gz")
        if name == "plumbing_ladder":
            detail["rung_table"] = rung_table(tracer, items)
            (OUT / "plumbing_ladder-rungs.md").write_text(detail["rung_table"] + "\n")
        detail["self_by_item_ns"] = own
    detail.update(passes=m.passes, samples=len(m.latencies), failures=failures,
                  digests=m.digests[0], wall_s=m.wall, latencies=m.latencies,
                  raw_items_per_s=len(m.latencies) / sum(m.latencies),
                  host_ref_ms=statistics.median(m.refs) * 1000)
    return {
        "correct": not failures,
        "attempted": len(m.latencies) + (len(items) if trace else 0),
        "failed": runs_failed,
        "metrics": metrics,
        "detail": detail,
    }


def run_all(args) -> int:
    """Every workload in its own process (so peak_rss_mb is per workload)."""
    rows, rc = [], 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout[: proc.stdout.rstrip().rfind("\n") + 1])
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            rc = proc.returncode
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        for metric_name, v in res["metrics"].items():
            rows.append((name, metric_name, v["value"], v["unit"]))
        rows.append((name, "fail_frac", res["failed"] / res["attempted"], "ratio"))
    print(f"{'workload':<16} {'metric':<44} {'value':>14} unit")
    for row in rows:
        print(f"{row[0]:<16} {row[1]:<44} {row[2]:>14.6g} {row[3]}")
    return rc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--update-digests", action="store_true",
                    help=f"record this run's --json digests (seed {DEFAULT_SEED} only)")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "splicezeta" / "__init__.py").is_file():
        print(f"error: no splicezeta sources under {SRC}", file=sys.stderr)
        return 2
    if args.update_digests and args.seed != DEFAULT_SEED:
        print(f"error: digests are recorded at seed {DEFAULT_SEED}", file=sys.stderr)
        return 1
    expected = None
    if args.seed == DEFAULT_SEED and not args.update_digests:
        expected = load_digests().get(args.workload, {})
    res = run(args.workload, args.seed, args.seconds, bool(args.trace), expected)
    detail = res.pop("detail")
    if args.update_digests:
        if res["correct"]:
            digests = load_digests()
            digests[args.workload] = dict(sorted(detail["digests"].items()))
            DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        else:
            print("digests not updated: some checks failed", file=sys.stderr)
    print(f"{args.workload}: seed {args.seed}, {detail['items']} items x {detail['passes']} "
          f"pass(es) = {detail['samples']} latency samples in {detail['wall_s']:.2f} s, "
          f"fail_frac {res['failed'] / res['attempted']:.4f}; raw {detail['raw_items_per_s']:.2f} "
          f"items/s, reference loop {detail['host_ref_ms']:.3f} ms "
          f"(nominal {REF_NOMINAL_S * 1000:g} ms)")
    for key, reason in sorted(detail["failures"].items())[:10]:
        print(f"  FAILED {key}: {reason}")
    if "rung_table" in detail:
        print(detail["rung_table"])
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
