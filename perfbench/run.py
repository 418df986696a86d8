"""photonlink benchmark: the real CLI on three workloads, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run is one ``photonlink`` CLI command (``photonlink.cli.main``) in its
own fresh Python process (child.py); the next run starts only after the
previous one has exited.  Runs repeat until ``--seconds`` is used up (at
least MIN_RUNS of them).  All runs of one invocation get the same inputs,
derived from ``--seed``, so their outputs and counts must repeat exactly.

Every run is checked: the CLI exits 0, the physics outputs lie within the
tolerances fixed below, and the outputs equal those of the invocation's
first run byte for byte.  A run failing any check counts in ``failed``.

``--trace 0`` reports the end-to-end metrics (medians over runs):
    wall_s       wall time of the cli.main call, set-up excluded
    acq_s_per_s  simulated acquisition seconds (phases x duration) per wall second
    peak_rss_mb  peak resident memory of the run's process
    setup_s      process launch until photonlink.cli is imported
``--trace 1`` alternates untraced and traced runs and reports the per-module
metrics of the traced ones, plus the tracing overhead (traced minus untraced
median wall_s).  The error rate (failed / attempted) is printed with both.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
Per-run records, spans, inputs and the machine are written to
``.perfbench/<workload>-seed<N>-trace<T>/results.json`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"

MIN_RUNS = 3
# The process must end within 180 s: no run starts after HARD_STOP_S, and a
# run still going at KILL_S is killed and counted as failed.
HARD_STOP_S = 120.0
KILL_S = 165.0

# Sweeps: |v_net - configured visibility| <= V_NET_SIGMAS * v_net_err.
V_NET_SIGMAS = 4.0
# Histogram: peak centres within one bin of 0 and +-delay; central:side
# area ratio within 5 % of 2 (the criterion-09 tolerance).
BIN_NS = 0.05
DELAY_NS = 0.20 / 0.299792458  # default 0.20 m path imbalance over c
RATIO_TOL = 0.10

# Criterion-09 document: phase-averaged, lossless, 200 k pairs/s, no darks.
DENSE_CONFIG = {
    "visibility": 1.0,
    "phase_averaged": True,
    "chain": {
        "source": {"pair_rate_per_s": 200_000.0},
        "alice_interferometer": {"transmission": 1.0},
        "bob_interferometer": {"transmission": 1.0},
        "alice_detector": {"quantum_efficiency": 1.0, "dark_prob_per_ns": 0.0},
        "bob_detector": {"quantum_efficiency": 1.0, "dark_prob_per_ns": 0.0},
        "jitter_ns": 0.1,
    },
}


@dataclass
class Workload:
    command: str  # "sweep" or "histogram"
    duration_s: float  # per phase point for sweeps
    phases: int
    preset: str | None = None
    visibility: float | None = None  # configured visibility of the preset


WORKLOADS = {
    # 99.4 % of events are Bob's free-running darks: dark draws, the stable
    # argsort assembly and the histogram scan over every Bob start.
    "fig2-sweep": Workload("sweep", 8.0, 21, "fig2-baseline", 0.970),
    # Conversion stage on, 25 k pairs/s against 49 k darks/s: per-pair
    # outcome draws share the time with dark draws and the sort.
    "fig3-sweep": Workload("sweep", 5.0, 21, "fig3-transfer", 0.962),
    # Every event a photon, no darks: bypasses every dark-count optimisation
    # and takes the histogram command and the phase-averaged sampler; one
    # large memory peak (about 440 MB at 10 s).
    "dense-histogram": Workload("histogram", 10.0, 1),
}

END_TO_END = {"wall_s": "s", "acq_s_per_s": "s/s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "events.simulate_s": "s",
    "events.ns_per_event": "ns",
    "events.n_events": "count",
    "events.n_dark": "count",
    "events.n_photon": "count",
    "events.useful_ratio": "ratio",
    "analysis.build_histogram_s": "s",
    "analysis.n_starts": "count",
    "analysis.hist_total": "count",
    "analysis.peaks_s": "s",
    "analysis.fit_s": "s",
    "analysis.write_s": "s",
    "cli.self_s": "s",
    "config.load_s": "s",
    "trace.overhead_s": "s",
}
# Span names (child.py) summed into each per-layer time.
LAYER_SPANS = {
    "events.simulate_s": "events.simulate",
    "analysis.build_histogram_s": "analysis.build_histogram",
    "analysis.peaks_s": "analysis.peaks",
    "analysis.fit_s": "analysis.fit",
    "analysis.write_s": "analysis.write",
    "config.load_s": "config.load",
}
# Outputs compared byte for byte with the invocation's first run
# (manifest.json is left out: it records the wall clock).
COMPARED = {"sweep": ("fringe.csv", "fit.json"), "histogram": ("histogram.csv", "peaks.json")}


class RunFailed(Exception):
    """A run that exited badly, produced wrong outputs, or did not repeat."""


def program_seed(workload: str, seed: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def cli_args(name: str, wl: Workload, seed: int, work: Path) -> list[str]:
    if wl.command == "sweep":
        args = ["sweep", "--preset", wl.preset, "--phases", str(wl.phases)]
    else:
        config = dict(DENSE_CONFIG, duration_s=wl.duration_s, seed=seed)
        path = work / "config.json"
        path.write_text(json.dumps(config, indent=2), encoding="utf-8")
        args = ["histogram", "--config", str(path)]
    return args + ["--seed", str(seed), "--duration", repr(wl.duration_s)]


def child_env(work: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    # The load model is one single-threaded client.
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["TMPDIR"] = str(work)
    return env


def launch(run_dir: Path, trace: bool, run_id: int, args: list[str], env: dict, kill_at: float) -> dict:
    """Start one child, time its set-up, wait for it; returns its result record."""
    run_dir.mkdir(parents=True)
    result_path = run_dir / "result.json"
    cmd = [sys.executable, str(CHILD), str(ROOT), str(result_path), "1" if trace else "0", str(run_id), "--"]
    if args:
        cmd += args + ["--out", str(run_dir / "out")]
    with open(run_dir / "stderr.txt", "wb") as err:
        launched = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=env)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], max(kill_at - launched, 1.0))
            line = proc.stdout.readline() if ready else b""
            setup_s = time.perf_counter() - launched
            proc.wait(timeout=max(kill_at - time.perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if line.strip() != b"ready":
        raise RunFailed(f"run {run_id}: never became ready: {_tail(run_dir / 'stderr.txt')}")
    if proc.returncode != 0:
        raise RunFailed(f"run {run_id}: child exited {proc.returncode}: {_tail(run_dir / 'stderr.txt')}")
    if not args:
        return {"setup_s": setup_s}
    record = json.loads(result_path.read_text(encoding="utf-8"))
    record["setup_s"] = setup_s
    if record["code"] != 0:
        raise RunFailed(f"run {run_id}: photonlink exited {record['code']}: {_tail(run_dir / 'stderr.txt')}")
    return record


def _tail(path: Path) -> str:
    lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no stderr)"


def check_outputs(wl: Workload, out: Path) -> None:
    """Physics checks on one run's outputs; raises RunFailed."""
    if wl.command == "sweep":
        doc = json.loads((out / "fit.json").read_text(encoding="utf-8"))
        v_net, v_err = doc["fit"]["v_net"], doc["fit"]["v_net_err"]
        rows = (out / "fringe.csv").read_text(encoding="utf-8").strip().splitlines()[1:]
        if len(rows) != wl.phases:
            raise RunFailed(f"fringe.csv has {len(rows)} points, expected {wl.phases}")
        if not (math.isfinite(v_err) and abs(v_net - wl.visibility) <= V_NET_SIGMAS * v_err):
            raise RunFailed(
                f"v_net {v_net:.4f} +- {v_err:.4f} is not within {V_NET_SIGMAS:g} sigma "
                f"of the configured {wl.visibility}"
            )
        return
    doc = json.loads((out / "peaks.json").read_text(encoding="utf-8"))
    for key, target in (("side_early_ns", -DELAY_NS), ("central_ns", 0.0), ("side_late_ns", DELAY_NS)):
        lo, hi = doc["windows"][key]
        if abs(0.5 * (lo + hi) - target) > BIN_NS:
            raise RunFailed(f"{key} centred at {0.5 * (lo + hi):+.4f} ns, expected {target:+.4f} ns")
    ratio = doc["area_ratio_central_to_side"]
    if not abs(ratio - 2.0) <= RATIO_TOL:
        raise RunFailed(f"central:side area ratio {ratio:.4f} is not within {RATIO_TOL} of 2")


def layer_metrics(spans: list[dict]) -> dict:
    """Per-module times and counts of one traced run."""
    by_id = {s["id"]: s for s in spans}
    root = next(s for s in spans if s["name"] == "cli.main")
    times: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for s in spans:
        for key, value in s["counts"].items():
            counts[key] += value
        parent = by_id.get(s["parent"])
        if parent is not None and parent["name"] == s["name"]:
            continue  # e.g. count_window called inside locate_peaks
        times[s["name"]] += s["end"] - s["start"]
    children = sum(s["end"] - s["start"] for s in spans if s["parent"] == root["id"])
    metrics = {name: times[span] for name, span in LAYER_SPANS.items()}
    metrics.update({f"events.{k}": counts[k] for k in ("n_events", "n_dark", "n_photon")})
    metrics.update({f"analysis.{k}": counts[k] for k in ("n_starts", "hist_total")})
    n_events = counts["n_events"]
    metrics["events.ns_per_event"] = times["events.simulate"] * 1e9 / n_events if n_events else 0.0
    metrics["events.useful_ratio"] = counts["hist_total"] / n_events if n_events else 0.0
    metrics["cli.self_s"] = (root["end"] - root["start"]) - children
    return metrics


def machine() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the closed loop for one workload; returns the invocation's summary."""
    wl = WORKLOADS[name]
    started = time.perf_counter()
    work = ROOT / ".perfbench" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(work)
    seed_used = program_seed(name, seed)
    args = cli_args(name, wl, seed_used, work)
    kill_at = started + KILL_S

    # Warm-up launch: imports only, so the first timed set-up does not pay
    # for compiling the package to bytecode.
    launch(work / "warmup", False, -1, [], env, kill_at)

    runs: list[dict] = []
    reference: dict | None = None
    reference_counts: dict | None = None
    while True:
        now = time.perf_counter()
        spent = [r["elapsed_s"] for r in runs]
        typical = statistics.median(spent) if spent else 0.0
        enough = len(runs) >= MIN_RUNS * (2 if trace else 1)
        if runs and ((enough and now + typical > started + seconds) or now - started > HARD_STOP_S):
            break
        run_id = len(runs)
        traced = trace and run_id % 2 == 1
        run_dir = work / f"run{run_id}"
        record = {"run": run_id, "traced": traced, "ok": True, "error": None}
        try:
            record.update(launch(run_dir, traced, run_id, args, env, kill_at))
            out = run_dir / "out"
            check_outputs(wl, out)
            produced = {f: (out / f).read_bytes() for f in COMPARED[wl.command]}
            if reference is None:
                reference = produced
            elif produced != reference:
                changed = [f for f in produced if produced[f] != reference[f]]
                raise RunFailed(f"run {run_id}: {', '.join(changed)} differ from run 0 at the same seed")
            if traced:
                layers = layer_metrics(record["spans"])
                counts = {k: v for k, v in layers.items() if PER_LAYER[k] == "count"}
                if reference_counts is None:
                    reference_counts = counts
                elif counts != reference_counts:
                    raise RunFailed(f"run {run_id}: counts {counts} differ from {reference_counts}")
        except (RunFailed, OSError, ValueError, KeyError) as exc:
            record["ok"] = False
            record["error"] = str(exc)
            print(f"FAILED {exc}", file=sys.stderr)
        record["elapsed_s"] = time.perf_counter() - now
        runs.append(record)

    good = [r for r in runs if r["ok"]]
    plain = [r for r in good if not r["traced"]]
    acquisition_s = wl.phases * wl.duration_s
    summary: dict = {"timings": {}}

    def add(metric: str, values: list[float], unit: str, table: dict) -> None:
        if values:
            summary["timings"][metric] = quartiles(values) + (len(values),)
            table[metric] = {"value": statistics.median(values), "unit": unit}

    end_to_end: dict = {}
    add("wall_s", [r["wall_s"] for r in plain], "s", end_to_end)
    if "wall_s" in end_to_end:
        end_to_end["acq_s_per_s"] = {"value": acquisition_s / end_to_end["wall_s"]["value"], "unit": "s/s"}
    add("peak_rss_mb", [r["peak_rss_mb"] for r in plain], "MB", end_to_end)
    add("setup_s", [r["setup_s"] for r in good], "s", end_to_end)

    per_layer: dict = {}
    traced_runs = [r for r in good if r["traced"]]
    if traced_runs:
        rows = [layer_metrics(r["spans"]) for r in traced_runs]
        for metric in PER_LAYER:
            if metric != "trace.overhead_s":
                add(metric, [row[metric] for row in rows], PER_LAYER[metric], per_layer)
        if plain:
            traced_wall = statistics.median(r["wall_s"] for r in traced_runs)
            overhead = traced_wall - end_to_end["wall_s"]["value"]
            per_layer["trace.overhead_s"] = {"value": overhead, "unit": "s"}

    metrics = per_layer if trace else end_to_end
    wanted = PER_LAYER if trace else END_TO_END
    failed = len(runs) - len(good)
    complete = set(metrics) == set(wanted)
    summary.update(
        correct=failed == 0 and complete,
        attempted=len(runs),
        failed=failed,
        metrics={k: metrics[k] for k in wanted if k in metrics},
        workload=name,
        seed=seed,
        program_seed=seed_used,
        cli_args=args,
        duration_per_point_s=wl.duration_s,
        phases=wl.phases,
        acquisition_s=acquisition_s,
        machine=machine(),
        untraced_targets=sorted({t for r in traced_runs for t in r["untraced"]}),
        runs=runs,
    )
    (work / "results.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    return summary


def report(summary: dict) -> None:
    m = summary["machine"]
    print(
        f"photonlink benchmark: {summary['workload']}, seed {summary['seed']} "
        f"(program seed {summary['program_seed']}), {summary['phases']} x "
        f"{summary['duration_per_point_s']:g} s per run"
    )
    print(
        f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
        f"scipy={m['scipy']} ({m['platform']})"
    )
    for name, entry in summary["metrics"].items():
        line = f"  {name:<28} {entry['value']:>14.6g} {entry['unit']:<6}"
        if name in summary["timings"]:
            q1, med, q3, n = summary["timings"][name]
            line += f" median of {n}, quartiles {q1:.6g} .. {q3:.6g}"
        print(line)
    rate = summary["failed"] / summary["attempted"]
    print(f"  {'error_rate':<28} {rate:>14.6g} {'1':<6} {summary['failed']} failed of {summary['attempted']} runs")
    if summary["untraced_targets"]:
        print(f"  not traced (missing from the package): {', '.join(summary['untraced_targets'])}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "photonlink" / "cli.py").is_file():
        print(f"no photonlink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunFailed as exc:  # the warm-up launch could not even import the package
        print(f"FAILED {exc}", file=sys.stderr)
        return 1
    report(summary)
    result = {k: summary[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
