"""Command-line interface.

Four commands cover the workflow end to end; ``sweep`` and ``histogram`` measure
through ``analysis.measure``, then only fit, print and write:

``budget``
    Analytic link budget, no Monte Carlo: transfer probability, coherence
    lengths, interferometer validity checks, reservoir check, expected
    rates.  Exits 3 when a validity check fails.
``sweep``
    Phase sweep of Bob's analyzer, raw/net fringe fit; writes fringe.csv, fit.json, manifest.
``histogram``
    One run's start-stop histogram, peak windows and background-subtracted central/side ratio.
``report``
    Compare the JSON outputs of prior commands against the reference
    targets; exits 4 when any row fails.

Configuration comes from ``--preset NAME`` or ``--config PATH`` (JSON);
``--seed`` and ``--duration`` override the configured values.  Environment
variables PHOTONLINK_PRESET, PHOTONLINK_CONFIG, PHOTONLINK_SEED,
PHOTONLINK_DURATION, and PHOTONLINK_OUT supply defaults for the matching
flags.  Exit codes: 0 success, 2 configuration or usage error, 3 physics
validity failure, 4 statistical acceptance failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from . import analysis as an
from . import chain as ch
from .config import InvalidConfigError, SimConfig, load_config, read_document
from .events import sweep_points
from .presets import PEAK_RATIO_TARGET, REPORT_TARGETS, preset_config, preset_names

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_STATS = 4

# Most points one sweep may take; keeps its per-point records near 17 MB.
MAX_PHASES = 10_000


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def _write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as strict JSON: each NaN or infinity, e.g. an unbounded margin, as null."""
    payload = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    an.write_text(path, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _env_override(name: str, parse):
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return parse(raw)
    except ValueError as exc:
        raise InvalidConfigError(f"environment variable {name}={raw!r}: {exc}") from exc


def _resolve_config(args) -> tuple[SimConfig, str]:
    """Apply flag > environment > file/preset precedence; returns (config, label)."""
    preset = args.preset or os.environ.get("PHOTONLINK_PRESET")
    path = args.config or os.environ.get("PHOTONLINK_CONFIG")
    if preset and path:
        raise InvalidConfigError("give either --config or --preset, not both")
    if path:
        cfg = load_config(path)
        label = "custom"
    elif preset:
        try:
            cfg = preset_config(preset)
        except KeyError as exc:
            raise InvalidConfigError(str(exc.args[0])) from exc
        label = preset
    else:
        raise InvalidConfigError("a configuration is required: --config PATH or --preset NAME")

    seed = args.seed if args.seed is not None else _env_override("PHOTONLINK_SEED", int)
    duration = getattr(args, "duration", None)
    if duration is None and hasattr(args, "duration"):  # budget takes no --duration
        duration = _env_override("PHOTONLINK_DURATION", float)
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    if duration is not None:
        cfg = dataclasses.replace(cfg, duration_s=duration)
    return cfg, label


def _resolve_out(args) -> Path | None:
    out = args.out or os.environ.get("PHOTONLINK_OUT")
    if out is None:
        return None
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at the path or above it, or no permission
        raise InvalidConfigError(f"--out {out} is not a usable directory: {exc.strerror}") from exc
    return path


def _write_manifest(
    out_dir: Path, command: str, label: str, cfg: SimConfig, outputs: list[str], started: float, **extra
) -> None:
    """Record the run next to its outputs in manifest.json."""
    manifest = {
        "command": command,
        "label": label,
        "config": dataclasses.asdict(cfg),
        "seed": cfg.seed,
        "duration_s": cfg.duration_s,
        "outputs": sorted([*outputs, "manifest.json"]),
        "version": __version__,
        "wall_clock_s": round(time.perf_counter() - started, 3),
        **extra,
    }
    _write_json(out_dir / "manifest.json", manifest)


def _windows_dict(windows: an.PeakWindows) -> dict:
    return {
        "side_early_ns": list(windows.side_early),
        "central_ns": list(windows.central),
        "side_late_ns": list(windows.side_late),
        "background_ns": [list(iv) for iv in windows.background],
    }


# ---------------------------------------------------------------------------
# budget
# ---------------------------------------------------------------------------


def cmd_budget(args) -> int:
    started = time.perf_counter()
    cfg, label = _resolve_config(args)
    out_dir = _resolve_out(args)
    chain = cfg.chain

    franson = ch.franson_validity(chain.source, chain.alice_interferometer, chain.bob_interferometer)
    reservoir = ch.reservoir_coherence_ok(chain.sfg, chain.bob_interferometer) if chain.sfg else None
    rates = ch.expected_rates(chain)
    transfer = ch.sfg_transfer_probability(chain.sfg) if chain.sfg else None

    print(f"link budget [{label}]")
    if transfer is not None:
        print(f"  transfer probability        {transfer:.6f}")
    else:
        print("  transfer probability        (no conversion stage)")
    print(f"  alice coherence length      {chain.source.alice_coherence_length_m():.6e} m")
    print(f"  bob coherence length        {chain.source.bob_coherence_length_m():.6e} m")
    for check in franson.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"  {check.name:<27} {status} (margin {check.margin:.3g})")
    if reservoir is not None:
        status = "PASS" if reservoir.ok else "FAIL"
        print(f"  reservoir_coherence         {status} (margin {reservoir.margin:.3g})")
    print(f"  alice singles               {rates.alice_singles_per_s:.4g} /s")
    print(f"  bob singles                 {rates.bob_singles_per_s:.4g} /s")
    print(f"  true coincidences           {rates.true_coincidence_rate_per_s:.4g} /s")
    print(f"  accidentals                 {rates.accidental_rate_total_per_s:.4g} /s")
    print(f"  accidental fraction         {rates.accidental_fraction:.4f}")
    print(f"  predicted raw/net ratio     {rates.predicted_raw_over_net:.4f}")

    payload = {
        "label": label,
        "transfer_probability": transfer,
        "alice_coherence_length_m": chain.source.alice_coherence_length_m(),
        "bob_coherence_length_m": chain.source.bob_coherence_length_m(),
        "franson": [dataclasses.asdict(c) for c in franson.checks],
        "franson_passed": franson.passed,
        "reservoir": dataclasses.asdict(reservoir) if reservoir else None,
        "rates": dataclasses.asdict(rates),
    }
    if out_dir is not None:
        _write_json(out_dir / "budget.json", payload)
        _write_manifest(out_dir, "budget", label, cfg, ["budget.json"], started)

    valid = franson.passed and (reservoir is None or reservoir.ok)
    if not valid:
        print("validity checks failed", file=sys.stderr)
        return EXIT_PHYSICS
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def cmd_sweep(args) -> int:
    started = time.perf_counter()
    cfg, label = _resolve_config(args)
    if args.phases < 5:
        raise InvalidConfigError(f"a sweep needs at least 5 phase points, got {args.phases}")
    if args.phases > MAX_PHASES:
        raise InvalidConfigError(f"--phases allows at most {MAX_PHASES} points, got {args.phases}")
    out_dir = _resolve_out(args)

    run = an.measure(cfg.chain, sweep_points(cfg, args.phases))
    fit = an.fit_fringe(run.points, accidental_rate_per_s=run.accidental_rate_per_s)
    bell = an.bell_parameter(fit.v_net)
    fidelity = an.fidelity_from_visibility(fit.v_net)

    for p in run.points:
        print(f"  phase {p.combined_phase_rad:6.3f} rad: {int(p.coincidences):6d} coincidences")
    print(f"sweep [{label}]: v_raw={fit.v_raw:.4f}+-{fit.v_raw_err:.4f} "
          f"v_net={fit.v_net:.4f}+-{fit.v_net_err:.4f}")
    print(f"  fidelity={fidelity:.4f}  S={bell.s_value:.4f} "
          f"({'violates' if bell.violation else 'does not violate'} the classical bound)")

    if out_dir is not None:
        an.write_fringe_csv(run.points, out_dir / "fringe.csv")
        payload = {
            "label": label,
            "configured_visibility": cfg.visibility,
            "fit": dataclasses.asdict(fit),
            "fidelity": fidelity,
            "bell": dataclasses.asdict(bell),
            "windows": _windows_dict(run.windows),
            "accidental_rate_per_s": fit.accidental_level_per_s,
            "transfer_probability": ch.sfg_transfer_probability(cfg.chain.sfg) if cfg.chain.sfg else None,
            "n_phases": args.phases,
            "duration_per_point_s": cfg.duration_s,
        }
        _write_json(out_dir / "fit.json", payload)
        _write_manifest(
            out_dir, "sweep", label, cfg, ["fringe.csv", "fit.json"], started, n_phases=args.phases
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------


def cmd_histogram(args) -> int:
    started = time.perf_counter()
    cfg, label = _resolve_config(args)
    out_dir = _resolve_out(args)

    run = an.measure(cfg.chain, [cfg])
    hist, windows, tally = run.histogram, run.windows, run.tally
    ratio = tally.area_ratio()

    print(f"histogram [{label}]: {hist.total} pairs in range")
    print(f"  central window {windows.central[0]:+.3f}..{windows.central[1]:+.3f} ns: {tally.central}")
    print(f"  side windows: {tally.side_early} / {tally.side_late}  "
          f"accidental per window: {tally.accidentals:.1f}")
    print(f"  central:side area ratio {ratio:.3f} (background subtracted)")

    if out_dir is not None:
        an.write_histogram_csv(hist, out_dir / "histogram.csv")
        payload = {
            "label": label,
            "windows": _windows_dict(windows),
            "counts": {key: getattr(tally, key) for key in ("central", "side_early", "side_late")},
            "accidental_per_window": tally.accidentals,
            "area_ratio_central_to_side": ratio,
            "expected_delay_ns": cfg.chain.bob_interferometer.delay_ns(),
        }
        _write_json(out_dir / "peaks.json", payload)
        _write_manifest(out_dir, "histogram", label, cfg, ["histogram.csv", "peaks.json"], started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _interval_row(name: str, measured: float, interval: tuple[float, float]) -> dict:
    lo, hi = interval
    return {
        "quantity": name,
        "measured": measured,
        "target": f"[{lo:g}, {hi:g}]",
        "passed": lo <= measured <= hi,
    }


def _field(section: dict, key: str, kind: str, prefix: str = ""):
    """A field of a report input of the kind its writer declares; else a usage error naming it."""
    if key not in section:
        raise InvalidConfigError(f"field {prefix}{key} is missing")
    try:
        ch.check_kind(f"field {prefix}{key}", section[key], kind)
    except ValueError as exc:
        raise InvalidConfigError(str(exc)) from exc
    return section[key] if kind == "bool" else float(section[key])  # a row compares floats


def _rows_for_fit(doc: dict, label: str) -> list[dict]:
    fit = doc["fit"]
    if not isinstance(fit, dict):
        raise InvalidConfigError(f"field fit must be an object, got {fit!r}")
    targets = REPORT_TARGETS.get(label, {})
    rows = []
    if "v_raw" in targets:
        v_raw = _field(fit, "v_raw", "Fraction", "fit.")
        rows.append(_interval_row(f"v_raw ({label})", v_raw, targets["v_raw"]))
    v_net_interval = targets.get("v_net")
    if v_net_interval is None and "configured_visibility" in doc:
        v0 = _field(doc, "configured_visibility", "Fraction")
        v_net_interval = (max(v0 - 0.02, 0.0), min(v0 + 0.02, 1.0))
    if v_net_interval is not None:
        v_net = _field(fit, "v_net", "Fraction", "fit.")
        rows.append(_interval_row(f"v_net ({label})", v_net, v_net_interval))
        f_lo, f_hi = (an.fidelity_from_visibility(v) for v in v_net_interval)
        fidelity = _field(doc, "fidelity", "Fraction")
        rows.append(_interval_row(f"fidelity ({label})", fidelity, (f_lo, f_hi)))
    return rows


def _rows_for_budget(doc: dict, label: str) -> list[dict]:
    passed = _field(doc, "franson_passed", "bool")
    rows = [
        {
            "quantity": f"franson validity ({label})",
            "measured": "pass" if passed else "fail",
            "target": "pass",
            "passed": passed,
        }
    ]
    interval = REPORT_TARGETS.get(label, {}).get("transfer_probability")
    if doc.get("transfer_probability") is not None and interval is not None:
        transfer = _field(doc, "transfer_probability", "Fraction")
        rows.append(_interval_row(f"transfer probability ({label})", transfer, interval))
    return rows


def _rows_for_peaks(doc: dict, label: str) -> list[dict]:
    ratio = _field(doc, "area_ratio_central_to_side", "float")
    return [_interval_row(f"central:side ratio ({label})", ratio, PEAK_RATIO_TARGET)]


_READERS = {  # each report input's reader, keyed by the field that marks its document, tried in order
    "fit": _rows_for_fit, "franson": _rows_for_budget, "area_ratio_central_to_side": _rows_for_peaks
}


def cmd_report(args) -> int:
    out_dir = _resolve_out(args)
    rows: list[dict] = []
    for raw_path in args.inputs:
        path = Path(raw_path)
        doc = read_document(path, "report input")
        rows_for = next((read for key, read in _READERS.items() if key in doc), None)
        if rows_for is None:
            raise InvalidConfigError(f"report input {path} is not a recognized fit/budget/peaks document")
        label = doc.get("label", "custom")
        try:
            if not isinstance(label, str):
                raise InvalidConfigError(f"field label must be a string, got {label!r}")
            rows.extend(rows_for(doc, label))
        except InvalidConfigError as exc:
            raise InvalidConfigError(f"report input {path}: {exc}") from exc
    if not rows:
        raise InvalidConfigError("report inputs produced no comparable quantities")

    width = max(len(r["quantity"]) for r in rows)
    print(f"{'quantity':<{width}}  {'measured':>12}  {'target':>16}  verdict")
    for r in rows:
        measured = r["measured"]
        shown = f"{measured:.4f}" if isinstance(measured, float) else str(measured)
        verdict = "PASS" if r["passed"] else "FAIL"
        print(f"{r['quantity']:<{width}}  {shown:>12}  {r['target']:>16}  {verdict}")

    if out_dir is not None:
        _write_json(out_dir / "report.json", {"rows": rows, "passed": all(r["passed"] for r in rows)})
    if not all(r["passed"] for r in rows):
        return EXIT_STATS
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, with_duration: bool = True) -> None:
    parser.add_argument("--config", help="path to a JSON configuration file")
    parser.add_argument("--preset", help=f"built-in configuration: {', '.join(preset_names())}")
    parser.add_argument("--seed", type=int, help="override the configured random seed")
    if with_duration:
        parser.add_argument(
            "--duration", type=float, help="override the configured duration in seconds"
        )
    parser.add_argument("--out", help="directory for output files (created if missing)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonlink",
        description="Simulate and analyze an entangled-pair link with wavelength conversion.",
    )
    parser.add_argument("--version", action="version", version=f"photonlink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_budget = sub.add_parser("budget", help="analytic link budget and validity checks")
    _add_common(p_budget, with_duration=False)
    p_budget.set_defaults(func=cmd_budget)

    p_sweep = sub.add_parser("sweep", help="phase sweep with fringe fit")
    _add_common(p_sweep)
    p_sweep.add_argument("--phases", type=int, default=21, help="number of phase points (default 21)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_hist = sub.add_parser("histogram", help="coincidence histogram and peak windows")
    _add_common(p_hist)
    p_hist.set_defaults(func=cmd_histogram)

    p_report = sub.add_parser("report", help="compare prior outputs against reference targets")
    p_report.add_argument("inputs", nargs="+", help="JSON outputs of budget/sweep/histogram")
    p_report.add_argument("--out", help="directory for report.json")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except an.AnalysisError as exc:
        print(f"physics validity error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS


if __name__ == "__main__":
    sys.exit(main())
