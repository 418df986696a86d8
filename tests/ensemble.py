"""Seed ensemble of the preset sweeps under the production and reference samplers.

    python3 tests/ensemble.py [--seeds N] [--first-seed S] [--phases P]

Runs N fresh-seed sweeps (seeds S .. S+N-1, not the preset seeds) of each
preset through the CLI's own path, ``analysis.measure`` over
``events.sweep_points`` and then ``analysis.fit_fringe`` at the sweep's
accidental rate, once with ``events.simulate`` (photon clicks drawn per
outcome cell, Bob's free-running darks drawn only where they can pair) and
once with the reference sampler of ``reference_sampler.py`` (every pair and
every dark drawn), patched in over the ``simulate`` binding that
``analysis.measure`` calls.  The two differ in both the photon and
the dark half, so no stream is shared between them.  For each preset and
sampler it prints mean +- standard error over seeds of ``v_raw``, ``v_net``
and the measured accidental rate, and checks, with the tolerance fixed
before the first run at |delta| <= 3 SE:

- production against reference, for each of the three quantities (SE of
  the difference of two independent means);
- each sampler's accidental rate against ``chain.expected_rates`` (SE of
  that sampler's mean).

For information only, it also prints ``v_raw`` against the configured
visibility times the budget's ``predicted_raw_over_net``, ``v_net`` against
the configured visibility, the seed-to-seed sd of ``v_raw`` and ``v_net``
next to the median reported ``v_raw_err`` / ``v_net_err``, and the fraction
of seeds that pass criterion 06's or 07's ``v_raw``, ``v_net`` and count
assertions.  Exits 1 when a check fails.
pytest does not collect this file; it takes minutes (the reference sampler
draws every pair and every dark).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from photonlink import analysis as an  # noqa: E402
from photonlink import chain as ch  # noqa: E402
from photonlink import events as ev  # noqa: E402
from photonlink.presets import REPORT_TARGETS, preset_config  # noqa: E402
from reference_sampler import reference_simulate  # noqa: E402

PRESETS = ("fig2-baseline", "fig3-transfer")
QUANTITIES = ("v_raw", "v_net", "acc_rate")
TOLERANCE_SE = 3.0  # fixed before the first run
# REPORT_TARGETS holds criterion 06's and 07's v_raw and v_net intervals; both
# criteria also need at least this many central-window coincidences per point.
MIN_MEAN_COINCIDENCES = 400


def sweep_values(name: str, seeds: list[int], n_phases: int, reference: bool) -> dict:
    """Per-seed v_raw, v_net, their reported errors, the accidental rate and the
    mean central-window coincidences of one preset under one sampler."""
    values = {q: [] for q in (*QUANTITIES, "v_raw_err", "v_net_err", "mean_counts")}
    sampler = reference_simulate if reference else ev.simulate
    with mock.patch.object(an, "simulate", sampler):
        for seed in seeds:
            cfg = dataclasses.replace(preset_config(name), seed=seed)
            run = an.measure(cfg.chain, ev.sweep_points(cfg, n_phases))
            fit = an.fit_fringe(run.points, accidental_rate_per_s=run.accidental_rate_per_s)
            for q in ("v_raw", "v_net", "v_raw_err", "v_net_err"):
                values[q].append(getattr(fit, q))
            values["acc_rate"].append(fit.accidental_level_per_s)
            values["mean_counts"].append(np.mean([p.coincidences for p in run.points]))
    return {q: np.array(v) for q, v in values.items()}


def mean_se(values: np.ndarray) -> tuple[float, float]:
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=24)
    parser.add_argument("--first-seed", type=int, default=7000)
    parser.add_argument("--phases", type=int, default=21)
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2")
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    failures = []
    for name in PRESETS:
        cfg = preset_config(name)
        rates = ch.expected_rates(cfg.chain)
        expected = rates.accidental_rate_total_per_s
        predicted_raw = cfg.visibility * rates.predicted_raw_over_net
        results = {}
        for reference in (False, True):
            started = time.perf_counter()
            results[reference] = sweep_values(name, seeds, args.phases, reference)
            label = "reference" if reference else "production"
            print(f"{name} {label}: {len(seeds)} sweeps in {time.perf_counter() - started:.1f} s")
        for q in QUANTITIES:
            (m_p, se_p), (m_r, se_r) = (mean_se(results[r][q]) for r in (False, True))
            delta, se = m_p - m_r, math.hypot(se_p, se_r)
            ok = abs(delta) <= TOLERANCE_SE * se
            failures += [] if ok else [f"{name} {q} production - reference"]
            print(
                f"  {q:8s} production {m_p:.5g} +- {se_p:.2g}   reference {m_r:.5g} +- {se_r:.2g}"
                f"   delta {delta:+.3g} = {delta / se:+.2f} SE  {'ok' if ok else 'FAIL'}"
            )
        for reference in (False, True):
            label = "reference" if reference else "production"
            m, se = mean_se(results[reference]["acc_rate"])
            ok = abs(m - expected) <= TOLERANCE_SE * se
            failures += [] if ok else [f"{name} {label} acc_rate - expected_rates"]
            print(
                f"  acc_rate {label} - expected {expected:.5g}: {m - expected:+.3g}"
                f" = {(m - expected) / se:+.2f} SE  {'ok' if ok else 'FAIL'}"
            )
            values = results[reference]
            for q, target in (("v_raw", predicted_raw), ("v_net", cfg.visibility)):
                m, se = mean_se(values[q])
                print(
                    f"  {q} {label} - predicted {target:.4f}: {m - target:+.4f}"
                    f" = {(m - target) / se:+.1f} SE;  sd over seeds {values[q].std(ddof=1):.4f}"
                    f" vs median {q}_err {np.median(values[q + '_err']):.4f} (information)"
                )
            passes = {}
            for q in ("v_raw", "v_net"):
                lo, hi = REPORT_TARGETS[name][q]
                passes[q] = (values[q] >= lo) & (values[q] <= hi)
            passes["counts"] = values["mean_counts"] >= MIN_MEAN_COINCIDENCES
            every = np.logical_and.reduce(list(passes.values()))
            print(
                f"  criterion pass {label}: {every.sum()}/{every.size} seeds ("
                + ", ".join(f"{q} {ok.sum()}" for q, ok in passes.items())
                + ") (information)"
            )
    print("FAIL: " + "; ".join(failures) if failures else "all checks pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
