"""Standing fault probe: each one-line physics or fit fault must fail a test other than the byte pins.

    PYTHONPATH=src python3 tests/fault_probe.py

The byte pins (the golden outputs and counts, and the equality tests against
the concatenating reference samplers) prove that outputs did not change, not
that they are right.  This probe checks that the rest of tier-1 still sees
the physics and the fit: for each fault in FAULTS it copies ``src/``,
``tests/`` and ``pyproject.toml`` (whose ``filterwarnings = error`` and
``xfail_strict`` the suite needs) to a temporary directory, replaces the
fault's old text, which must occur exactly once in its file, with the new
text, and runs tier-1 with ``-x`` and the pins deselected.  An unmodified
copy runs first as the control.  It prints one line per fault with its
first failing test, the catcher, and exits 1 if the control fails, any
fault survives, or any fault's old text does not occur exactly once.  A
fault that a refactor removes is restated on the new code, never dropped.
pytest does not collect this file; it takes a few minutes (up to one tier-1
run per fault).
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/photonlink, exact old text, new text)
FAULTS = (
    ("Alice's jitter x1.25", "events.py",
     "z *= chain.jitter_ns", "z *= chain.jitter_ns * (1.25 if side == 0 else 1.0)"),
    ("Bob's jitter x1.15", "events.py",
     "z *= chain.jitter_ns", "z *= chain.jitter_ns * (1.15 if side == 1 else 1.0)"),
    ("Bob's arrival +0.05 ns", "events.py",
     "np.add(z, offset, out=", "np.add(z, offset + 0.05 * side, out="),
    ("Bob's arrival +0.02 ns", "events.py",
     "np.add(z, offset, out=", "np.add(z, offset + 0.02 * side, out="),
    ("visibility x0.97", "events.py",
     "config.visibility * math.cos(phi)", "config.visibility * 0.97 * math.cos(phi)"),
    ("visibility x0.99", "events.py",
     "config.visibility * math.cos(phi)", "config.visibility * 0.99 * math.cos(phi)"),
    ("Bob's dark rate x1.10", "events.py",
     "rate = chain.bob_detector.dark_prob_per_ns", "rate = chain.bob_detector.dark_prob_per_ns * 1.10"),
    ("Bob's dark rate x1.03", "events.py",
     "rate = chain.bob_detector.dark_prob_per_ns", "rate = chain.bob_detector.dark_prob_per_ns * 1.03"),
    ("restriction reach halved", "events.py",
     "reach = chain.histogram_half_range_ns + chain.histogram_bin_ns",
     "reach = 0.5 * (chain.histogram_half_range_ns + chain.histogram_bin_ns)"),
    ("restriction probability x0.8", "events.py",
     "min(end[-1] / duration_ns, 1.0)", "min(0.8 * end[-1] / duration_ns, 1.0)"),
    ("Alice's keep factor x0.9", "chain.py",
     "arms[0].transmission * chain.alice_detector.quantum_efficiency",
     "0.9 * arms[0].transmission * chain.alice_detector.quantum_efficiency"),
    ("accidental floor x1.1", "analysis.py",
     "accidentals = background / (n_bins", "accidentals = 1.1 * background / (n_bins"),
    ("central class's s 0.125 -> 0.11", "chain.py",
     '("central", (0.125, 0.125),', '("central", (0.125, 0.11),'),
    ("rank rule's floor 0", "analysis.py",
     "GRAM_DET_FLOOR = 1e-10", "GRAM_DET_FLOOR = 0.0"),
    ("v_err's variance x1.1", "analysis.py",
     "math.sqrt(ssr / (rates.size - 3) * var)", "math.sqrt(ssr / (rates.size - 3) * var * 1.1)"),
    ("v = 1 refit takes the linear offset", "analysis.py",
     "proj, norm, phi0 = max(fits, key=", "proj, norm, phi0 = fits[-2] or max(fits, key="),
    ("v = 1 refit takes the grid's best offset unpolished", "analysis.py",
     "proj, norm, phi0 = max(fits, key=", "proj, norm, phi0 = fits[-1] or max(fits, key="),
)

# The byte pins, by node-id prefix; a bracket ends each parametrized name, so
# test_golden_counts[ does not also drop test_golden_counts_restricted or
# test_golden_counts_agree_without_start_darks_to_restrict.
PINS = (
    "tests/test_golden_outputs.py",
    "tests/test_events.py::test_golden_counts[",
    "tests/test_events.py::test_golden_counts_restricted[",
    "tests/test_events.py::test_photon_times_equal_the_concatenating_loop[",
    "tests/test_events.py::test_simulate_equals_the_concatenating_sampler[",
    "tests/test_events.py::test_near_stop_times_equal_the_gathered_windows[",
)
RUN_TIMEOUT_S = 900


def check_faults() -> list[str]:
    """One message per fault whose old text does not occur exactly once in its file."""
    bad = []
    for name, file, old, _ in FAULTS:
        n = (ROOT / "src" / "photonlink" / file).read_text(encoding="utf-8").count(old)
        if n != 1:
            bad.append(f"{name}: {old!r} occurs {n} times in src/photonlink/{file}, not once")
    return bad


def run_tier1(fault: tuple | None) -> tuple[int, str, float]:
    """Tier-1 without the pins on a copy with ``fault`` applied: (exit code, first failure, seconds)."""
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    with tempfile.TemporaryDirectory(prefix="fault_probe_") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp, part), ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", tmp)
        if fault is not None:
            _, file, old, new = fault
            path = Path(tmp, "src", "photonlink", file)
            path.write_text(path.read_text(encoding="utf-8").replace(old, new, 1), encoding="utf-8")
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider"]
        command += [f"--deselect={pin}" for pin in PINS]
        env = {**os.environ, "PYTHONPATH": str(Path(tmp, "src"))}
        started = time.perf_counter()
        done = subprocess.run(
            command, cwd=tmp, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
        seconds = time.perf_counter() - started
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return done.returncode, failed.group(1) if failed else "", seconds


def main() -> int:
    bad = check_faults()
    for line in bad:
        print(f"refused: {line}", flush=True)
    if bad:
        return 1
    code, first, seconds = run_tier1(None)
    ok = code == 0
    detail = f", first failure {first}" if first else ""
    print(f"control: exit {code} in {seconds:.1f} s{detail}", flush=True)
    for fault in FAULTS:
        code, first, seconds = run_tier1(fault)
        caught = code == 1 and first
        verdict = f"caught by {first}" if caught else f"NOT caught (pytest exit {code})"
        print(f"{fault[0]}: {verdict} in {seconds:.1f} s", flush=True)
        ok = ok and bool(caught)
    print("every fault caught" if ok else "probe FAILED", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
