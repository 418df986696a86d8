"""One benchmark run: a fresh Python process that runs one photonlink CLI command.

Usage (started by run.py, not by hand):

    python3 child.py ROOT RESULT_JSON TRACE RUN_ID -- [CLI_ARG...]

The process imports ``photonlink.cli`` from ``ROOT/src``, writes ``ready`` to
stdout (the parent times set-up up to that line), then calls
``photonlink.cli.main`` on the CLI arguments with the CLI's own printing sent
to ``cli_stdout.txt`` next to RESULT_JSON.  It writes RESULT_JSON with the
exit code, the wall time of the ``main`` call, the process's peak resident
memory and, when TRACE is 1, the spans recorded around the package's public
functions.  Spans stay in memory until ``main`` returns.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import resource
import sys
import time
from pathlib import Path

# (module, function, span name).  Only public functions the CLI calls are
# wrapped; chain and quantum run inside simulate/budget in well under a
# millisecond and are left unmeasured.
TRACED = (
    ("photonlink.events", "simulate", "events.simulate"),
    ("photonlink.analysis", "build_histogram", "analysis.build_histogram"),
    ("photonlink.analysis", "locate_peaks", "analysis.peaks"),
    ("photonlink.analysis", "estimate_accidentals", "analysis.peaks"),
    ("photonlink.analysis", "count_window", "analysis.peaks"),
    ("photonlink.analysis", "fit_fringe", "analysis.fit"),
    ("photonlink.analysis", "write_fringe_csv", "analysis.write"),
    ("photonlink.analysis", "write_histogram_csv", "analysis.write"),
    ("photonlink.config", "load_config", "config.load"),
    ("photonlink.presets", "preset_config", "config.load"),
)


class Tracer:
    """Spans (name, start, end, parent, run) and counts, kept in memory.

    Times are seconds from the tracer's creation.  Work the tracer does to
    take counts is recorded as its own ``trace.count`` span, so that it is
    charged to no layer and shows up as tracing overhead.
    """

    def __init__(self, run_id: int) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": self._now(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "counts": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = self._now()
        self._stack.pop()

    def wrap(self, func, name: str):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(span)
            counter = COUNTERS.get(name)
            if counter is not None:
                count_span = self.open("trace.count")
                span["counts"] = counter(args, kwargs, result)
                self.close(count_span)
            return result

        return traced

    def install(self) -> list[str]:
        """Replace every binding of each traced function inside the package.

        ``from .events import simulate`` in the CLI makes a second binding
        of the same object; each is replaced.  Returns the targets missing
        from the package, which are then simply not traced.
        """
        missing = []
        for module_name, attr, span_name in TRACED:
            try:
                module = importlib.import_module(module_name)
                func = getattr(module, attr)
            except (ImportError, AttributeError):
                missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self.wrap(func, span_name)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "photonlink" or name.startswith("photonlink.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is func:
                        setattr(mod, key, wrapped)
        return missing


def _count_stream(args, kwargs, stream) -> dict:
    n_dark = int((stream.origins == 1).sum())
    return {"n_events": len(stream), "n_dark": n_dark, "n_photon": len(stream) - n_dark}


def _count_histogram(args, kwargs, hist) -> dict:
    stream = args[0] if args else kwargs["events"]
    start = kwargs.get("start_detector", args[1] if len(args) > 1 else "bob")
    return {"n_starts": int(stream.detector_times(start).size), "hist_total": int(hist.total)}


COUNTERS = {"events.simulate": _count_stream, "analysis.build_histogram": _count_histogram}


def main(argv: list[str]) -> int:
    split = argv.index("--")
    root, result_path, trace, run_id = argv[:split]
    cli_args = argv[split + 1:]
    src = Path(root).resolve() / "src"
    sys.path.insert(0, str(src))

    import photonlink.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"photonlink imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if not cli_args:  # a set-up-only launch
        return 0

    tracer = Tracer(int(run_id)) if trace == "1" else None
    missing = tracer.install() if tracer else []
    result_path = Path(result_path)
    with open(result_path.with_name("cli_stdout.txt"), "w", encoding="utf-8") as out:
        with contextlib.redirect_stdout(out):
            root_span = tracer.open("cli.main") if tracer else None
            started = time.perf_counter()
            code = cli.main(cli_args)
            wall = time.perf_counter() - started
            if tracer:
                tracer.close(root_span)
    result = {
        "code": code,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans if tracer else [],
        "untraced": missing,
    }
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
