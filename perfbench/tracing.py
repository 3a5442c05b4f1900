"""Traced run: spans around aquawake's public functions, wrapped from outside.

The tracer swaps module attributes for timing wrappers while it is
installed: the stage functions as `aquawake.sim` imports them,
`aquawake.decoder.decoder_feed`, `sim.run_scenario` and `sim.sweep`, and
the names `aquawake.cli` calls (`main`, `load_scenario`, `run_scenario`).
A span's self time is its duration minus the time its child spans cover.
Spans are kept in memory as flat doubles and written out once at the end.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from aquawake import cli, decoder, sim
from aquawake.decoder import DecoderPhase, RisingEdge

# (module, attribute, span name). One function object gets one wrapper, so
# cli.run_scenario and sim.run_scenario share the "sim.run" span.
PATCH_POINTS = (
    (sim, "modulate_frame", "frame.modulate"),
    (sim, "propagate", "channel.propagate"),
    (sim, "transduce", "frontend.transduce"),
    (sim, "rectify", "frontend.rectify"),
    (sim, "bandpass", "frontend.bandpass"),
    (sim, "envelope", "frontend.envelope"),
    (sim, "comparator", "frontend.comparator"),
    (sim, "harvester_step", "power.step"),
    (decoder, "decoder_feed", "decoder.feed"),
    (sim, "run_scenario", "sim.run"),
    (cli, "run_scenario", "sim.run"),
    (sim, "sweep", "sim.sweep"),
    (cli, "load_scenario", "scenario_io.load"),
    (cli, "main", "cli.main"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in PATCH_POINTS))
FRONTEND = tuple(n for n in SPAN_NAMES if n.startswith("frontend."))
SPAN_FIELDS = ("request", "span", "parent", "name", "start_s", "end_s")


class Tracer:
    """Context manager that installs the wrappers on entry and removes them on exit."""

    def __init__(self) -> None:
        self.request = 0  # set by the caller before each request
        self.spans = array("d")  # SPAN_FIELDS per span, name as its SPAN_NAMES index
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 1
        self._saved: list[tuple] = []
        self._after = {
            "channel.propagate": self._after_propagate,
            "frontend.comparator": self._after_comparator,
            "decoder.feed": self._after_feed,
        }

    def _after_propagate(self, args, out) -> None:
        self.counts["channel.samples"] += len(out.samples)

    def _after_comparator(self, args, out) -> None:
        self.counts["frontend.edges"] += len(out.edge_times)
        self.counts["frontend.rising_edges"] += int(out.edge_levels.sum())

    def _after_feed(self, args, out) -> None:
        self.counts["decoder.edges_fed"] += isinstance(args[2], RisingEdge)
        # DECIDED is terminal and the engine stops feeding once it is reached
        self.counts["decoder.decided"] += out.phase is DecoderPhase.DECIDED

    def _wrap(self, name: str, fn):
        stack, spans, self_s, total_s, calls = (
            self._stack, self.spans, self.self_s, self.total_s, self.calls
        )
        index = float(SPAN_NAMES.index(name))
        after = self._after.get(name)

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self_s[name] += dur - frame[1]
                total_s[name] += dur
                calls[name] += 1
                spans.extend((self.request, sid, parent, index, t0, t1))
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def __enter__(self) -> "Tracer":
        wrappers: dict[int, object] = {}
        for module, attr, name in PATCH_POINTS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(name, fn)
            setattr(module, attr, wrappers[id(fn)])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-run means of every layer metric, by name, with units."""
        runs = self.calls["sim.run"]
        if not runs:
            raise RuntimeError("the traced requests completed no run_scenario call")
        c = self.counts

        def ms(span: str) -> float:
            return 1e3 * self.self_s[span] / runs

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        front_s = sum(self.self_s[n] for n in FRONTEND)
        return {
            "frame.modulate_ms": (ms("frame.modulate"), "ms"),
            "channel.propagate_ms": (ms("channel.propagate"), "ms"),
            "channel.samples": (c["channel.samples"] / runs, "count"),
            "frontend.transduce_ms": (ms("frontend.transduce"), "ms"),
            "frontend.rectify_ms": (ms("frontend.rectify"), "ms"),
            "frontend.bandpass_ms": (ms("frontend.bandpass"), "ms"),
            "frontend.envelope_ms": (ms("frontend.envelope"), "ms"),
            "frontend.comparator_ms": (ms("frontend.comparator"), "ms"),
            "frontend.ns_per_sample": (1e9 * ratio(front_s, c["channel.samples"]), "ns"),
            "frontend.edges": (c["frontend.edges"] / runs, "count"),
            "power.ticks": (self.calls["power.step"] / runs, "count"),
            "power.step_us": (1e6 * ratio(self.self_s["power.step"], self.calls["power.step"]), "us"),
            "power.step_ms": (ms("power.step"), "ms"),
            "decoder.feeds": (self.calls["decoder.feed"] / runs, "count"),
            "decoder.feed_ms": (ms("decoder.feed"), "ms"),
            "decoder.decided_frac": (c["decoder.decided"] / runs, "ratio"),
            "decoder.edges_fed_frac": (
                ratio(c["decoder.edges_fed"], c["frontend.rising_edges"]), "ratio"
            ),
            "sim.run_ms": (1e3 * self.total_s["sim.run"] / runs, "ms"),
            "sim.loop_self_ms": (ms("sim.run"), "ms"),
            "sim.sweep_self_ms": (ms("sim.sweep"), "ms"),
            "scenario_io.load_ms": (ms("scenario_io.load"), "ms"),
            "cli.self_ms": (ms("cli.main"), "ms"),
            "cli.rows_written": (c["cli.rows_written"] / runs, "count"),
            "cli.bytes_written": (c["cli.bytes_written"] / runs, "B"),
        }

    def self_seconds(self) -> float:
        """Self time summed over every span: the time the layers account for."""
        return sum(self.self_s.values())

    def write_spans(self, path: Path) -> None:
        width = len(SPAN_FIELDS)
        with open(path, "w") as fh:
            fh.write(",".join(SPAN_FIELDS) + "\n")
            for k in range(0, len(self.spans), width):
                req, sid, parent, index, t0, t1 = self.spans[k : k + width]
                fh.write(f"{int(req)},{int(sid)},{int(parent)},{SPAN_NAMES[int(index)]},{t0!r},{t1!r}\n")
