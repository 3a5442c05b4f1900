"""The benchmark's workloads: inputs drawn from the seed, one request, its oracle.

Importing this module imports aquawake, so the benchmark imports it inside
its timed set-up. Each workload keeps the generated inputs in `requests`
and answers, for one request, how many `run_scenario` calls it completes,
how many simulated acoustic seconds those cover, whether the output passes
an oracle computed without the program, and which bytes feed the
determinism digest.

Every request calls the program through a module attribute looked up at
call time (`cli.main`, `sim.run_scenario`, `sim.sweep`), so the tracer can
wrap those attributes from outside.
"""

from __future__ import annotations

import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from aquawake import (
    ChannelModel,
    DecoderConfig,
    DemodParams,
    HarvesterParams,
    ModulationParams,
    Scenario,
    SimOptions,
    WakeupFrame,
    cli,
    load_scenario,
    sim,
)

FRAME_BITS = 10  # two sync bits, then the 8-bit address
OWN_ADDRESS = 0xA5  # the address every bundled preset transmits and answers to
CSV_FILES = ("result.csv", "vcap_trace.csv", "comparator_edges.csv")


def simulated_seconds(sc: Scenario) -> float:
    """Acoustic time one run covers: frame, tail, and the longest path delay."""
    f, ch = sc.frame, sc.channel
    frame_s = f.preamble_duration + f.guard_duration + FRAME_BITS / f.bit_rate
    detour = max((e.extra_path for e in ch.echoes), default=0.0)
    return frame_s + sc.sim.tail_duration + (ch.distance + detour) / ch.sound_speed


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31, size=n)]


class PresetsCli:
    """`aquawake run <preset> --seed s --out dir`, cycling the three presets.

    The path users run: YAML loading and three CSV files per call carry
    about 40 % of a call, the tick loop about 15 %.
    """

    name = "presets_cli"
    n_requests = 2048  # distinct inputs; a long run cycles through them
    digest_requests = 12  # the first requests, hashed twice for the determinism digest
    trace_requests = 30  # the first requests, run once per pass in a traced run
    presets = ("paper_fig5", "paper_echo", "paper_critical_distance")
    # preset -> (woke, decoded address is 165)
    expected = {
        "paper_fig5": (True, True),
        "paper_echo": (True, True),
        "paper_critical_distance": (False, False),
    }

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.paths = {p: str(cli.preset_path(p)) for p in self.presets}
        self.sim_s = {p: simulated_seconds(load_scenario(path)) for p, path in self.paths.items()}
        self.out = {p: workdir / p for p in self.presets}
        self.requests = [
            (self.presets[i % len(self.presets)], s)
            for i, s in enumerate(_seeds(rng, self.n_requests))
        ]
        self.warmup = self.requests[: len(self.presets)]

    def runs(self, req) -> int:
        return 1

    def simulated_seconds(self, req) -> float:
        return self.sim_s[req[0]]

    def call(self, req):
        preset, seed = req
        argv = ["run", self.paths[preset], "--seed", str(seed), "--out", str(self.out[preset])]
        return cli.main(argv)

    def check(self, req, out) -> bool:
        preset, seed = req
        if out != 0:
            return False
        with open(self.out[preset] / "result.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        want_woke, want_own = self.expected[preset]
        decoded = row["decoded_uuid"]
        return (
            row["seed"] == str(seed)
            and row["woke"] == ("true" if want_woke else "false")
            and decoded != ""
            and (int(decoded) == OWN_ADDRESS) == want_own
        )

    def digest_bytes(self, req, out) -> bytes:
        return b"".join((self.out[req[0]] / f).read_bytes() for f in CSV_FILES)

    def written(self, req) -> tuple[int, int]:
        """Data rows and bytes of the CSV files the last call wrote."""
        rows = size = 0
        for f in CSV_FILES:
            data = (self.out[req[0]] / f).read_bytes()
            rows += data.count(b"\n") - 1  # minus the header
            size += len(data)
        return rows, size


def reference_scenario(tx: int, assigned: int, bit_rate: float, seed: int) -> Scenario:
    """The clean 1 m reference link with the demod taus scaled to the bit period."""
    period = 1.0 / bit_rate
    return Scenario(
        frame=WakeupFrame(
            uuid=tx, bit_rate=bit_rate, preamble_duration=0.050, guard_duration=0.5 * period
        ),
        decoder=DecoderConfig(assigned_uuid=assigned, sample_offset=0.2),
        modulation=ModulationParams(tx_amplitude=34.6064),
        channel=ChannelModel(distance=1.0, noise_rms=0.0),
        demod=DemodParams(
            envelope_tau=0.05 * period,
            fast_tau=0.02 * period,
            slow_tau=0.15 * period,
            hysteresis=5e-3,
            reference_gain=1.02,
        ),
        harvester=HarvesterParams(coldstart_efficiency=0.09),
        sim=SimOptions(seed=seed),
    )


def _result_fields(r) -> tuple:
    return (
        r.woke, r.decoded_uuid, r.time_to_wake, r.peak_v_cap, r.harvested_energy,
        r.consumed_energy, r.rail_up_time, r.first_sync_time, r.decision_time, r.seed,
    )


class Selectivity:
    """One `sim.run_scenario` per request on the clean reference link.

    Half the frames carry the node's own address, half a mismatched pair
    (the address-selectivity shape); bit rates cycle through 100, 200 and
    400 bps with the demod taus scaled per rate (the rate-adaptivity
    shape). Many short runs with no file I/O: the front end is about 55 %
    of a run and per-call fixed overhead shows.
    """

    name = "selectivity"
    n_requests = 4096
    digest_requests = 24
    trace_requests = 60
    rates = (100.0, 200.0, 400.0)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        # rates cycle so that every slice of a run holds the same mix
        rate = np.resize(self.rates, self.n_requests)
        tx = rng.integers(0, 256, size=self.n_requests)
        own = rng.random(self.n_requests) < 0.5
        shift = rng.integers(1, 256, size=self.n_requests)
        assigned = np.where(own, tx, (tx + shift) % 256)
        self.requests = [
            (int(t), int(a), reference_scenario(int(t), int(a), float(r), s))
            for t, a, r, s in zip(tx, assigned, rate, _seeds(rng, self.n_requests))
        ]
        self.warmup = [
            (OWN_ADDRESS, OWN_ADDRESS, reference_scenario(OWN_ADDRESS, OWN_ADDRESS, r, 0))
            for r in self.rates
        ]

    def runs(self, req) -> int:
        return 1

    def simulated_seconds(self, req) -> float:
        return simulated_seconds(req[2])

    def call(self, req):
        return sim.run_scenario(req[2])

    def check(self, req, out) -> bool:
        tx, assigned, _ = req
        return out.woke == (tx == assigned) and out.decoded_uuid == tx

    def digest_bytes(self, req, out) -> bytes:
        return repr(_result_fields(out)).encode()


class FineTick:
    """One `sim.sweep` of `paper_echo` per request at `harvester_decimation=8`.

    The echo delay takes 3.1 ms (immune) and 5.0 ms (one bit period,
    aliased) with one trial each. About 3 000 harvester ticks per run put
    roughly 88 % of host time in the Python tick loop.
    """

    name = "fine_tick"
    n_requests = 512
    digest_requests = 4
    trace_requests = 6
    delays = (3.1e-3, 5.0e-3)
    want_rate = (1.0, 0.0)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        base = load_scenario(cli.preset_path("paper_echo"))
        self.base = replace(base, sim=replace(base.sim, harvester_decimation=8))
        ch = self.base.channel
        self.sim_s = sum(
            simulated_seconds(
                replace(
                    self.base,
                    channel=replace(
                        ch, echoes=[replace(ch.echoes[0], extra_path=d * ch.sound_speed)]
                    ),
                )
            )
            for d in self.delays
        )
        self.requests = _seeds(rng, self.n_requests)
        self.warmup = [0]

    def runs(self, req) -> int:
        return len(self.delays)

    def simulated_seconds(self, req) -> float:
        return self.sim_s

    def call(self, req):
        sc = replace(self.base, sim=replace(self.base.sim, seed=req))
        return sim.sweep(sc, "echo_delay", list(self.delays), trials=1)

    def check(self, req, out) -> bool:
        rates = tuple(a["wake_success_rate"] for a in out.aggregates)
        return rates == self.want_rate and len(out.rows) == len(self.delays)

    def digest_bytes(self, req, out) -> bytes:
        return json.dumps([out.rows, out.aggregates], sort_keys=True).encode()


WORKLOADS = {w.name: w for w in (PresetsCli, Selectivity, FineTick)}
