"""Benchmark entry point for skewrh.

Run from the root of a source checkout:

    python3 bench/run.py --workload rh-verify --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of that checkout (nothing is
installed).  The run first measures set-up in fresh interpreters, then
repeats whole rounds of the workload while they are expected to end within
``--seconds``, scales their time to the host's reference speed (see
harness.HostSpeed), checks every output, writes a full record under
``bench/out/`` and prints one JSON
line last: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
same calls run with spans recorded and the layer timer installed (see
layers.py), and the per-layer metrics are printed.  Both sets are the ones
``BENCHMARK.json`` names, for every workload; a run that would print any
other set exits with code 1 instead.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from harness import OUT, ROOT, SRC, Checks, HostSpeed, Recorder, run_child

STARTED = time.perf_counter()
WORKLOADS = ("rh-verify", "families", "cli-readme")

SETUP_REPEATS = 3
MAX_RUN_S = 150           # never start a round that would end past this
MANIFEST = ROOT / "BENCHMARK.json"

# Fresh interpreter to ready: import the package and build the first table,
# which also generates the tanh-sinh node tables.
SETUP_CODE = (
    "import skewrh\n"
    "from skewrh import Potential, PrecisionContext, get_weight_table\n"
    "get_weight_table(Potential.parse('0,0,0.5'), PrecisionContext())\n"
)


def measure_setup(speed):
    """Median over SETUP_REPEATS fresh interpreters set up, each one's wall
    time scaled to the reference speed; also the unscaled times."""
    scaled, walls = [], []
    for _ in range(SETUP_REPEATS):
        first = len(speed.samples)
        speed.sample()
        wall, code, _ = run_child([sys.executable, "-c", SETUP_CODE])
        if code != 0:
            raise SystemExit(f"set-up failed with exit code {code}")
        speed.sample()
        scaled.append(speed.scale(wall, first))
        walls.append(wall)
    return statistics.median(scaled), walls


def machine_facts():
    import mpmath
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "platform": platform.platform()}


def import_program():
    """Import skewrh from this checkout's src/, never from elsewhere."""
    if not (SRC / "skewrh" / "__init__.py").is_file():
        raise SystemExit(f"no program source at {SRC / 'skewrh'}")
    sys.path.insert(0, str(SRC))
    import skewrh
    if Path(skewrh.__file__).resolve().parent != (SRC / "skewrh").resolve():
        raise SystemExit(f"imported skewrh from {skewrh.__file__}, not {SRC}")
    return skewrh


def manifest_metrics():
    """(end-to-end, per-layer) metric names and units from BENCHMARK.json."""
    if not MANIFEST.is_file():
        raise SystemExit(f"no manifest at {MANIFEST}")
    m = json.loads(MANIFEST.read_text())
    return ({x["name"]: x["unit"] for x in m["end_to_end"]},
            {x["name"]: x["unit"] for x in m["per_layer"]})


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    want_e2e, want_layers = manifest_metrics()
    import_program()
    timer = None
    if args.trace:
        from layers import LayerTimer
        timer = LayerTimer()
        timer.install()                 # before workloads binds skewrh's names
    import workloads                    # imports skewrh, so after the path is set
    speed = HostSpeed()
    setup_s, setup_runs = measure_setup(speed)
    rec = Recorder(trace=bool(args.trace), speed=speed)
    checks = Checks()
    wl = workloads.WORKLOADS[args.workload](rec, checks, args.seed, timer)
    wl.prepare()

    # Whole rounds: at least one, and another only while it is expected to
    # end within --seconds of the loop's start.  A round's time is the time
    # spent in its calls into the program, scaled to the reference speed.
    rounds, round_times, round_scaled, round_work = 0, [], [], []
    loop_start = time.perf_counter()
    rss_first_round = None
    while True:
        start, first, work = time.perf_counter(), len(speed.samples), rec.work
        speed.sample()
        wl.run_round(rounds)
        speed.sample()
        round_work.append(rec.work - work)
        round_scaled.append(speed.scale(round_work[-1], first))
        round_times.append(time.perf_counter() - start)
        rounds += 1
        if rss_first_round is None:
            rss_first_round = wl.peak_rss_mb()
        expected_end = (time.perf_counter() - loop_start
                        + statistics.mean(round_times))
        if expected_end > args.seconds or rounds == len(wl.rounds):
            break
        if time.perf_counter() - STARTED + max(round_times) > MAX_RUN_S:
            break

    e2e = {"setup_s": (setup_s, "s"), "peak_rss_mb": (rss_first_round, "MB"),
           "round_s": (statistics.median(round_scaled), "s")}
    layers = wl.per_layer(rounds) if rec.trace else {}
    metrics = layers if rec.trace else e2e
    want = want_layers if rec.trace else want_e2e
    got = {k: u for k, (_, u) in metrics.items()}
    if got != want:
        raise SystemExit(f"metrics {sorted(got.items())} differ from the "
                         f"manifest's {sorted(want.items())}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(),
        "attempted": rec.attempted, "failed": rec.failed,
        "rounds": rounds, "round_wall_s": round_times,
        "round_work_s": round_work, "round_scaled_s": round_scaled,
        "reference_s": speed.samples,
        "setup_runs_s": setup_runs, "inputs": wl.inputs_used(rounds),
        "checks": checks.results, "correct": checks.correct,
        "durations_s": rec.durations, "stages": wl.stages(),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if rec.trace:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(rec.spans))
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "machine": record["machine"], "rounds": rounds,
        "checks": {k: v["failed"] == 0 for k, v in checks.results.items()}}))
    print(json.dumps({
        "correct": checks.correct, "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
