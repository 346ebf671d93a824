"""One treebsde CLI command in this fresh process, with what it cost.

Started by ``run.py`` once per sample:

    python3 perfbench/child.py --command solve --config CFG --out DIR \
        --result RES.json --spawn-ns N [--trace TRACE.json]

``--spawn-ns`` is the parent's ``time.monotonic_ns()`` just before it started
this process; set-up time runs from there until ``treebsde.cli`` is imported
and the config is loaded.  The command itself is timed around
``treebsde.cli.main``, the console entry point.  With ``--trace`` the layers
are wrapped (see ``tracer.py``) after set-up is measured.  The exit code is
the CLI's.

The host shares its cores with other machines.  Their load slows this
process by up to half, in phases from milliseconds to minutes, so raw times
of the same work differ by a third between runs.  A ``HostProbe`` therefore
times a fixed pure-Python loop from a SIGALRM handler every few milliseconds,
in this process and between the program's own bytecodes, during set-up and
during the command; the loop is slowed alike at the same moments.  Each time
is reported raw (``raw_*``) and normalised: the probes' own time and the
time the host withheld the CPUs (``steal`` in ``/proc/stat``, which a loaded
host adds to wall time in bursts the short probes mostly miss) taken out, then
scaled by ``REFERENCE_PROBE_S`` over the median probe time.  That is the time
on an idle core of the reference host, and it moves with the program's work,
not with the host's load.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE_LOOP = 4000            # iterations of the probe loop, about 0.4 ms
SETUP_PROBE_INTERVAL_S = 0.01
COMMAND_PROBE_INTERVAL_S = 0.05     # under 1% of the command
MIN_PROBES = 5               # an interval too short for these gets them afterwards
# the probe loop's time on an idle core of a 2-vCPU Intel Xeon host, Python 3.11
REFERENCE_PROBE_S = 0.38e-3


class HostProbe:
    """Times ``PROBE_LOOP`` iterations of a fixed loop every ``interval`` seconds."""

    def __init__(self, interval: float):
        self.interval = interval
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def probe(self, *_):
        w0, c0 = time.perf_counter(), time.process_time()
        x = 0.0
        for i in range(PROBE_LOOP):
            x += (i * 0.5) % 7.0
        self.cpu.append(time.process_time() - c0)
        self.wall.append(time.perf_counter() - w0)

    def start(self) -> "HostProbe":
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self) -> tuple[float, float]:
        """Stop probing; return the wall and CPU time the probes took."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        spent = sum(self.wall), sum(self.cpu)
        while len(self.wall) < MIN_PROBES:
            self.probe()
        return spent

    def scale(self) -> float:
        return REFERENCE_PROBE_S / statistics.median(self.wall)


def stolen_s() -> float:
    """Seconds the host has withheld from this machine's CPUs since boot; 0 off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _report_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def main() -> int:
    setup_steal0 = stolen_s()
    setup_probe = HostProbe(SETUP_PROBE_INTERVAL_S).start()
    ap = argparse.ArgumentParser()
    ap.add_argument("--command", required=True, choices=("solve", "verify", "sweep"))
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--trace", default=None)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from treebsde import cli

    cli.RunConfig.load(args.config)
    ready_ns = time.monotonic_ns()
    setup_probe_s, _ = setup_probe.stop()
    setup_steal_s = stolen_s() - setup_steal0
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported treebsde from {cli.__file__}, not from this checkout",
              file=sys.stderr)
        return 90

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    argv = [args.command, "--config", args.config, "--out", args.out]
    probe = HostProbe(COMMAND_PROBE_INTERVAL_S)
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    steal0 = stolen_s()
    probe.start()
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    finally:
        t1 = time.perf_counter()
        probe_wall_s, probe_cpu_s = probe.stop()
    steal_s = stolen_s() - steal0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    setup_s = (ready_ns - args.spawn_ns) / 1e9 - setup_probe_s
    wall_s = t1 - t0 - probe_wall_s
    cpu_s = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime) - probe_cpu_s
    result = {
        "setup_s": (setup_s - setup_steal_s) * setup_probe.scale(),
        "wall_norm_s": (wall_s - steal_s) * probe.scale(),
        "cpu_norm_s": cpu_s * probe.scale(),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,     # ru_maxrss is in KiB on Linux
        "raw_setup_s": setup_s, "raw_wall_s": wall_s, "raw_cpu_s": cpu_s,
        "setup_steal_s": setup_steal_s, "steal_s": steal_s,
        "probes": len(probe.wall), "probe_median_s": statistics.median(probe.wall),
        "setup_probes": len(setup_probe.wall),
        "setup_probe_median_s": statistics.median(setup_probe.wall),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(_report_bytes(Path(args.out)))
        tracer.write(args.trace)
    Path(args.result).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main())
