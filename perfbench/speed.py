"""Host-speed sampler: scales CPU costs to a reference host speed.

On a shared virtual machine the same code takes more CPU time when the
neighbours load the host's caches and memory bus, and that state lasts for
minutes.  Runs made a few minutes apart then differ by a third on every CPU
figure.  This module runs a fixed pure-Python job in a child process every
few tens of milliseconds, for the whole run, and records its CPU time.  A
cost measured over an interval is scaled by ``REF_JOB_MS / median job time``
over that interval, so it reads as the cost on a host where the job takes
``REF_JOB_MS``.  The job uses no engine code, so a change to the engine
moves the scaled costs and leaves the scale alone.  ``CpuMeter`` measures a
cost: the machine's busy CPU seconds over an interval (every process, steal
excluded), less the sampler's own, at reference speed.

    python3 perfbench/speed.py OUT   # samples until its stdin closes

Each line of OUT is ``<CLOCK_MONOTONIC s> <job CPU ns> <sampler CPU ns>``.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time

REF_JOB_MS = 0.6  # job CPU time on the reference host
PERIOD_S = 0.025  # pause between jobs
MIN_WINDOW_S = 2.0  # intervals shorter than this are widened around their centre

WORDS = [f"w{i * 7919 % 100003}" for i in range(4000)]


def job() -> None:
    """Interpreter-bound work (dict updates and a keyed sort), like most of
    the engine's per-query and per-batch Python."""
    d: dict = {}
    for w in WORDS:
        d[w] = d.get(w, 0) + len(w)
    sorted(d, key=d.get)


def sample(out_path: str) -> None:
    stop = threading.Event()
    threading.Thread(target=lambda: (sys.stdin.read(), stop.set()), daemon=True).start()
    with open(out_path, "w", buffering=1) as out:
        while not stop.is_set():
            t0 = time.thread_time_ns()
            job()
            job_ns = time.thread_time_ns() - t0
            out.write(f"{time.monotonic():.6f} {job_ns} {time.process_time_ns()}\n")
            stop.wait(PERIOD_S)


class SpeedMeter:
    """Runs the sampler for the life of a run."""

    def __init__(self, run_dir: str):
        self.path = os.path.join(run_dir, "speed.txt")
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), self.path],
                                     stdin=subprocess.PIPE)

    def _samples(self, t0: float, t1: float) -> list[tuple[float, int, int]]:
        if t1 - t0 < MIN_WINDOW_S:
            mid = (t0 + t1) / 2
            t0, t1 = mid - MIN_WINDOW_S / 2, mid + MIN_WINDOW_S / 2
        with open(self.path) as f:
            rows = [line.split() for line in f]
        return [(float(t), int(j), int(c)) for t, j, c in (r for r in rows if len(r) == 3)
                if t0 <= float(t) <= t1]

    def scale(self, t0: float, t1: float) -> float:
        """``REF_JOB_MS`` / median job CPU time over ``[t0, t1]`` (monotonic s)."""
        jobs = [j for _, j, _ in self._samples(t0, t1)]
        return REF_JOB_MS * 1e6 / statistics.median(jobs) if jobs else 1.0

    def own_cpu_s(self, t0: float, t1: float) -> float:
        """CPU seconds the sampler itself used over ``[t0, t1]``."""
        s = [c for t, _, c in self._samples(t0, t1) if t0 <= t <= t1]
        return (s[-1] - s[0]) / 1e9 if len(s) > 1 else 0.0

    def samples_ms(self) -> list[float]:
        return [j / 1e6 for _, j, _ in self._samples(0.0, float("inf"))]

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class CpuMeter:
    """Context manager: machine CPU over the block, at reference speed.

    ``cpu_s``: busy CPU seconds of every process on the machine (user,
    nice, system, irq, softirq; steal excluded) less the sampler's own,
    times ``SpeedMeter.scale``; ``raw_cpu_s`` is the same unscaled;
    ``steal_pct`` the share of CPU time the hypervisor took."""

    TICK = os.sysconf("SC_CLK_TCK")

    def __init__(self, speed: SpeedMeter):
        self.speed = speed

    @staticmethod
    def _ticks() -> list[int]:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]

    def __enter__(self):
        self.t0, self.c0 = time.monotonic(), self._ticks()
        return self

    def __exit__(self, *exc):
        c1, t1 = self._ticks(), time.monotonic()
        user, nice, system, idle, iowait, irq, softirq, steal = (b - a for a, b in zip(self.c0, c1))
        busy = user + nice + system + irq + softirq
        total = busy + idle + iowait + steal
        self.steal_pct = 100 * steal / total if total else 0.0
        self.raw_cpu_s = busy / self.TICK - self.speed.own_cpu_s(self.t0, t1)
        self.cpu_s = self.raw_cpu_s * self.speed.scale(self.t0, t1)
        self.wall_s = t1 - self.t0


if __name__ == "__main__":
    sample(sys.argv[1])
