"""pathgrad benchmark: runs one workload through the pathgrad CLI, checks
every output and prints the metrics.

    python3 perfbench/run.py --workload render-open --seed 1 --seconds 20 --trace 0

Run it from the repository root; the program is imported from ./src.  The
load is a closed loop from this one process: one CLI command at a time, the
next started when the previous one has exited.  `--trace 0` prints the
end-to-end metrics, `--trace 1` the per-layer metrics of a traced run.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the exit code is 1 if any
output check failed.  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata

import tracer
import workloads as wl

HERE = pathlib.Path(__file__).resolve().parent
SETUP_REPS = 5  # at least this many set-ups a run
COMMAND_TIMEOUT_S = 120.0

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "cpu_s": "s", "paths_per_s": "1/s",
    "iter_ms_p50": "ms", "iter_ms_tail": "ms", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "wavefront.trace_s": "s",
    "wavefront.vertices_per_s": "vertex/s",
    "wavefront.bytes_per_lane": "B/lane-computed",
    "wavefront.parallel_eff": "ratio",
    "path_engine.trace_image_s": "s",
    "path_engine.grad_extra_s": "s",
    "path_engine.escaped_frac": "ratio",
    "optimizer.evals": "count",
    "optimizer.eval_ms_p50": "ms",
    "optimizer.self_ms_p50": "ms",
    "scene_io.load_s": "s",
    "scene_io.read_s": "s",
    "scene_io.write_s": "s",
    "scene_io.bytes_written": "B",
    "validation.build_s": "s",
    "validation.compare_s": "s",
    "validation.path_sweeps_per_s": "sweep/s",
    "geometry.self_s": "s",
    "sampling.self_s": "s",
    "materials.self_s": "s",
    "cli.self_s": "s",
    "trace_overhead_frac": "ratio",
}


@dataclass
class Sample:
    """One CLI command: its timings, output and check verdict."""
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    iter_stamps: list
    error: str | None = None


def machine_facts():
    """Read-only facts about this machine, from this process and /proc."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
        with open("/proc/loadavg") as fh:
            load = [float(v) for v in fh.read().split()[:3]]
    except OSError:
        load = []
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "missing"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy,
            "loadavg_at_start": load}


def child_env(root):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_command(argv, env, stderr_path, timeout=COMMAND_TIMEOUT_S):
    """Run argv to completion; wall time, user+sys and peak RSS of its tree.

    os.wait4 reports the child's usage together with every descendant it
    reaped, so worker processes count in cpu_s, and its ru_maxrss is the
    largest RSS of any process in that tree.
    """
    t0 = time.perf_counter()
    with open(stderr_path, "wb") as err:
        # its own process group, so a kill reaches the worker processes too
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=env, text=True, start_new_session=True)

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    killer = threading.Timer(timeout, kill)
    killer.start()
    lines, stamps = [], []
    try:
        for line in proc.stdout:
            lines.append(line)
            if line.startswith("iter "):
                stamps.append(time.perf_counter())
    except BaseException:
        kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    sample = Sample(wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, "".join(lines), stamps)
    if proc.returncode != 0:
        sample.error = f"exit code {proc.returncode}: " + pathlib.Path(
            stderr_path).read_text(errors="replace").strip()[-300:]
    return sample


def closed_loop(argv_for, seconds, env, work, checker, before=None):
    """Commands back to back for about `seconds` (at least one).

    A command is started only while its expected end, from the median so
    far, lies less than half a command past the deadline.  `before`, if
    given, runs before each command, outside its timing.
    """
    samples = []
    deadline = time.perf_counter() + seconds
    while True:
        i = len(samples)
        if before is not None:
            before()
        wl.clear_outputs(work)
        s = run_command(argv_for(i), env, work / f"stderr{i}.txt")
        if s.error is None:
            s.error = checker(s)
        samples.append(s)
        typical = statistics.median(x.wall_s for x in samples)
        if time.perf_counter() + typical / 2 > deadline:
            return samples


def tail(values):
    """Highest percentile with at least ten samples beyond it, and its label.

    Below 21 samples that percentile would not lie above the median, so the
    maximum is reported instead.
    """
    v = sorted(values)
    n = len(v)
    if n > 20:
        return v[n - 11], 100.0 * (n - 10) / n
    return v[-1], 100.0


def end_to_end(name, ok, setup_s, tiny):
    walls = [s.wall_s for s in ok]
    if name == "optimize-box":
        iters = [1e3 * (b - a) for s in ok
                 for a, b in zip(s.iter_stamps, s.iter_stamps[1:])]
    else:
        iters = [1e3 * w for w in walls]
    paths = wl.paths_per_command(name, tiny)
    tail_ms, pct = tail(iters)
    notes = {"commands": len(ok), "iter_samples": len(iters),
             "iter_ms_tail_percentile": round(pct, 1)}
    return {
        "wall_s": statistics.median(walls),
        "setup_s": setup_s,
        "cpu_s": statistics.median(s.cpu_s for s in ok),
        "paths_per_s": statistics.median(paths / w for w in walls),
        "iter_ms_p50": statistics.median(iters),
        "iter_ms_tail": tail_ms,
        "peak_rss_mb": max(s.rss_mb for s in ok),
    }, notes


def time_setup(name, env, work, tiny):
    """One set-up in a fresh interpreter: import pathgrad, load the inputs."""
    argv = [sys.executable, str(HERE / "workloads.py"), "setup",
            "--workload", name, "--dir", str(work)] + (["--tiny"] if tiny else [])
    out = subprocess.run(argv, env=env, capture_output=True, text=True,
                         timeout=COMMAND_TIMEOUT_S, check=True)
    return float(out.stdout.split()[-1])


def cli_argv(cli):
    return [sys.executable, "-m", "pathgrad.cli", *cli]


def traced_run(seconds, env, work, cli, checker):
    """Untraced and traced commands, then probes: the per-layer metrics."""
    half = seconds / 2.0
    untraced = closed_loop(lambda i: cli_argv(cli), half, env, work, checker)
    capture = work / "capture.pkl"

    def spans(i):
        return work / f"spans{i}.json"

    def traced_argv(i):
        extra = ["--capture", str(capture)] if i == 0 else []
        return [sys.executable, str(HERE / "tracer.py"), "command",
                "--spans", str(spans(i)), *extra, "--", *cli]

    traced = closed_loop(traced_argv, half, env, work, checker)
    samples = untraced + traced
    ok_untraced = [s for s in untraced if s.error is None]
    ok_traced = [(i, s) for i, s in enumerate(traced) if s.error is None]
    if not ok_untraced or not ok_traced:
        return samples, None, None
    summaries = [json.loads(spans(i).read_text()) for i, _ in ok_traced]
    per_cmd = [tracer.layer_metrics(s) for s in summaries]
    metrics = {k: statistics.median(m[k] for m in per_cmd) for k in per_cmd[0]}
    probe_out = work / "probe.json"
    run = subprocess.run([sys.executable, str(HERE / "tracer.py"), "probe",
                          "--capture", str(capture), "--out", str(probe_out)],
                         env=env, capture_output=True, text=True,
                         timeout=COMMAND_TIMEOUT_S)
    if run.returncode != 0:
        raise RuntimeError("probe failed: " + run.stderr.strip()[-300:])
    metrics.update(json.loads(probe_out.read_text()))
    metrics["trace_overhead_frac"] = (
        statistics.median(s.wall_s for _, s in ok_traced)
        / statistics.median(s.wall_s for s in ok_untraced) - 1.0)
    return samples, metrics, summaries


def main(argv=None):
    ap = argparse.ArgumentParser(description="pathgrad benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for a smoke test; not for measuring")
    a = ap.parse_args(argv)
    # on SIGTERM unwind through the finally blocks: they stop the running
    # command and remove the work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = pathlib.Path.cwd()
    if not (root / "src" / "pathgrad" / "__init__.py").is_file():
        print("perfbench: no src/pathgrad here; run from the repository root",
              file=sys.stderr)
        return 2
    facts = machine_facts()
    env = child_env(root)
    work = root / ".perfbench_work" / f"{a.workload}-{a.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        subprocess.run([sys.executable, str(HERE / "workloads.py"), "generate",
                        "--workload", a.workload, "--seed", str(a.seed),
                        "--out", str(work)] + (["--tiny"] if a.tiny else []),
                       env=env, check=True, timeout=COMMAND_TIMEOUT_S)
        cli = wl.cli_args(a.workload, a.seed, work, a.tiny)

        def checker(s):
            return wl.check(a.workload, work, s.stdout, a.tiny)

        if a.trace:
            samples, values, summaries = traced_run(a.seconds, env, work, cli,
                                                    checker)
            units = PER_LAYER
            notes = {}
            if values is not None:
                doc = {"workload": a.workload, "seed": a.seed, "machine": facts,
                       "metrics": values, "commands": summaries}
                (root / ".perfbench_work" / f"last-trace-{a.workload}.json"
                 ).write_text(json.dumps(doc))
        else:
            # set-ups run between the commands, so they sample the same
            # stretch of time as the commands do
            setups = []

            def setup():
                setups.append(time_setup(a.workload, env, work, a.tiny))

            samples = closed_loop(lambda i: cli_argv(cli), a.seconds, env,
                                  work, checker, before=setup)
            while len(setups) < SETUP_REPS:
                setup()
            setup_s = statistics.median(setups)
            ok = [s for s in samples if s.error is None]
            values, notes = (end_to_end(a.workload, ok, setup_s, a.tiny)
                             if ok else (None, {}))
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [s for s in samples if s.error is not None]
    print("machine " + json.dumps(facts))
    for s in failed:
        print(f"FAILED: {s.error}")
    print(f"fail_frac {len(failed) / len(samples):.4f} "
          f"({len(failed)} of {len(samples)} commands)")
    if values is None:
        values = dict.fromkeys(units, 0.0)
    for k, v in notes.items():
        print(f"{k} {v}")
    for k, unit in units.items():
        print(f"{k} {values[k]:.6g} {unit}")
    print(json.dumps({
        "correct": not failed, "attempted": len(samples), "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": unit}
                    for k, unit in units.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
