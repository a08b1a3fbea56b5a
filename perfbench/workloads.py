"""Workload definitions: input generation, CLI command lines and output checks.

Each workload is keyed by a workload seed.  `generate` writes every input the
program receives (scene text, target PFM) plus the reference outputs the
checks compare against, before any timing starts; the same seed gives
byte-identical inputs.  References are computed through the library API in a
separate process, so a check compares the CLI against an independent call.

Run as a script to generate one workload's inputs or to time one set-up:

    PYTHONPATH=src python3 perfbench/workloads.py generate --workload render-open --seed 1 --out DIR
    PYTHONPATH=src python3 perfbench/workloads.py setup --workload render-open --dir DIR

`pathgrad` is imported lazily, so the `setup` timer sees the import.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import random
import struct
import sys
import time
from dataclasses import dataclass

BOX_THETA = (1.0, 0.1, 0.6, 0.4, 20.0, 0.1, 0.7)
OPT_START_THETA = (1.0, 0.1, 0.6, 0.4, 20.0, 0.1, 0.3)
OPT_TRUE_THETA7 = 0.7
OPT_THETA7_TOL = 0.02
OPT_LR = 4e-5
# the optimizer's stopping rule would end at iteration 46..55 depending on
# the seed; a fixed budget keeps the work per command seed-independent,
# and theta7 is within 0.02 of 0.7 by iteration 30 on every seed tried
OPT_ITERATIONS = 40
# cost and gradients printed by the CLI (2 workers) against the library
# reference (1 worker): the reductions associate differently (~1e-12) and
# the CLI prints 13 significant digits
GRAD_RTOL = 1e-9
# sum of a float32 gradient image against the float64 gradient it splits
GRAD_IMAGE_RTOL = 1e-4


@dataclass(frozen=True)
class Size:
    width: int
    height: int
    spp: int
    threads: int
    grid: int = 0
    max_depth: int = 16


def _tiny(size):
    return Size(min(size.width, 16), min(size.height, 16), 4, size.threads,
                min(size.grid, 4), size.max_depth)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: Size

    def sized(self, tiny):
        if not tiny:
            return self.size
        if self.name == "optimize-box":
            # the step size is tuned to 32x32; keep it and cut spp only
            return Size(self.size.width, self.size.height, 4, self.size.threads)
        return _tiny(self.size)


WORKLOADS = {w.name: w for w in (
    Workload("render-open",
             "open scene, 1 worker: escaping lanes and many primitives stress "
             "the forward tracer alone; no backward sweep, no pool",
             # the tracer loops over depth until the longest path ends; in
             # the open scene that is 9..15 steps by seed, which swung wall
             # time by 30%, while dozens of lanes reach depth 8 on every seed
             Size(128, 128, 16, 1, max_depth=8)),
    Workload("gradients-box",
             "closed box, 2 workers, 16 images out: forward plus backward "
             "sweep, reductions, worker pool and gradient image writers",
             Size(128, 128, 16, 2)),
    Workload("optimize-box",
             "gate-5 inverse problem, 41 small gradient calls: per-call fixed "
             "costs and re-tracing identical paths dominate",
             Size(32, 32, 16, 2)),
    Workload("validate-box",
             "frozen-path FD check on 4096 paths: the only workload on the "
             "scalar engine and the validation module",
             Size(128, 128, 16, 1, grid=64)),
)}


def tracer_seed(seed):
    return seed % (2 ** 31)


def _theta_text(theta):
    return ",".join(repr(float(v)) for v in theta)


# ---------------------------------------------------------------------------
# open scene

def open_scene_text(seed, width, height):
    """Floor, lamp, 12 spheres and 3 upright panels, no enclosing walls.

    The seed jitters positions and sizes inside fixed cells, so the count of
    primitives and the share of sky in view stay the same across seeds.
    """
    rng = random.Random(f"open-scene-{seed}")

    def f(x):
        return f"{x:.3f}"

    lines = [
        f"camera eye 0 220 -760 look 0 110 300 up 0 1 0 fov 55 res {width} {height}",
        "material lamp emitter emission @1 base 15.0 absorb 1.0",
        "material floor lambert ambient @6 diffuse @7 absorb 0.3",
        "material ball phong ambient @2 diffuse @3 specular @4 exponent @5 absorb 0.3",
        "material clay lambert ambient 0.05 diffuse 0.5 absorb 0.3",
        "material panel lambert ambient 0.02 diffuse 0.6 absorb 0.3",
        "quad p -700 0 -300 u 1400 0 0 v 0 0 1400 mat floor",
        "quad p -160 620 150 u 320 0 0 v 0 0 320 mat lamp",
    ]
    for row in range(3):
        for col in range(4):
            r = rng.uniform(48.0, 72.0)
            x = -450.0 + 300.0 * col + rng.uniform(-40.0, 40.0)
            z = 60.0 + 260.0 * row + rng.uniform(-40.0, 40.0)
            mat = "ball" if (row + col) % 2 == 0 else "clay"
            lines.append(f"sphere c {f(x)} {f(r)} {f(z)} r {f(r)} mat {mat}")
    for i in range(3):
        w = rng.uniform(180.0, 240.0)
        h = rng.uniform(200.0, 280.0)
        x = -520.0 + 380.0 * i + rng.uniform(-30.0, 30.0)
        z = 860.0 + rng.uniform(-40.0, 40.0)
        dz = rng.uniform(-60.0, 60.0)
        lines.append(f"quad p {f(x)} 0 {f(z)} u {f(w)} 0 {f(dz)} v 0 {f(h)} 0 mat panel")
    lines.append("theta " + " ".join(repr(v) for v in BOX_THETA))
    return "\n".join(lines) + "\n"


def target_theta7(seed):
    """Target wall diffuse for gradients-box: 0.7 moved by 0.05..0.15."""
    rng = random.Random(f"gradients-target-{seed}")
    return OPT_TRUE_THETA7 + rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.15)


# ---------------------------------------------------------------------------
# generation (runs in its own process; imports pathgrad)

def generate(name, seed, out, tiny=False):
    """Write inputs and reference outputs for one workload into `out`."""
    from pathgrad.materials import ControlVector
    from pathgrad.optimizer import OptimConfig, optimize
    from pathgrad.path_engine import trace_image
    from pathgrad.scene_io import build_cornell_box, write_pfm

    w = WORKLOADS[name]
    size = w.sized(tiny)
    out = pathlib.Path(out)
    out.mkdir(parents=True, exist_ok=True)
    tseed = tracer_seed(seed)
    ref = {}
    if name == "render-open":
        from pathgrad.scene_io import parse_scene
        text = open_scene_text(seed, size.width, size.height)
        (out / "scene.txt").write_text(text)
        scene = parse_scene(text)
        # the CLI renders with 1 worker; pixels must not depend on the count
        img = trace_image(scene, scene.theta, spp=size.spp, seed=tseed,
                          threads=2, max_depth=size.max_depth).image
        (out / "ref.pfm").write_bytes(write_pfm(img))
    elif name == "gradients-box":
        scene, theta = build_cornell_box(size.width, size.height)
        truth = theta.with_control(7, target_theta7(seed))
        target = trace_image(scene, truth, spp=size.spp, seed=tseed,
                             threads=size.threads, max_depth=size.max_depth).image
        (out / "target.pfm").write_bytes(write_pfm(target))
        res = trace_image(scene, theta, spp=size.spp, seed=tseed,
                          target=target, compute_gradients=True, threads=1,
                          max_depth=size.max_depth)
        (out / "ref.pfm").write_bytes(write_pfm(res.image))
        ref = {"cost": res.cost, "grad": list(res.grad.as_array())}
    elif name == "optimize-box":
        scene, _ = build_cornell_box(size.width, size.height)
        theta = ControlVector.of(*OPT_START_THETA)
        target = trace_image(scene, ControlVector.of(*BOX_THETA), spp=size.spp,
                             seed=tseed, threads=size.threads,
                             max_depth=size.max_depth).image
        config = OptimConfig(learning_rate=OPT_LR, n_iterations=OPT_ITERATIONS,
                             spp=size.spp, seed=tseed, max_depth=size.max_depth,
                             threads=size.threads).with_frozen(theta, {7})
        (out / "ref.csv").write_text(optimize(scene, theta, target, config).to_csv())
    (out / "ref.json").write_text(json.dumps(ref))


def cli_args(name, seed, d, tiny=False):
    """The pathgrad argument list for one command of the workload."""
    w = WORKLOADS[name]
    s = w.sized(tiny)
    d = pathlib.Path(d)
    common = ["--width", str(s.width), "--height", str(s.height),
              "--spp", str(s.spp), "--seed", str(tracer_seed(seed)),
              "--threads", str(s.threads), "--max-depth", str(s.max_depth)]
    if name == "render-open":
        return ["render", str(d / "scene.txt"), *common, "-o", str(d / "out")]
    if name == "gradients-box":
        return ["gradients", "--cornell", *common,
                "--target", str(d / "target.pfm"), "-o", str(d / "out")]
    if name == "optimize-box":
        return ["optimize", "--cornell", *common,
                "--theta", _theta_text(OPT_START_THETA),
                "--target-theta", _theta_text(BOX_THETA), "--free", "7",
                "--lr", repr(OPT_LR), "--iterations", str(OPT_ITERATIONS),
                "--csv", str(d / "out.csv")]
    return ["validate", "--cornell", *common, "--grid", str(s.grid)]


def paths_per_command(name, tiny=False):
    """Camera paths one command traces (validate: the frozen lattice)."""
    s = WORKLOADS[name].sized(tiny)
    if name == "validate-box":
        return s.grid * s.grid
    lanes = s.width * s.height * s.spp
    if name == "optimize-box":
        return lanes * (OPT_ITERATIONS + 2)  # target render + 41 evaluations
    return lanes


# ---------------------------------------------------------------------------
# output checks (no pathgrad import: an independent reader)

def read_pfm(data):
    """(width, height, values) of a little-endian grayscale PFM."""
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"Pf" or float(parts[2]) >= 0:
        raise ValueError("not a little-endian grayscale PFM")
    w, h = (int(v) for v in parts[1].split())
    if len(parts[3]) != 4 * w * h:
        raise ValueError(f"PFM body is {len(parts[3])} bytes, expected {4 * w * h}")
    return w, h, struct.unpack(f"<{w * h}f", parts[3])


def _check_image(path, size):
    try:
        w, h, vals = read_pfm(path.read_bytes())
    except ValueError as exc:
        raise ValueError(f"{path.name}: {exc}") from None
    if (w, h) != (size.width, size.height):
        raise ValueError(f"{path.name} is {w}x{h}, expected {size.width}x{size.height}")
    if not all(math.isfinite(v) for v in vals):
        raise ValueError(f"{path.name} has non-finite pixels")
    return vals


def _check_ppm(path, size):
    head = f"P6\n{size.width} {size.height}\n255\n".encode()
    data = path.read_bytes()
    if not data.startswith(head) or len(data) != len(head) + 3 * size.width * size.height:
        raise ValueError(f"{path.name} is not a {size.width}x{size.height} P6 image")


def _printed(stdout, prefix):
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):])
    raise ValueError(f"no '{prefix}' line in the output")


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-300


def check(name, d, stdout, tiny=False):
    """None if a command's outputs are correct, else the reason.

    The caller has already failed a command that exited non-zero.
    """
    d = pathlib.Path(d)
    size = WORKLOADS[name].sized(tiny)
    try:
        if name == "render-open":
            _check_image(d / "out.pfm", size)
            _check_ppm(d / "out.ppm", size)
            if (d / "out.pfm").read_bytes() != (d / "ref.pfm").read_bytes():
                return "render differs from the reference bytes"
        elif name == "gradients-box":
            ref = json.loads((d / "ref.json").read_text())
            cost = _printed(stdout, "cost J = ")
            if not _close(cost, ref["cost"], GRAD_RTOL):
                return f"cost {cost!r} != reference {ref['cost']!r}"
            _check_image(d / "out.pfm", size)
            _check_ppm(d / "out.ppm", size)
            if (d / "out.pfm").read_bytes() != (d / "ref.pfm").read_bytes():
                return "rendered image differs from the reference bytes"
            for k in range(1, 8):
                g = _printed(stdout, f"dJ/dtheta{k} = ")
                if not _close(g, ref["grad"][k - 1], GRAD_RTOL):
                    return f"dJ/dtheta{k} {g!r} != reference {ref['grad'][k - 1]!r}"
                vals = _check_image(d / f"out{k}.pfm", size)
                _check_ppm(d / f"out{k}.ppm", size)
                scale = math.fsum(abs(v) for v in vals)
                if abs(math.fsum(vals) - g) > GRAD_IMAGE_RTOL * scale + 1e-300:
                    return f"gradient image {k} does not sum to dJ/dtheta{k}"
        elif name == "optimize-box":
            csv = (d / "out.csv").read_text()
            if csv != (d / "ref.csv").read_text():
                return "trajectory CSV differs from the reference"
            theta7 = float(csv.strip().splitlines()[-1].split(",")[-1])
            if abs(theta7 - OPT_TRUE_THETA7) > OPT_THETA7_TOL:
                return f"final theta7 {theta7} not within {OPT_THETA7_TOL} of 0.7"
        else:
            if f"ensemble: {size.grid * size.grid} frozen path(s)" not in stdout:
                return "ensemble line missing"
            if "RESULT: PASS" not in stdout:
                return "verdict is not RESULT: PASS"
    except (OSError, ValueError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def clear_outputs(d):
    for p in pathlib.Path(d).glob("out*"):
        p.unlink()


# ---------------------------------------------------------------------------
# set-up timing (fresh interpreter per call)

def time_setup(name, d, tiny=False):
    """Seconds to import pathgrad and load the scene and target."""
    t0 = time.perf_counter()
    import pathgrad
    size = WORKLOADS[name].sized(tiny)
    d = pathlib.Path(d)
    if name == "render-open":
        pathgrad.parse_scene((d / "scene.txt").read_text())
    else:
        pathgrad.build_cornell_box(size.width, size.height)
    if name == "gradients-box":
        pathgrad.read_pfm((d / "target.pfm").read_bytes())
    return time.perf_counter() - t0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("action", choices=("generate", "setup"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", "--dir", dest="dir", required=True)
    ap.add_argument("--tiny", action="store_true")
    a = ap.parse_args(argv)
    if a.action == "generate":
        generate(a.workload, a.seed, a.dir, a.tiny)
    else:
        print(repr(time_setup(a.workload, a.dir, a.tiny)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
