"""Golden outputs: md5s of a small fixed set of results, held in golden.json.

The determinism contract is otherwise tested only within one commit (two
renders, two thread counts).  This test recomputes the md5 of each output
below and compares it with the manifest, so a change that alters output
bits shows up by name:
- the render of an open scene at 32x32x4, depth cap 8 (PFM);
- box gradients at 24x24x4, at 1 and 3 threads: cost, gradient and the 7
  gradient images, as float64 bytes;
- a 6-iteration `optimize --free 5,7` CSV at 16x16x4 on 2 threads;
- a `validate --grid 4` report;
- the nearest-hit distances and primitives of 4096 seeded rays in the open
  scene plus one tilted quad.
Radiance reads the geometry only through which primitive each ray hits, so
an output moves with the ray arithmetic's low bits only once a hit flips;
the last entry is the one that sees a reordered term in the intersection
kernels on a scene this small.

The bits rest on numpy's float64 kernels (sin, cos, log, power), whose SIMD
paths may differ by CPU and numpy version, so the manifest records the
numpy version it was written with.  A change that alters bits on purpose
regenerates the manifest, which prints every old -> new hash:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

import numpy as np

from pathgrad import _wavefront
from pathgrad.cli import main
from pathgrad.geometry import nearest_hits, prim_table
from pathgrad.path_engine import trace_image
from pathgrad.scene_io import build_cornell_box, parse_scene

MANIFEST = pathlib.Path(__file__).with_name("golden.json")

# floor, lamp, 12 spheres and 3 panels under an open sky (perfbench's
# render-open scene at workload seed 7, frozen here at 32x32)
OPEN_SCENE = """\
camera eye 0 220 -760 look 0 110 300 up 0 1 0 fov 55 res 32 32
material lamp emitter emission @1 base 15.0 absorb 1.0
material floor lambert ambient @6 diffuse @7 absorb 0.3
material ball phong ambient @2 diffuse @3 specular @4 exponent @5 absorb 0.3
material clay lambert ambient 0.05 diffuse 0.5 absorb 0.3
material panel lambert ambient 0.02 diffuse 0.6 absorb 0.3
quad p -700 0 -300 u 1400 0 0 v 0 0 1400 mat floor
quad p -160 620 150 u 320 0 0 v 0 0 320 mat lamp
sphere c -418.934 55.312 32.387 r 55.312 mat ball
sphere c -135.045 49.076 64.801 r 49.076 mat clay
sphere c 146.870 58.666 42.437 r 58.666 mat ball
sphere c 444.838 50.385 91.022 r 50.385 mat clay
sphere c -458.940 48.132 310.981 r 48.132 mat clay
sphere c -164.936 51.037 310.105 r 51.037 mat ball
sphere c 187.944 50.610 301.113 r 50.610 mat clay
sphere c 415.467 58.281 314.295 r 58.281 mat ball
sphere c -487.517 63.619 599.602 r 63.619 mat ball
sphere c -119.290 71.244 587.582 r 71.244 mat clay
sphere c 112.948 59.278 592.096 r 59.278 mat ball
sphere c 489.778 64.652 568.685 r 64.652 mat clay
quad p -500.705 0 863.160 u 191.483 0 -28.911 v 0 272.668 0 mat panel
quad p -166.388 0 831.707 u 216.892 0 0.503 v 0 237.292 0 mat panel
quad p 213.794 0 846.770 u 203.203 0 19.035 v 0 224.707 0 mat panel
theta 1.0 0.1 0.6 0.4 20.0 0.1 0.7
"""
# the one quad whose normal has no zero component, so every term of the
# plane distance counts
TILTED_QUAD = "quad p -300 40 350 u 420 60 -150 v -50 260 90 mat panel\n"
N_RAYS = 4096
# small enough that the 24x24x4 and 16x16x4 images span several blocks,
# so 3 and 2 threads start workers
SMALL_BLOCK_LANES = 128


def _md5(data):
    return hashlib.md5(data).hexdigest()


def _cli(argv):
    """Stdout of one successful pathgrad command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"pathgrad {' '.join(argv)} exited {code}")
    return out.getvalue()


def golden_outputs(work):
    """Entry name -> md5 of each golden output, computed in directory `work`."""
    work = pathlib.Path(work)
    got = {}
    scene_file = work / "open.txt"
    scene_file.write_text(OPEN_SCENE)
    _cli(["render", str(scene_file), "--spp", "4", "--seed", "7",
          "--max-depth", "8", "-o", str(work / "open")])
    got["render-open 32x32x4 pfm"] = _md5((work / "open.pfm").read_bytes())

    saved = _wavefront.BLOCK_LANES
    _wavefront.BLOCK_LANES = SMALL_BLOCK_LANES
    try:
        scene, theta = build_cornell_box(24, 24)
        for threads in (1, 3):
            res = trace_image(scene, theta, spp=4, seed=7,
                              target=theta.with_control(7, 0.55),
                              compute_gradients=True, threads=threads,
                              want_grad_images=True)
            name = f"gradients-box 24x24x4 threads {threads}"
            got[f"{name} cost"] = _md5(np.float64(res.cost).tobytes())
            got[f"{name} gradient"] = _md5(res.grad.as_array().tobytes())
            for k, image in enumerate(res.grad_images, start=1):
                got[f"{name} image {k}"] = _md5(image.tobytes())
        csv = work / "optimize.csv"
        _cli(["optimize", "--cornell", "--width", "16", "--height", "16",
              "--spp", "4", "--seed", "7", "--threads", "2",
              "--theta", "1,.1,.6,.4,30,.1,.3", "--target-theta", "1,.1,.6,.4,20,.1,.7",
              "--free", "5,7", "--lr", "4e-5", "--iterations", "6", "--csv", str(csv)])
        got["optimize-box 16x16x4 free 5,7 csv"] = _md5(csv.read_bytes())
    finally:
        _wavefront.BLOCK_LANES = saved

    report = _cli(["validate", "--cornell", "--width", "16", "--height", "16",
                   "--seed", "7", "--grid", "4"])
    got["validate-box 16x16 grid 4 stdout"] = _md5(report.encode())

    prims = prim_table(parse_scene(OPEN_SCENE + TILTED_QUAD))
    u = np.random.default_rng(7).random((6, N_RAYS))
    O = [-800.0 + 1600.0 * u[0], 700.0 * u[1], -400.0 + 1400.0 * u[2]]
    D = 2.0 * u[3:] - 1.0
    D /= np.sqrt(np.sum(D * D, axis=0))
    t, prim = nearest_hits(prims, O, *D)
    got["nearest hits open scene + tilted quad"] = _md5(t.tobytes() + prim.tobytes())
    return got


def test_outputs_match_golden_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    got = golden_outputs(tmp_path)
    assert set(got) == set(manifest["md5"])
    changed = [name for name, md5 in got.items() if md5 != manifest["md5"][name]]
    assert not changed, (
        f"output bits changed: {'; '.join(changed)} (manifest written with "
        f"numpy {manifest['numpy']}, running numpy {np.__version__}); if on "
        f"purpose, regenerate with `python tests/test_golden.py --write`")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    old = json.loads(MANIFEST.read_text())["md5"] if MANIFEST.exists() else {}
    with tempfile.TemporaryDirectory() as work:
        new = golden_outputs(work)
    MANIFEST.write_text(json.dumps({"numpy": np.__version__, "md5": new},
                                   indent=2) + "\n")
    for name, md5 in new.items():
        if old.get(name) != md5:
            print(f"{name}: {old.get(name)} -> {md5}")
