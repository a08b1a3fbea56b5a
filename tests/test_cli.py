"""Command-line interface: exit codes, outputs, and printed contracts."""

import os
import subprocess
import sys

import numpy as np
import pytest

from pathgrad.cli import main
from pathgrad.scene_io import (ScalarImage, parse_scene, read_pfm, write_pfm)

CORNELL_SMALL = ["--cornell", "--width", "8", "--height", "8", "--spp", "2"]

SCENE_TEXT = """\
camera eye 0 0 0 look 0 0 1 up 0 1 0 fov 60 res 8 8
material lamp emitter emission @1 base 5.0 absorb 1.0
material wall lambert ambient @6 diffuse @7 absorb 0.3
quad p -2 -2 4 u 4 0 0 v 0 4 0 mat wall
quad p -0.5 1.8 1 u 1 0 0 v 0 0 1 mat lamp
theta 1 0.1 0.6 0.4 20 0.1 0.7
"""


def test_render_writes_pfm_and_ppm(tmp_path, capsys):
    out = tmp_path / "img"
    code = main(["render", *CORNELL_SMALL, "--seed", "1", "-o", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "paths traced 128" in stdout
    assert "mean depth" in stdout and "radiance mean" in stdout
    img = read_pfm((tmp_path / "img.pfm").read_bytes())
    assert (img.width, img.height) == (8, 8)
    assert (tmp_path / "img.ppm").read_bytes().startswith(b"P6\n8 8\n255\n")


def test_render_thread_count_keeps_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["render", *CORNELL_SMALL, "-o", str(a)]) == 0
    assert main(["render", *CORNELL_SMALL, "--threads", "4", "-o", str(b)]) == 0
    assert (tmp_path / "a.pfm").read_bytes() == (tmp_path / "b.pfm").read_bytes()


def test_render_scene_file_with_overrides(tmp_path, capsys):
    scene_file = tmp_path / "scene.txt"
    scene_file.write_text(SCENE_TEXT)
    out = tmp_path / "r"
    code = main(["render", str(scene_file), "--width", "4", "--height", "6",
                 "--spp", "1", "-o", str(out)])
    assert code == 0
    img = read_pfm((tmp_path / "r.pfm").read_bytes())
    assert (img.width, img.height) == (4, 6)


@pytest.mark.parametrize("argv", [
    ["render"],                                    # neither scene nor --cornell
    ["render", "--cornell", "--theta", "1,2,3"],   # wrong arity
    ["render", "no-such-file.scn"],                # missing path
    ["gradients", "--cornell"],                    # no target source
    ["gradients", "--cornell", "--target-self"],   # removed: --target-theta does its job
    ["gradients", "--cornell", "--target-theta", "1,2,3"],  # wrong arity
    ["optimize", "--cornell"],                     # no target source
    ["optimize", "--cornell", "--target-theta", "1,1,1,1,1,1,1",
     "--free", "9"],                               # control out of range
    ["optimize", "--cornell", "--target-theta", "1,1,1,1,1,1,1",
     "--free", "a"],                               # not a control number
    ["optimize", "--cornell", "--target-theta", "1,1,1,1,1,1,1",
     "--free", ""],                                # nothing left to optimize
    ["dump-path", "--cornell", "--pixel", "99,0"],  # outside the raster
    ["dump-path", "--cornell", "--pixel", "zap"],
    ["render", "--cornell", "--spp", "0"],         # no samples
    ["render", "--cornell", "--max-depth", "0"],   # no path vertex
    ["render", "--cornell", "--max-depth", "-3"],
    ["dump-path", "--cornell", "--max-depth", "0"],
    ["dump-path", "--cornell", "--sample", "-1"],  # a sample no render traces
    ["dump-path", "--cornell", "--width", "8", "--height", "8", "--spp", "999",
     "--threads", "7"],                            # options dump-path would ignore
    ["no-such-command"],
    ["render", "--cornell", "--width", "0"],       # empty raster
    ["render", "--cornell", "--height", "0"],
    ["render", "--cornell", "--threads", "0"],     # no worker
    ["optimize", "--cornell", "--target-theta", "1,1,1,1,1,1,1",
     "--iterations", "-1"],                        # no iterate
    ["validate", "--cornell", "--grid", "0"],      # no frozen path
    ["validate", "--cornell", "--grid", "-3"],
    ["validate", "--cornell", "--width", "8", "--height", "8",
     "--grid", "20"],                              # pixels frozen twice
    ["validate", "--cornell", "--eps", "0"],       # no difference step
    ["validate", "--cornell", "--eps", "-1e-4"],
    ["validate", "--cornell", "--eps", "nan"],
    ["validate", "--cornell", "--single-path"],    # the same path as --grid 1
    ["adjoint-check", "--dim", "0"],               # empty state
    ["adjoint-check", "--n-controls", "0"],
    ["adjoint-check", "--trials", "0"],            # checks nothing
    ["adjoint-check", "--rho", "1"],               # not contractive
    ["adjoint-check", "--rho", "nan"],
    ["adjoint-check", "--rho", "-0.5"],
    ["optimize", "--cornell", "--target-theta", "1,1,1,1,1,1,1",
     "--lr", "nan"],                               # non-finite step size
    ["optimize", "--cornell", "--target-theta", "1,1,1,1,1,1,1",
     "--lr", "inf"],
    ["optimize", "--cornell", "--target-theta", "1,1,1,1,1,1,1",
     "--reg", "nan"],
    ["optimize", "--cornell", "--target-theta", "1,1,1,1,1,1,1",
     "--reg", "-inf"],
    ["gradients", "--cornell", "--width", "8", "--height", "8", "--spp", "1",
     "--target", "t8.pfm", "--target-theta", "1,2,3"],  # two target sources
    ["optimize", "--cornell", "--width", "8", "--height", "8", "--spp", "1",
     "--target", "t8.pfm", "--target-theta", "1,1,1,1,1,1,1"],
])
def test_usage_errors_exit_one(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # a valid target file, so an argv naming it fails for its own reason
    zero = ScalarImage(8, 8, np.zeros((8, 8), np.float32))
    (tmp_path / "t8.pfm").write_bytes(write_pfm(zero))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("free", ["a", "", " , ", "5,x", "0", "9", "5 8"])
def test_free_errors_name_the_option(free, capsys):
    assert main(["optimize", *CORNELL_SMALL, "--target-theta", "1,1,1,1,1,1,1",
                 "--free", free]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "'--free'" in captured.err
    assert len(captured.err.splitlines()) == 1


def test_bare_command_shows_help(capsys):
    assert main([]) == 1
    err = capsys.readouterr().err
    assert err.startswith("Usage: ") and "adjoint-check" in err


@pytest.mark.parametrize("argv", [
    ["render", "--cornell", "--width", "8", "--height", "8", "--spp", "1",
     "--theta", "nan,.1,.6,.4,20,.1,.7"],          # was an all-NaN image
    ["render", "--cornell", "--width", "2", "--height", "2", "--spp", "1",
     "--theta", "1,.1,.6,.4,-1,.1,.7"],            # no lane samples the lobe here
    ["gradients", *CORNELL_SMALL, "--target", "nan.pfm"],
    ["render", "--cornell", "--width", "8", "--height", "8", "--spp", "1",
     "--theta", "1e300,.1,.6,.4,20,.1,.7"],        # was an inf image
    ["render", "--cornell", "--width", "8", "--height", "8", "--spp", "1",
     "--theta", "1,.1,.6,.4,20,1e308,1e308"],      # was overflow warnings and an inf image
    ["gradients", *CORNELL_SMALL, "--target-theta", "1e200,.1,.6,.4,20,.1,.7",
     "--theta", "1e200,.1,.6,.4,20,.1,.7"],        # was an inf cost and gradient
    ["validate", "--cornell", "--width", "8", "--height", "8", "--grid", "2",
     "--theta", "1,.1,.6,.4,20,1e308,1e308"],      # was warnings, nan rows and exit 2
    ["render", "--cornell", "--width", "2049", "--height", "2048"],  # over the pixel cap
    ["gradients", "--cornell", "--width", "100000", "--height", "100000",
     "--target-theta", "1,1,1,1,1,1,1"],           # was allocated until memory ran out
    ["optimize", "--cornell", "--width", "100000", "--height", "100000",
     "--target-theta", "1,1,1,1,1,1,1", "--csv", "t.csv"],
])
def test_domain_errors_exit_one_with_one_line(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    data = np.zeros((8, 8), dtype=np.float32)
    data[3, 3] = np.nan
    (tmp_path / "nan.pfm").write_bytes(write_pfm(ScalarImage(8, 8, data)))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert [f.name for f in tmp_path.iterdir()] == ["nan.pfm"]  # no output written


@pytest.mark.parametrize("bad_line", [
    "material lamp emitter emission 1 base nan absorb 1.0",  # was a NaN image
    "quad p -1 -1 2 u 4 0 0 v 8 0 0 mat wall",                # parallel edges
    "camera eye 0 0 0 look 0 0 1 up 0 1 0 fov 60 res 8 8",    # second camera
    "quad p 0 0 0 u 1e200 0 0 v 0 0 1e200 mat wall",          # was NaN warnings
])
def test_unrenderable_scene_exits_one_with_one_line(bad_line, tmp_path, capsys):
    scene_file = tmp_path / "scene.txt"
    scene_file.write_text(SCENE_TEXT + bad_line + "\n")
    out = tmp_path / "r"
    assert main(["render", str(scene_file), "--spp", "1", "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [captured.err.rstrip("\n")]
    assert captured.err.startswith("scene error: line 7: ")
    assert not (tmp_path / "r.pfm").exists()


def test_render_rejects_scene_plus_cornell(tmp_path):
    scene_file = tmp_path / "scene.txt"
    scene_file.write_text(SCENE_TEXT)
    assert main(["render", str(scene_file), "--cornell",
                 "-o", str(tmp_path / "x")]) == 1


def test_malformed_scene_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("camera eye 0 0 0 look 0 0 1 up 0 1 0 fov 60 res 2 2\n"
                   "sphere c 0 0 1 r -1 mat none\n")
    assert main(["render", str(bad), "-o", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def test_gradients_self_target_is_exactly_zero(tmp_path, capsys):
    out = tmp_path / "g"
    code = main(["gradients", *CORNELL_SMALL, "--target-theta", "1,.1,.6,.4,20,.1,.7",
                 "-o", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "cost J = 0.000000000000e+00" in stdout
    for k in range(1, 8):
        assert f"dJ/dtheta{k} = +0.000000000000e+00" in stdout
    for suffix in [".pfm", ".ppm"] + [f"{k}{e}" for k in range(1, 8)
                                      for e in (".pfm", ".ppm")]:
        assert (tmp_path / ("g" + suffix)).exists()
    g1 = read_pfm((tmp_path / "g1.pfm").read_bytes())
    assert np.all(g1.data == 0.0)


@pytest.mark.parametrize("command", ["gradients", "optimize"])
def test_target_comes_from_a_file_or_from_controls(command, tmp_path, capsys):
    target = tmp_path / "t8.pfm"
    target.write_bytes(write_pfm(ScalarImage(8, 8, np.zeros((8, 8), np.float32))))
    for sources in ([], ["--target", str(target), "--target-theta", "1,.1,.6,.4,20,.1,.7"]):
        assert main([command, *CORNELL_SMALL, *sources]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: provide exactly one of --target / --target-theta\n"


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("truth, traces", [
    ("1,.1,.6,.4,20,.1,.7", 1),         # the current theta
    ("1,.1,.6,.4,20,.1,.9", 1),         # another wall diffuse: the same paths
    ("1,.1,.6,.4,35,.1,.7", 2),         # another exponent: other paths
])
def test_gradients_self_target_renders_in_the_gradient_session(
        monkeypatch, tmp_path, capsys, threads, truth, traces):
    from pathgrad import _wavefront
    monkeypatch.setattr(_wavefront, "BLOCK_LANES", 16)  # 8 blocks: a chunk per thread or core
    sessions = []

    class Recording(_wavefront.Session):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sessions.append(self)

    monkeypatch.setattr(_wavefront, "Session", Recording)
    argv = ["gradients", *CORNELL_SMALL, "--threads", str(threads), "--target-theta", truth]
    assert main([*argv, "-o", str(tmp_path / "g")]) == 0
    assert len(sessions) == 1 and sessions[0].traces == traces
    assert len(sessions[0]._chunks) == min(threads, os.cpu_count())
    # the same figures as a target rendered in its own run
    monkeypatch.undo()
    target = tmp_path / "t"
    assert main(["render", *CORNELL_SMALL, "--threads", str(threads), "--theta", truth,
                 "-o", str(target)]) == 0
    capsys.readouterr()
    assert main(["gradients", *CORNELL_SMALL, "--threads", str(threads),
                 "--target", str(tmp_path / "t.pfm"), "-o", str(tmp_path / "h")]) == 0
    want = capsys.readouterr().out.replace(str(tmp_path / "h"), str(tmp_path / "g"))
    assert main([*argv, "-o", str(tmp_path / "g")]) == 0
    assert capsys.readouterr().out == want
    for suffix in [".pfm"] + [f"{k}.pfm" for k in range(1, 8)]:
        assert ((tmp_path / ("g" + suffix)).read_bytes()
                == (tmp_path / ("h" + suffix)).read_bytes())


def test_gradients_against_target_file(tmp_path, capsys):
    target = tmp_path / "t"
    assert main(["render", *CORNELL_SMALL, "--theta",
                 "1,0.1,0.6,0.4,20,0.1,0.6", "-o", str(target)]) == 0
    capsys.readouterr()
    code = main(["gradients", *CORNELL_SMALL, "--target",
                 str(tmp_path / "t.pfm"), "-o", str(tmp_path / "g")])
    assert code == 0
    stdout = capsys.readouterr().out
    cost_line = [ln for ln in stdout.splitlines() if ln.startswith("cost J =")]
    assert float(cost_line[0].split("=")[1]) > 0.0
    # a mismatched diffuse leaves a nonzero diffuse-control gradient
    g7 = [ln for ln in stdout.splitlines() if ln.startswith("dJ/dtheta7")]
    assert float(g7[0].split("=")[1]) != 0.0


def test_validate_passes_at_decisive_step(capsys):
    code = main(["validate", "--cornell", "--width", "16", "--height", "16",
                 "--grid", "2", "--eps", "1e-4", "--control", "1",
                 "--control", "7"])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "4 frozen path(s)" in stdout
    assert "RESULT: PASS (decisive step 1e-04)" in stdout


def test_validate_report_only_without_decisive_step(capsys):
    code = main(["validate", "--cornell", "--width", "16", "--height", "16",
                 "--grid", "1", "--eps", "1e-7", "--control", "7"])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "1 frozen path(s) (lattice" in stdout
    assert "RESULT: REPORT-ONLY" in stdout


def test_adjoint_check_pass(capsys):
    code = main(["adjoint-check", "--trials", "2", "--dim", "8"])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "RESULT: PASS" in stdout
    assert "max residuals" in stdout


def test_adjoint_check_injected_divergence(capsys):
    code = main(["adjoint-check", "--inject-noncontractive"])
    stdout = capsys.readouterr().out
    assert code == 2
    assert "RESULT: FAIL (series diverged, as injected)" in stdout


def test_adjoint_check_non_convergence_is_a_failed_check(capsys):
    # contractive, but the series needs more terms than the solver allows
    code = main(["adjoint-check", "--rho", "0.999", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    assert len(captured.out.splitlines()) == 1
    assert captured.out.startswith("RESULT: FAIL (trial 0: ")


@pytest.mark.parametrize("argv, cause", [
    (["adjoint-check", "--rho", "0.999", "--trials", "1"],
     "rho ~ 0.999 < 1: the series converges, but needs more terms"),
    (["adjoint-check", "--inject-noncontractive"],
     "transport operator is not contractive (rho ~ 1.5 >= 1)"),
])
def test_adjoint_check_failure_quotes_spectral_radius(argv, cause, capsys):
    assert main(argv) == 2
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("RESULT: FAIL") for line in lines) == 1
    assert sum(cause in line for line in lines) == 1


def test_optimize_recovers_control_and_writes_artifacts(tmp_path, capsys):
    csv = tmp_path / "traj.csv"
    out_scene = tmp_path / "fit.scene"
    code = main(["optimize", *CORNELL_SMALL, "--seed", "5",
                 "--target-theta", "1,0.1,0.6,0.4,20,0.1,0.7",
                 "--theta", "1,0.1,0.6,0.4,20,0.1,0.55",
                 "--free", "7", "--lr", "1.6e-3", "--iterations", "80",
                 "--csv", str(csv), "--out-scene", str(out_scene)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "final theta:" in stdout and "stopped after" in stdout
    lines = csv.read_text().strip().splitlines()
    assert lines[0].startswith("iteration,cost,grad_norm,theta1")
    assert len(lines) >= 3
    fitted = parse_scene(out_scene.read_text())
    assert abs(fitted.theta.control(7) - 0.7) < 5e-3
    assert fitted.theta.control(5) == 20.0  # frozen control kept its value


def test_optimize_divergence_exits_three(tmp_path, capsys):
    target = tmp_path / "target.pfm"
    target.write_bytes(write_pfm(
        ScalarImage(8, 8, np.full((8, 8), 1e38, dtype=np.float32))))
    code = main(["optimize", *CORNELL_SMALL, "--target", str(target),
                 "--lr", "1.0", "--iterations", "5"])
    assert code == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("optimization diverged: iteration 1: non-finite ")


def test_optimize_non_finite_step_exits_three(capsys):
    # a step to non-finite controls is a divergence, not a bad-theta input
    code = main(["optimize", *CORNELL_SMALL, "--target-theta", "1,1,1,1,1,1,1",
                 "--lr", "1e308", "--iterations", "2"])
    assert code == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("optimization diverged: ")


def test_dump_path_prints_vertices(capsys):
    code = main(["dump-path", "--cornell", "--width", "8", "--height", "8"])
    stdout = capsys.readouterr().out
    assert code == 0
    assert stdout.startswith("pixel (4,4) sample 0 seed 42:")
    assert "radiance" in stdout and "terminal" in stdout
    assert "  [0] " in stdout


def test_cli_runs_as_module(tmp_path):
    # byte determinism across separate interpreter processes
    cmd = [sys.executable, "-m", "pathgrad.cli", "render", *CORNELL_SMALL,
           "--seed", "9"]
    r1 = subprocess.run([*cmd, "-o", str(tmp_path / "p1")],
                        capture_output=True, text=True)
    r2 = subprocess.run([*cmd, "-o", str(tmp_path / "p2")],
                        capture_output=True, text=True)
    assert r1.returncode == 0 and r2.returncode == 0, r1.stderr + r2.stderr
    assert (tmp_path / "p1.pfm").read_bytes() == (tmp_path / "p2.pfm").read_bytes()


def test_importing_the_cli_loads_no_tracer_or_process_pool():
    # every command pays its imports in setup time; the lane tracer and the
    # worker pool load on first use
    lazy = ("pathgrad._wavefront", "multiprocessing", "concurrent.futures")
    code = ("import sys, pathgrad, pathgrad.cli; "
            f"print([m for m in {lazy!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
