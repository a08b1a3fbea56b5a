"""Property test of the command line: any argv drawn from the option grammar,
at up to 8x8 pixels and 2 samples, with controls up to 1e308, ends in a known
exit code, with neither a traceback nor a warning, and a successful run writes
only finite images."""

import contextlib
import io
import pathlib
import tempfile
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import event, given, settings, strategies as st  # noqa: E402

from pathgrad.cli import main  # noqa: E402
from pathgrad.materials import N_CONTROLS  # noqa: E402
from pathgrad.scene_io import ScalarImage, read_pfm, write_pfm  # noqa: E402

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200, database=None)
COMMANDS = ["render", "gradients", "optimize", "validate", "dump-path"]
BOX_THETA = [1.0, 0.1, 0.6, 0.4, 20.0, 0.1, 0.7]

SCENE_TEXT = """\
camera eye 0 0 0 look 0 0 1 up 0 1 0 fov 60 res 6 5
material lamp emitter emission @1 base 5.0 absorb 1.0
material ball phong ambient @2 diffuse @3 specular @4 exponent @5 absorb 0.4
material wall lambert ambient @6 diffuse @7 absorb 0.3
quad p -2 -2 4 u 4 0 0 v 0 4 0 mat wall
sphere c 0.3 0.2 2.5 r 0.5 mat ball
quad p -0.5 1.8 1 u 1 0 0 v 0 0 1 mat lamp
theta 1 0.1 0.6 0.4 20 0.1 0.7
"""

# log-uniform magnitudes from 1e-3 to 1e308, now and then zero or negative
MAGNITUDE = st.floats(min_value=-3.0, max_value=308.0).map(lambda e: 10.0 ** e)
CONTROL = st.one_of(MAGNITUDE, MAGNITUDE.map(lambda x: -x), st.just(0.0))
NUMBER = st.one_of(MAGNITUDE, st.just(0.0), st.just(-1.0))


def _controls(draw):
    """The box's controls with any subset of them drawn anew."""
    values = list(BOX_THETA)
    for k in draw(st.sets(st.integers(0, N_CONTROLS - 1))):
        values[k] = draw(CONTROL)
    return ",".join(map(repr, values))


def _maybe(draw, *argv):
    return list(argv) if draw(st.booleans()) else []


@st.composite
def argvs(draw, command):
    """(argv, target image or None) for ``command``, paths relative to a scratch dir."""
    argv = [command, draw(st.sampled_from(["--cornell", "scene.txt"]))]
    width = draw(st.integers(1, 8))
    height = draw(st.integers(1, 8))
    argv += ["--width", str(width), "--height", str(height)]
    argv += _maybe(draw, "--seed", str(draw(st.integers(-2**31, 2**31))))
    argv += _maybe(draw, "--max-depth", str(draw(st.integers(1, 16))))
    argv += _maybe(draw, "--theta", _controls(draw))
    if command != "dump-path":
        argv += ["--spp", str(draw(st.integers(1, 2)))]
        argv += _maybe(draw, "--threads", str(draw(st.integers(1, 3))))
    target = None
    if command in ("gradients", "optimize"):
        # a file, controls, both or neither; the file may be the wrong size or not finite
        source = draw(st.sampled_from(["file", "file", "theta", "theta", "both", "neither"]))
        if source in ("file", "both"):
            argv += ["--target", "target.pfm"]
            kind = draw(st.sampled_from(["fits", "fits", "other size", "not finite"]))
            shape = (height, width) if kind != "other size" else (height + 1, width)
            data = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=shape[0] * shape[1],
                                          max_size=shape[0] * shape[1])), np.float32)
            if kind == "not finite":
                data[0] = draw(st.sampled_from([np.nan, np.inf]))
            target = ScalarImage(shape[1], shape[0], data.reshape(shape))
        if source in ("theta", "both"):
            argv += ["--target-theta", _controls(draw)]
    if command in ("render", "gradients"):
        argv += ["-o", "out"]
    elif command == "optimize":
        argv += ["--iterations", str(draw(st.integers(0, 3))), "--csv", "out.csv",
                 "--out-scene", "out.scene"]
        argv += _maybe(draw, "--lr", repr(draw(NUMBER)))
        argv += _maybe(draw, "--reg", repr(draw(NUMBER)))
        argv += _maybe(draw, "--free", ",".join(map(str, draw(st.lists(
            st.integers(1, N_CONTROLS), min_size=1, max_size=3)))))
    elif command == "validate":
        argv += ["--grid", str(draw(st.integers(1, 3)))]
        argv += _maybe(draw, "--eps", repr(draw(st.sampled_from([1e-1, 1e-4, 1e-7]))))
        argv += _maybe(draw, "--control", str(draw(st.integers(1, N_CONTROLS))))
    else:
        argv += _maybe(draw, "--pixel", f"{draw(st.integers(0, 8))},{draw(st.integers(0, 8))}")
        argv += _maybe(draw, "--sample", str(draw(st.integers(0, 3))))
    return argv, target


@pytest.mark.parametrize("command", COMMANDS)
@PROPERTY
@given(data=st.data())
def test_any_argv_exits_known_code_without_traceback_or_warning(command, data):
    argv, target = data.draw(argvs(command))
    with tempfile.TemporaryDirectory() as tmp:
        d = pathlib.Path(tmp)
        (d / "scene.txt").write_text(SCENE_TEXT)
        if target is not None:
            (d / "target.pfm").write_bytes(write_pfm(target))
        argv = [str(d / a) if a in ("scene.txt", "target.pfm", "out", "out.csv", "out.scene")
                else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
        event(f"{argv[0]} exit {code}")
        assert code in (0, 1, 2, 3), (argv, code)
        assert not caught, (argv, [str(w.message) for w in caught])
        assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue(), argv
        if code == 0:
            for pfm in d.glob("out*.pfm"):
                assert np.all(np.isfinite(read_pfm(pfm.read_bytes()).data)), (argv, pfm.name)
