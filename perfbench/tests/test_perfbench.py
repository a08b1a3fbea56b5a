"""Tests of the benchmark itself: smoke runs, checks, generator, tracer.

    python3 -m pytest -q perfbench/tests
"""

import json
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


def _bench(*args, cwd=REPO):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_tiny_smoke_run(name, trace):
    proc = _bench("--workload", name, "--seed", "5", "--seconds", "0.1",
                  "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    res = _result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    units = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in res["metrics"].items()} == units
    if trace == "0":
        assert all(v["value"] > 0 for v in res["metrics"].values())
    assert "machine {" in proc.stdout


def test_corrupted_output_counts_as_failure(monkeypatch, capsys):
    real = run.run_command

    def corrupting(argv, env, stderr_path, timeout=run.COMMAND_TIMEOUT_S):
        sample = real(argv, env, stderr_path, timeout)
        out = pathlib.Path(stderr_path).parent / "out.pfm"
        data = bytearray(out.read_bytes())
        data[-1] ^= 0x01
        out.write_bytes(bytes(data))
        return sample

    monkeypatch.chdir(REPO)
    monkeypatch.setattr(run, "run_command", corrupting)
    rc = run.main(["--workload", "render-open", "--seed", "2", "--seconds",
                   "0.1", "--tiny"])
    out = capsys.readouterr().out
    res = json.loads(out.strip().splitlines()[-1])
    assert rc == 1
    assert not res["correct"] and res["failed"] == res["attempted"] >= 1
    assert "differs from the reference" in out


@pytest.fixture(scope="module")
def gradients_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("gradients")
    wl.generate("gradients-box", 4, d, tiny=True)
    from pathgrad.cli import main
    with open(d / "stdout.txt", "w") as fh, \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "stdout", fh)
        assert main(wl.cli_args("gradients-box", 4, d, tiny=True)) == 0
    return d


def test_checks_reject_wrong_outputs(gradients_dir, tmp_path):
    d = tmp_path / "g"
    shutil.copytree(gradients_dir, d)
    stdout = (d / "stdout.txt").read_text()
    assert wl.check("gradients-box", d, stdout, tiny=True) is None
    line = next(x for x in stdout.splitlines() if x.startswith("dJ/dtheta7"))
    key, value = line.split(" = ")
    bumped = f"{key} = {float(value) * 1.001:+.12e}"
    assert "dJ/dtheta7" in wl.check("gradients-box", d,
                                     stdout.replace(line, bumped), tiny=True)
    (d / "out3.pfm").write_bytes((d / "out3.pfm").read_bytes()[:-4])
    assert "out3.pfm" in wl.check("gradients-box", d, stdout, tiny=True)
    fail = "ensemble: 16 frozen path(s)\nRESULT: FAIL\n"
    assert "RESULT: PASS" in wl.check("validate-box", d, fail, tiny=True)


def test_generator_is_deterministic(tmp_path):
    for name in ("render-open", "gradients-box"):
        a, b, c = tmp_path / f"{name}a", tmp_path / f"{name}b", tmp_path / f"{name}c"
        wl.generate(name, 9, a, tiny=True)
        wl.generate(name, 9, b, tiny=True)
        wl.generate(name, 10, c, tiny=True)
        files = sorted(p.name for p in a.iterdir())
        assert files == sorted(p.name for p in b.iterdir())
        for f in files:
            assert (a / f).read_bytes() == (b / f).read_bytes(), f
        inputs = {"render-open": "scene.txt", "gradients-box": "target.pfm"}[name]
        assert (a / inputs).read_bytes() != (c / inputs).read_bytes()
    assert wl.open_scene_text(3, 96, 96) == wl.open_scene_text(3, 96, 96)


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_of_nested_spans():
    t = tracer.Tracer()
    inner = t.wrap("b.inner", lambda: _spin(0.02))

    def outer_fn():
        _spin(0.01)
        inner()
        inner()

    outer = t.wrap("a.outer", outer_fn)
    t0 = time.perf_counter()
    outer()
    _spin(0.01)
    s = t.summary(time.perf_counter() - t0)
    calls, total, self_s = s["stats"]["a.outer"]
    assert calls == 1 and total == pytest.approx(0.05, abs=0.01)
    assert self_s == pytest.approx(total - s["stats"]["b.inner"][1], abs=1e-12)
    assert s["stats"]["b.inner"][0] == 2
    assert [sp[3] for sp in s["spans"]] == [-1, 0, 0]
    assert sum(s["layer_self_s"].values()) + s["cli_self_s"] == pytest.approx(
        s["wall_s"], abs=1e-12)
    assert s["cli_self_s"] == pytest.approx(0.01, abs=0.005)


def test_self_times_sum_to_traced_wall(tmp_path):
    d = tmp_path / "v"
    wl.generate("validate-box", 1, d, tiny=True)
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), "command", "--spans",
         str(spans), "--", *wl.cli_args("validate-box", 1, d, tiny=True)],
        env=run.child_env(REPO), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    s = json.loads(spans.read_text())
    layers = s["layer_self_s"]
    assert min(layers.values()) >= -1e-9 and s["cli_self_s"] > 0
    assert sum(layers.values()) + s["cli_self_s"] == pytest.approx(s["wall_s"], rel=1e-9)
    assert sum(layers.values()) == pytest.approx(s["top_spans_s"], rel=1e-9)
    m = tracer.layer_metrics(s)
    assert m["validation.compare_s"] > 0 and m["geometry.self_s"] > 0


def test_tail_percentile():
    assert run.tail(list(range(100))) == (89, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_benchmark_json_matches_the_code():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        n: w.why for n, w in wl.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_exits_without_result_outside_a_repository(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "render-open", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
