"""Command-line front end.

Subcommands:
    render         render a scene to PFM plus an 8-bit PPM preview
    gradients      render plus per-control gradient images of the cost
    validate       frozen-ensemble finite-difference check of the gradients
    optimize       projected gradient descent toward a target image
    adjoint-check  self-check of the weighted operator algebra
    dump-path      trace and print a single camera path

Every subcommand takes either a scene file path or --cornell for the
built-in box.  Exit codes: 0 success / check passed, 1 bad input,
2 check failed, 3 optimization diverged.
"""

from __future__ import annotations

import math
import pathlib
import sys
import time

import click
import numpy as np

from . import adjoint_algebra as alg
from .materials import ControlVector, N_CONTROLS, bsdf_d_pdf
from .optimizer import DivergenceError, OptimConfig, optimize as run_optimize
from .path_engine import (DEFAULT_MAX_DEPTH, forward_pass, trace_image,
                          trace_pixel_sample)
from .scene_io import (ScalarImage, SceneError, build_cornell_box,
                       gradient_preview, parse_scene, read_pfm, serialize_scene,
                       write_pfm, write_ppm_preview)
from .validation import EPS_LADDER, build_lattice_ensemble, compare_gradients


class _FiniteRange(click.FloatRange):
    """A FloatRange that also rejects nan and +-inf (FloatRange lets nan through)."""

    def convert(self, value, param, ctx):
        x = super().convert(value, param, ctx)
        if not math.isfinite(x):
            self.fail(f"{value!r} is not a finite number.", param, ctx)
        return x


def _parse_theta_option(text):
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != N_CONTROLS:
        raise click.BadParameter(f"expected {N_CONTROLS} values, got {len(parts)}")
    try:
        return ControlVector.of(*(float(p) for p in parts))
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from None


def _parse_free(text):
    """The --free control numbers: a comma or space list of 1..N_CONTROLS, not empty."""
    parts = text.replace(",", " ").split()
    if not parts:
        raise click.BadParameter("expected at least one control number",
                                 param_hint="'--free'")
    try:
        free = {int(p) for p in parts}
    except ValueError:
        raise click.BadParameter(f"expected control numbers 1..{N_CONTROLS}, got {text!r}",
                                 param_hint="'--free'") from None
    bad = free - set(range(1, N_CONTROLS + 1))
    if bad:
        raise click.BadParameter(f"controls outside 1..{N_CONTROLS}: {sorted(bad)}",
                                 param_hint="'--free'")
    return free


def _load_scene(scene_path, cornell, width, height, theta_text):
    """Scene plus controls from a file path xor the built-in box."""
    if cornell and scene_path is not None:
        raise click.UsageError("give a scene path or --cornell, not both")
    if not cornell and scene_path is None:
        raise click.UsageError("give a scene path or --cornell")
    if cornell:
        scene, theta = build_cornell_box(width or 64, height or 64)
    else:
        text = pathlib.Path(scene_path).read_text()
        scene = parse_scene(text)
        theta = scene.theta or ControlVector.of(*([1.0] * N_CONTROLS))
        if width or height:
            cam = scene.camera
            scene.camera = cam.with_resolution(width or cam.width,
                                               height or cam.height)
    if theta_text is not None:
        theta = _parse_theta_option(theta_text)
    return scene, theta


def _scene_options(fn):
    fn = click.option("--cornell", is_flag=True,
                      help="Use the built-in box scene.")(fn)
    fn = click.option("--width", type=click.IntRange(min=1), default=None,
                      help="Override image width.")(fn)
    fn = click.option("--height", type=click.IntRange(min=1), default=None,
                      help="Override image height.")(fn)
    fn = click.option("--seed", type=int, default=42, show_default=True,
                      help="Deterministic stream seed.")(fn)
    fn = click.option("--max-depth", type=click.IntRange(min=1),
                      default=DEFAULT_MAX_DEPTH, show_default=True,
                      help="Path length cap.")(fn)
    fn = click.option("--theta", "theta_text", type=str, default=None,
                      help="Override the 7 controls, comma separated.")(fn)
    return fn


def _common_options(fn):
    """The scene options plus --spp and --threads."""
    fn = click.option("--spp", type=click.IntRange(min=1), default=16,
                      show_default=True, help="Samples per pixel.")(fn)
    fn = click.option("--threads", type=click.IntRange(min=1), default=1,
                      show_default=True, help="Most worker processes.")(fn)
    return _scene_options(fn)


def _target_options(fn):
    fn = click.option("--target", "target_path", type=click.Path(exists=True),
                      default=None, help="Target PFM image.")(fn)
    fn = click.option("--target-theta", type=str, default=None,
                      help="Render the target from these controls instead (same seed).")(fn)
    return fn


def _target(target_path, target_theta):
    """The target image from a PFM file, xor the controls to render it from in
    the trace session, which replays those paths while the exponents match."""
    if (target_path is None) == (target_theta is None):
        raise click.UsageError("provide exactly one of --target / --target-theta")
    if target_path is not None:
        return read_pfm(pathlib.Path(target_path).read_bytes())
    return _parse_theta_option(target_theta)


@click.group()
def cli():
    """Differentiable path tracer with adjoint-computed control gradients."""


@cli.command()
@click.argument("scene_path", required=False, type=click.Path(exists=True))
@_common_options
@click.option("-o", "--out", default="render", show_default=True,
              help="Output prefix; writes <out>.pfm and <out>.ppm.")
def render(scene_path, cornell, width, height, spp, seed, max_depth, threads,
           theta_text, out):
    """Render radiance to <out>.pfm with an 8-bit <out>.ppm preview."""
    scene, theta = _load_scene(scene_path, cornell, width, height, theta_text)
    t0 = time.perf_counter()
    result = trace_image(scene, theta, spp=spp, seed=seed, threads=threads,
                         max_depth=max_depth)
    elapsed = time.perf_counter() - t0
    pathlib.Path(out + ".pfm").write_bytes(write_pfm(result.image))
    pathlib.Path(out + ".ppm").write_bytes(write_ppm_preview(result.image))
    data = result.image.data
    click.echo(f"wrote {out}.pfm and {out}.ppm "
               f"({result.image.width}x{result.image.height}, {spp} spp, seed {seed})")
    click.echo(f"paths traced {result.sample_count}, mean depth "
               f"{result.mean_depth:.3f}, wall time {elapsed:.3f}s")
    click.echo(f"radiance mean {float(data.mean()):.6f} "
               f"min {float(data.min()):.6f} max {float(data.max()):.6f}")


@cli.command()
@click.argument("scene_path", required=False, type=click.Path(exists=True))
@_common_options
@_target_options
@click.option("-o", "--out", default="grad", show_default=True,
              help="Output prefix for the image and per-control gradients.")
def gradients(scene_path, cornell, width, height, spp, seed, max_depth,
              threads, theta_text, target_path, target_theta, out):
    """Differentiate the image cost; writes 8 images (render + 7 gradients)."""
    scene, theta = _load_scene(scene_path, cornell, width, height, theta_text)
    result = trace_image(scene, theta, spp=spp, seed=seed, threads=threads,
                         max_depth=max_depth, target=_target(target_path, target_theta),
                         compute_gradients=True, want_grad_images=True)
    click.echo(f"cost J = {result.cost:.12e}")
    for k in range(1, N_CONTROLS + 1):
        click.echo(f"dJ/dtheta{k} = {result.grad.control(k):+.12e}")
    pathlib.Path(out + ".pfm").write_bytes(write_pfm(result.image))
    pathlib.Path(out + ".ppm").write_bytes(write_ppm_preview(result.image))
    for k in range(N_CONTROLS):
        img = ScalarImage.from_rows(result.grad_images[k])
        pathlib.Path(f"{out}{k + 1}.pfm").write_bytes(write_pfm(img))
        pathlib.Path(f"{out}{k + 1}.ppm").write_bytes(gradient_preview(img))
    click.echo(f"wrote {out}.pfm/.ppm and {out}1..{N_CONTROLS}.pfm/.ppm")


@cli.command()
@click.argument("scene_path", required=False, type=click.Path(exists=True))
@_common_options
@click.option("--grid", type=click.IntRange(min=1), default=8, show_default=True,
              help="Frozen ensemble is grid x grid paths (default 64 total).")
@click.option("--eps", "eps_values", type=_FiniteRange(min=0.0, min_open=True),
              multiple=True,
              help="Step sizes (repeatable); default ladder "
                   "1e-1, 1e-4, 1e-7, 1e-10.")
@click.option("--control", "controls", type=int, multiple=True,
              help="Restrict to these controls (repeatable); default all 7.")
def validate(scene_path, cornell, width, height, spp, seed, max_depth,
             threads, theta_text, grid, eps_values, controls):
    """Check backward-pass gradients against frozen-path finite differences.

    Exit code reflects agreement at eps = 1e-4 when that step is exercised;
    other steps are reported as diagnostics.  Controls that make the frozen
    cost or gradient non-finite are bad input (exit 1).
    """
    scene, theta = _load_scene(scene_path, cornell, width, height, theta_text)
    ensemble = build_lattice_ensemble(scene, theta, seed=seed, grid=grid,
                                      max_depth=max_depth)
    report = compare_gradients(ensemble, theta,
                               eps_list=tuple(eps_values) or EPS_LADDER,
                               controls=list(controls) or None)
    click.echo(f"ensemble: {ensemble.n_paths} frozen path(s) "
               f"({ensemble.label}, seed {seed})")
    click.echo(report.to_text())
    sys.exit(0 if report.all_pass else 2)


@cli.command()
@click.argument("scene_path", required=False, type=click.Path(exists=True))
@_common_options
@_target_options
@click.option("--lr", type=_FiniteRange(), default=4e-5, show_default=True,
              help="Learning rate.")
@click.option("--iterations", type=click.IntRange(min=0), default=100, show_default=True)
@click.option("--reg", type=_FiniteRange(), default=0.0, show_default=True,
              help="Tikhonov regularization weight.")
@click.option("--free", "free_text", type=str, default=None,
              help="Comma list of controls to optimize; others stay frozen.")
@click.option("--csv", "csv_path", type=click.Path(), default=None,
              help="Write the trajectory as CSV.")
@click.option("--out-scene", type=click.Path(), default=None,
              help="Write the scene back with the recovered theta line.")
def optimize(scene_path, cornell, width, height, spp, seed, max_depth,
             threads, theta_text, target_path, target_theta, lr, iterations,
             reg, free_text, csv_path, out_scene):
    """Recover controls by projected gradient descent on the image cost."""
    scene, theta = _load_scene(scene_path, cornell, width, height, theta_text)
    target = _target(target_path, target_theta)
    config = OptimConfig(learning_rate=lr, n_iterations=iterations,
                         regularization=reg, spp=spp, seed=seed,
                         max_depth=max_depth, threads=threads)
    if free_text is not None:
        config = config.with_frozen(theta, _parse_free(free_text))
    trajectory = run_optimize(scene, theta, target, config,
                              callback=lambda r: click.echo(
                                  f"iter {r.iteration:4d}  J {r.cost:.9e}  "
                                  f"|g| {r.grad_norm:.3e}"))
    if csv_path:
        pathlib.Path(csv_path).write_text(trajectory.to_csv())
    final = trajectory.final_theta
    if out_scene:
        scene.theta = final
        pathlib.Path(out_scene).write_text(serialize_scene(scene))
    click.echo("final theta: " + " ".join(f"{v:.9f}" for v in final.values))
    click.echo(f"stopped after {trajectory.records[-1].iteration} iterations: "
               f"{trajectory.reason}")


@cli.command("adjoint-check")
@click.option("--dim", type=click.IntRange(min=1), default=24, show_default=True,
              help="State dimension of the random problems.")
@click.option("--n-controls", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--trials", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--rho", type=_FiniteRange(min=0.0, max=1.0, max_open=True),
              default=0.8, show_default=True,
              help="Target spectral radius of the transport operator.")
@click.option("--inject-noncontractive", is_flag=True,
              help="Use an expanding operator to demonstrate the failure mode.")
def adjoint_check(dim, n_controls, trials, seed, rho, inject_noncontractive):
    """Duality and gradient self-checks on random contractive problems."""
    rng = np.random.default_rng(seed)
    if inject_noncontractive:
        op = alg.random_operator(rng, dim, 1.5)
        w = alg.random_weights(rng, dim)
        b = alg.random_field(rng, dim, w)
        click.echo(f"spectral radius: {alg.spectral_radius(op.matrix):.3f}")
        try:
            alg.neumann_solve(op, b, max_terms=200)
        except alg.ConvergenceError as exc:
            click.echo(f"ConvergenceError: {exc}")
            click.echo("RESULT: FAIL (series diverged, as injected)")
            sys.exit(2)
        click.echo("RESULT: FAIL (expected divergence did not occur)")
        sys.exit(2)

    worst_dual = 0.0
    worst_grad = 0.0
    for trial in range(trials):
        problem, theta = alg.random_problem(rng, dim, n_controls, rho)
        op = problem.transport(theta)
        src = problem.source(theta)
        measure = alg.random_field(rng, dim, problem.weights)
        try:
            i_fwd, i_bwd = alg.measurement_duality_check(op, src, measure)
            cost, grad = alg.adjoint_gradient(problem, theta)
            fd = alg.fd_gradient_oracle(problem, theta)
        except alg.ConvergenceError as exc:
            click.echo(f"RESULT: FAIL (trial {trial}: {exc})")
            sys.exit(2)
        dual_err = abs(i_fwd - i_bwd) / max(abs(i_fwd), abs(i_bwd), 1e-30)
        grad_err = float(np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-12)))
        worst_dual = max(worst_dual, dual_err)
        worst_grad = max(worst_grad, grad_err)
        click.echo(f"trial {trial}: J={cost:.6e} duality rel err {dual_err:.3e} "
                   f"grad rel err {grad_err:.3e}")
    ok = worst_dual <= 1e-10 and worst_grad <= 1e-6
    click.echo(f"max residuals: duality {worst_dual:.3e}, gradient {worst_grad:.3e}")
    click.echo("RESULT: " + ("PASS" if ok else "FAIL"))
    sys.exit(0 if ok else 2)


@cli.command("dump-path")
@click.argument("scene_path", required=False, type=click.Path(exists=True))
@_scene_options
@click.option("--pixel", "pixel_text", type=str, default=None,
              help="Pixel as 'x,y'; default image center.")
@click.option("--sample", type=click.IntRange(min=0), default=0, show_default=True)
def dump_path(scene_path, cornell, width, height, seed, max_depth, theta_text,
              pixel_text, sample):
    """Trace one camera path and print its vertices."""
    scene, theta = _load_scene(scene_path, cornell, width, height, theta_text)
    cam = scene.camera
    if pixel_text is None:
        x, y = cam.width // 2, cam.height // 2
    else:
        try:
            x, y = (int(p) for p in pixel_text.replace(",", " ").split())
        except ValueError:
            raise click.BadParameter("--pixel expects 'x,y'") from None
    if not (0 <= x < cam.width and 0 <= y < cam.height):
        raise click.UsageError(
            f"pixel ({x},{y}) outside 0..{cam.width - 1} x 0..{cam.height - 1}")
    from ._wavefront import check_finite, material_table  # loaded on first use
    material_table(scene.materials, theta)  # rejects the controls render rejects
    path = trace_pixel_sample(scene, theta, y * cam.width + x, sample, seed,
                              max_depth)
    radiance = forward_pass(path, theta)
    check_finite(theta, ("radiance", radiance))
    terminal = path.terminal_kind.name.title().replace("_", " ")
    click.echo(f"pixel ({x},{y}) sample {sample} seed {seed}: "
               f"{len(path.vertices)} vertices, radiance {radiance:.9f}, "
               f"terminal {terminal}")
    for i, v in enumerate(path.vertices):
        p, n = v.hit.point, v.hit.normal
        line = (f"  [{i}] {v.material.name:<8} "
                f"at ({p.x:9.3f},{p.y:9.3f},{p.z:9.3f}) "
                f"n ({n.x:+.3f},{n.y:+.3f},{n.z:+.3f}) tag {v.tag.name:<12}")
        if v.dir_out is not None:
            f = bsdf_d_pdf(v.material, v.tag, v.u1, theta)
            line += (f" u ({v.u1:.6f},{v.u2:.6f}) throughput {f:.6f}"
                     f" L_next {v.stored_radiance:.6f}")
        click.echo(line)


def main(argv=None):
    """Entry point with explicit exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except SystemExit as exc:  # raised by sys.exit inside commands
        code = exc.code
        return int(code) if code is not None else 0
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        message = exc.format_message()
        if "\n" in message:  # the help page a bare command shows (click >= 8.2)
            exc.show()
        else:
            click.echo(f"error: {message}", err=True)
        return 1
    except SceneError as exc:
        click.echo(f"scene error: {exc}", err=True)
        return 1
    except DivergenceError as exc:
        click.echo(f"optimization diverged: {exc}", err=True)
        return 3
    except (OSError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
