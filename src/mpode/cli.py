"""Command line entry points for the experiment runners."""

from __future__ import annotations

import click

from .runners import (
    SWEEP_PRESETS,
    ConfigError,
    ExperimentConfig,
    SolveFailed,
    run_sgd_demo,
    run_solve,
    run_sweep,
    run_table,
)


@click.group()
def main() -> None:
    """Mixed-precision ODE solvers with a scaled adjoint backward pass."""


@main.command()
@click.option("--out", required=True, type=click.Path(dir_okay=False), help="CSV output path.")
@click.option(
    "--steps", default=400, show_default=True, type=click.IntRange(min=1),
    help="Number of integration steps.",
)
@click.option("--scheme", default="rk4", show_default=True, type=click.Choice(["euler", "rk4"]))
def table(out: str, steps: int, scheme: str) -> None:
    """Error table of the decay benchmark across formats and policies."""
    rows = run_table(ExperimentConfig(n=steps, scheme=scheme, out=out))
    click.echo(f"wrote {len(rows)} rows to {out}")


@main.command()
@click.option("--n", "n_list", required=True, help="Comma-separated step counts, e.g. 64,128,256.")
@click.option("--scheme", default="rk4", show_default=True, type=click.Choice(["euler", "rk4"]))
@click.option(
    "--fmt",
    default="float16",
    show_default=True,
    type=click.Choice(["float16", "bfloat16", "float32", "float64"]),
)
@click.option(
    "--policy", default="dynamic", show_default=True, type=click.Choice(["none", "safe", "dynamic"])
)
@click.option("--field", default="polydecay", show_default=True, type=click.Choice(list(SWEEP_PRESETS)))
@click.option("--seed", default=0, show_default=True, help="Seed for the mlp field.")
@click.option("--out", required=True, type=click.Path(dir_okay=False), help="CSV output path.")
def sweep(n_list: str, scheme: str, fmt: str, policy: str, field: str, seed: int, out: str) -> None:
    """Relative errors vs the float64 same-scheme run across step counts."""
    ns = [v for v in n_list.split(",") if v.strip()]
    config = ExperimentConfig(
        **SWEEP_PRESETS[field], seed=seed, n=ns, scheme=scheme, fmt=fmt, policy=policy, out=out
    )
    try:
        rows = run_sweep(config)
    except ConfigError as exc:
        raise click.ClickException(f"config: {exc}") from None
    click.echo(f"wrote {len(rows)} rows to {out}")


@main.command("sgd-demo")
@click.option("--steps", default=500, show_default=True, help="Number of SGD iterations.")
@click.option(
    "--fmt",
    default="float16",
    show_default=True,
    type=click.Choice(["float16", "bfloat16", "float32", "float64"]),
)
@click.option("--seed", default=0, show_default=True, help="Seed for data and initialization.")
@click.option("--lr", default=0.05, show_default=True, help="Learning rate.")
@click.option("--out", required=True, type=click.Path(dir_okay=False), help="CSV output path.")
def sgd_demo(steps: int, fmt: str, seed: int, lr: float, out: str) -> None:
    """Train an MLP field against a linear teacher with loss scaling."""
    result = run_sgd_demo(ExperimentConfig(fmt=fmt, seed=seed, steps=steps, lr=lr, out=out))
    click.echo(f"wrote {len(result.rows)} rows to {out}")
    click.echo(f"final loss (float64 eval): {result.final_loss:.6g}")


@main.command()
@click.option(
    "--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False)
)
def solve(config_path: str) -> None:
    """Forward and backward pass described by a key = value config file.

    A run that does not end `ok` writes what it computed, prints its status
    on one line and exits with status 1. A config with a bad value prints
    `Error: config: <key>: <reason>` and exits 1 before anything runs.
    """
    try:
        paths = run_solve(ExperimentConfig.from_file(config_path))
    except ConfigError as exc:
        raise click.ClickException(f"config: {exc}") from None
    except SolveFailed as exc:
        for p in exc.paths:
            click.echo(f"wrote {p}")
        raise click.ClickException(f"solve failed: {exc.status}") from None
    if paths is None:
        click.echo("no `out` set in config; nothing written")
    else:
        for p in paths:
            click.echo(f"wrote {p}")


if __name__ == "__main__":
    main()
