"""Command-line front end: one subcommand per registered experiment, plus
``list`` (registry overview) and ``verify`` (the acceptance suite; with
``--json``, one JSON object per criterion, elapsed seconds included).

Exit codes: 0 success, 2 configuration error, 3 resource bound exceeded,
4 acceptance failure.  Failures print a one-line JSON error record to
stderr.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict

import click

from . import __version__
from .errors import ParameterError, ResourceLimitError
from .harness import list_experiments, load_config, run_experiment, REGISTRY

EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_ACCEPTANCE = 4


def _fail(kind: str, code: int, message: str) -> None:
    click.echo(json.dumps({"error": kind, "exit": code, "message": message}), err=True)
    sys.exit(code)


@click.group()
@click.version_option(__version__, prog_name="ergolab")
def main():
    """Deterministic desk-scale experiments on sieves, orbits, and averages."""


def _make_command(experiment):
    @click.option("--config", "config_path", type=click.Path(), default=None,
                  help="JSON parameter document for this experiment.")
    @click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=None,
                  help="Seed for all randomness; overrides the config's seed.")
    @click.option("--out", type=click.Path(file_okay=False), default="results",
                  show_default=True, help="Root directory for run outputs.")
    @click.option("--threads", type=click.IntRange(1, 256), default=1, show_default=True,
                  help="Worker cap; outputs never depend on it.")
    def callback(config_path, seed, out, threads):
        try:
            config = load_config(config_path) if config_path else None
            run_dir = run_experiment(experiment.name, config, seed, out, threads)
        except (FileNotFoundError, ParameterError) as exc:
            _fail("config", EXIT_CONFIG, str(exc))
        except ResourceLimitError as exc:
            _fail("resource", EXIT_RESOURCE, str(exc))
        except OSError as exc:
            _fail("io", EXIT_RESOURCE, str(exc))
        else:
            click.echo(str(run_dir))

    return click.command(name=experiment.name, help=experiment.description)(callback)


for _experiment in REGISTRY.values():
    main.add_command(_make_command(_experiment))


@main.command(name="list")
def list_command():
    """Show every registered experiment with a one-line description."""
    for name, description in list_experiments():
        click.echo(f"{name:16} {description}")


@main.command()
@click.argument("suite", type=click.Choice(["quick", "full"]))
@click.option("--json", "as_json", is_flag=True,
              help="Print one JSON object per criterion (cid, name, passed, detail, elapsed) and no summary.")
def verify(suite, as_json):
    """Run the acceptance suite and print one pass/fail row per criterion."""
    from .acceptance import run_suite

    results = run_suite(suite)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        click.echo(json.dumps(asdict(r)) if as_json else f"{status}  {r.cid:>2}  {r.name}: {r.detail}")
    failed = sum(1 for r in results if not r.passed)
    if not as_json:
        click.echo(f"{len(results) - failed}/{len(results)} criteria passed")
    if failed:
        sys.exit(EXIT_ACCEPTANCE)


if __name__ == "__main__":
    main()
