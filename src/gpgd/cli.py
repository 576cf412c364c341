"""Command-line driver for the experiment harness.

Each subcommand maps to one experiment; configuration comes from a flat
JSON file of keys that experiment reads, with --seed/--out/--trials
overriding on top of it.  Exit codes: 0 success, 1 invalid configuration,
2 component error during the run, 3 inconclusive bound check.
"""

import argparse
import json
import os
import sys

from .experiments import EXPERIMENTS, RUNNERS, default_spec, write_outputs

_COMMANDS = {name.replace("_", "-"): name for name in EXPERIMENTS}

_HELP = {
    "phase-alpha": "recovery error over (sparsity, alpha) with deteriorated projections",
    "outliers": "outlier-count trade-off for residual-thresholded back-projection",
    "stepsize": "step-size study: identifiability range and noise plateau",
    "joint": "joint signal/corruption recovery with the augmented (A, I) operator",
    "nipr": "post-optimum stability of priors trained with/without idempotence penalty",
    "theorem": "check observed error sequences against the convergence bound",
}


def load_spec(experiment, config_path=None, seed=None, out=None, trials=None):
    """Build a validated spec from defaults, optional JSON config, overrides."""
    overrides = {}
    if config_path is not None:
        with open(config_path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a flat JSON object")
        if loaded.get("experiment", experiment) != experiment:
            raise ValueError(
                f"config is for experiment {loaded['experiment']!r}, "
                f"but the {experiment!r} subcommand was invoked"
            )
        loaded.pop("experiment", None)
        overrides.update(loaded)
    if seed is not None:
        overrides["seed"] = seed
    if out is not None:
        overrides["output_path"] = out
    if trials is not None:
        overrides["trials"] = trials
    spec = default_spec(experiment, **overrides)
    if not os.path.isdir(os.path.dirname(spec.output_path) or "."):
        raise ValueError(f"output_path {spec.output_path!r} is not in an existing directory")
    return spec


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="gpgd",
        description="Desk-scale recovery experiments with generalized projected gradient descent.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, experiment in _COMMANDS.items():
        p = sub.add_parser(command, help=_HELP[command])
        p.add_argument("--config", help="flat JSON config of the experiment's keys")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out", help="output base path override")
        p.add_argument("--trials", type=int, help="trial-count override")
        p.set_defaults(experiment=experiment)
    args = parser.parse_args(argv)

    try:
        spec = load_spec(args.experiment, args.config, args.seed, args.out, args.trials)
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1

    try:
        result = RUNNERS[args.experiment](spec)
        paths = write_outputs(spec, result)
    except Exception as exc:  # noqa: BLE001 - map any component failure to exit 2
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 2

    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    if result["summary"]:
        print(json.dumps(result["summary"], sort_keys=True))
    if result["status"] == 3:
        print("bound check inconclusive: no qualifying seeds for some variants", file=sys.stderr)
    return result["status"]


if __name__ == "__main__":
    sys.exit(main())
