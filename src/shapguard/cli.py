"""Command-line entry points for the pipeline stages.

Exit codes: 0 success, 1 usage/config error, 2 stage failure,
3 invariant-check failure. A bad, missing or mismatched input, a check
that depends on the data or a diverged training run is a stage failure,
printed as ``shapguard: <stage>: ...``; any traceback is a bug.
"""

from __future__ import annotations

import argparse
import logging
import sys

from . import data, pipeline

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STAGE = 2
EXIT_INVARIANT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="shapguard",
        description="Train an IoT NIDS, attack it, fingerprint attributions, "
        "and detect adversarial traffic via autoencoder reconstruction error.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, option) in pipeline.commands().items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="JSON config file (defaults apply otherwise)")
        cmd.add_argument("--out", help="output directory (overrides config out_dir)")
        cmd.add_argument("--seed", type=int, help="master seed override")
        if option is not None:  # held as args.value, shown by its flag's name
            flag, option_help = option
            values = pipeline.option_values(name)
            cmd.add_argument(flag, dest="value", help=option_help, **(
                {"choices": [*values, "all"], "default": "all"} if values
                else {"required": True, "metavar": flag.removeprefix("--").upper()}))
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        user_cfg = data.read_json(args.config) if args.config else None
        cfg = pipeline.resolve_config(user_cfg, seed_override=args.seed, out_override=args.out)
    except OSError as exc:
        print(f"shapguard: cannot read config {args.config}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, pipeline.ConfigError) as exc:  # from read_json or resolve_config
        print(f"shapguard: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        ws = pipeline.Workspace(cfg["out_dir"], cfg)
    except OSError as exc:
        print(f"shapguard: cannot create output directory {cfg['out_dir']}: {exc.strerror}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        pipeline.run_command(ws, args.command, getattr(args, "value", None))
    except pipeline.InvariantError as exc:
        print(f"shapguard: invariant check failed: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except pipeline.StageError as exc:
        print(f"shapguard: {exc}", file=sys.stderr)
        return EXIT_STAGE
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
