"""Command-line front end: ``run``, ``gen`` and ``summarize`` subcommands."""

import argparse
import json
import os
import sys
from dataclasses import replace

from . import harness


def _cmd_run(args):
    cfg = harness.load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if args.full_paper:
        cfg = replace(cfg, full_paper=True)
    rows = harness.run_experiment(cfg, workers=args.workers)
    csv_text = harness.summarize(rows)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(csv_text)
        print(f"wrote {len(rows)} result rows to {args.output}")
    else:
        sys.stdout.write(csv_text)
    if args.figure_data:
        os.makedirs(args.figure_data, exist_ok=True)
        for name, text in harness.figure_series(rows).items():
            with open(os.path.join(args.figure_data, name), "w") as fh:
                fh.write(text)
        print(f"wrote figure data files to {args.figure_data}")
    return 0


def _cmd_gen(args):
    template = harness.template_config(args.dataset)
    text = json.dumps(template, indent=2) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote template config to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_summarize(args):
    with open(args.results) as fh:
        records = harness.parse_summary(fh.read())
    if not records:
        print("no result rows")
        return 1
    cols = ["dataset", "method", "split", "n_nodes", "activation", "beta",
            "j1", "j2", "sigma", "accuracy"]
    widths = {c: max(len(c), max(len(r.get(c, "")) for r in records))
              for c in cols}
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for r in records:
        print("  ".join(r.get(c, "").ljust(widths[c]) for c in cols))
    return 0


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="esn-tucker",
        description="Echo-state-network classification experiments with "
                    "ridge-readout and Tucker-2 nearest-core output layers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("-o", "--output", help="write the results CSV here")
    p_run.add_argument("--seed", type=int, help="override the master seed")
    p_run.add_argument("--full-paper", action="store_true",
                       help="use full-scale repetitions and dataset sizes")
    p_run.add_argument("--workers", type=_positive_int, metavar="N",
                       help="worker processes for the grid's repetitions "
                            "(default: the CPUs available)")
    p_run.add_argument("--figure-data",
                       help="directory for per-figure (x, mean, std) files")
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("gen", help="emit a template config")
    p_gen.add_argument("--dataset", default="sine_square",
                       choices=sorted(harness.DATASET_KINDS))
    p_gen.add_argument("-o", "--output", help="write the template here")
    p_gen.set_defaults(func=_cmd_gen)

    p_sum = sub.add_parser("summarize",
                           help="print a results CSV as an aligned table")
    p_sum.add_argument("results", help="path to a results CSV from `run`")
    p_sum.set_defaults(func=_cmd_summarize)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
