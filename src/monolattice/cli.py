"""Command line interface.

Subcommands: train, predict, evaluate, check, bench.  Exit codes: 0 success,
1 constraint check failed, 2 usage or config error, 3 runtime failure.

Exit 2 is for errors in what the user gave: a ``UsageError`` (a flag the
CLI rejects, or a value the library's config and spec checks reject, which
the CLI turns into one), a ``DataError`` (a schema, data or model file that
does not fit) and an ``OSError`` (a file that cannot be read or written).
Any other error, a ``ValueError`` included, is a failure of the run: exit 3.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from dataclasses import replace

import numpy as np

from .bench import DEFAULT_KINDS, bench_interpolation, format_csv
from .calibrators import DataError, FeatureKind
from .data import load_dataset, load_pair_dataset, load_schema
from .interpolation import InterpolationKind
from .lattice import LatticeShape, vertex_index
from .model import Model
from .monotonicity import parse_direction
from .regularizers import RegularizerConfig, RegularizerKind
from .training import Loss, TrainConfig, TrainingError, evaluate_metrics, train

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


class UsageError(ValueError):
    pass


@contextlib.contextmanager
def _flag_values():
    """Turn a ``ValueError`` raised while flags become specs and configs
    (a bad number, a size or weight the library refuses) into a
    ``UsageError`` with the same message; a ``DataError`` stays as it is."""
    try:
        yield
    except (UsageError, DataError):
        raise
    except ValueError as e:
        raise UsageError(str(e)) from None


# --------------------------------------------------------------------------
# flag parsing helpers


def _parse_lattice(text: str, specs) -> list:
    sizes = [s.strip() for s in text.split(",")]
    if len(sizes) != len(specs):
        raise UsageError(f"--lattice lists {len(sizes)} sizes for {len(specs)} features")
    return [replace(spec, size=int(size)) for spec, size in zip(specs, sizes)]


def _parse_monotonic(text: str, specs) -> list:
    by_name = {s.name: s for s in specs}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token[0] in "+-":
            direction, name = parse_direction(token[0]), token[1:]
        else:
            direction, name = parse_direction("none"), token
        if name not in by_name:
            raise UsageError(f"--monotonic names unknown feature {name!r}")
        by_name[name] = replace(by_name[name], monotone=direction)
    return list(by_name.values())


def _parse_keypoints(text: str, specs) -> list:
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if len(tokens) == 1 and ":" not in tokens[0]:
        return [
            replace(s, keypoints=int(tokens[0])) if s.kind is FeatureKind.CONTINUOUS else s
            for s in specs
        ]
    by_name = {s.name: s for s in specs}
    for token in tokens:
        if ":" not in token:
            raise UsageError(f"--keypoints entry {token!r} is not name:count")
        name, count = token.split(":", 1)
        if name not in by_name:
            raise UsageError(f"--keypoints names unknown feature {name!r}")
        by_name[name] = replace(by_name[name], keypoints=int(count))
    return list(by_name.values())


def _parse_regularizer(text: str) -> RegularizerConfig:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise UsageError(f"--regularizer {text!r} is not kind:weight[:terms]")
    try:
        kind = RegularizerKind(parts[0].strip().lower())
    except ValueError:
        raise UsageError(f"unknown regularizer kind {parts[0]!r}") from None
    weight = float(parts[1])
    count = None
    if len(parts) == 3 and parts[2].strip().lower() not in ("all", ""):
        count = int(parts[2])
    return RegularizerConfig(kind, weight, count)


def _training_specs(args):
    """The schema's specs with the flags applied, and its label column."""
    specs, label = load_schema(args.schema)
    with _flag_values():
        if args.lattice:
            specs = _parse_lattice(args.lattice, specs)
        if args.monotonic:
            specs = _parse_monotonic(args.monotonic, specs)
        if args.keypoints:
            specs = _parse_keypoints(args.keypoints, specs)
        LatticeShape([s.size for s in specs])  # refuses a lattice too large to train
    if args.unseen_category == "other":
        specs = [
            replace(s, allow_unseen=True) if s.kind is FeatureKind.CATEGORICAL else s
            for s in specs
        ]
    return specs, label


def _load_data(args, specs, label):
    """The ``--data`` file: ranking pairs with ``--pairs`` or ``--pair-id``,
    else rows that must carry ``label``."""
    if args.pairs or args.pair_id:
        return load_pair_dataset(args.data, specs, pair_id_column=args.pair_id,
                                 label_column=label, missing_token=args.missing_token)
    return load_dataset(args.data, specs, label, missing_token=args.missing_token,
                        require_labels=True)


# --------------------------------------------------------------------------
# subcommands


def cmd_train(args) -> int:
    specs, label = _training_specs(args)
    if label is None and not (args.pairs or args.pair_id):
        raise UsageError("schema has no label column; pass --pairs for ranking data")
    data = _load_data(args, specs, label)
    with _flag_values():
        config = TrainConfig(
            loss=Loss(args.loss),
            kind=InterpolationKind(args.kind),
            epochs=args.epochs,
            minibatch_size=args.minibatch,
            step_size=args.step_size,
            calibrator_step_scale=args.calibrator_step_scale,
            regularizers=tuple(_parse_regularizer(t) for t in (args.regularizer or [])),
            seed=args.seed,
            workers=args.workers,
            sync_rounds=args.sync_rounds,
        )
    model = train(data, specs, config)
    model.save(args.out)
    metrics = evaluate_metrics(model, data)
    print(json.dumps({"model": args.out, "train_metrics": metrics}, sort_keys=True))
    return EXIT_OK


def cmd_predict(args) -> int:
    model = Model.load(args.model)
    data = load_dataset(args.data, model.specs, None, missing_token=args.missing_token)
    kind = InterpolationKind(args.kind) if args.kind else None
    scores = model.predict(data, kind)
    out = sys.stdout if args.out in (None, "-") else open(args.out, "w", newline="")
    try:
        writer = csv.writer(out)
        writer.writerow(["score"])
        for s in scores:
            writer.writerow([repr(float(s))])
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model = Model.load(args.model)
    specs, label = load_schema(args.schema) if args.schema else (model.specs, None)
    data = _load_data(args, specs, label or args.label)
    print(json.dumps(evaluate_metrics(model, data), sort_keys=True))
    return EXIT_OK


def cmd_check(args) -> int:
    model = Model.load(args.model)
    found = model.violations(args.tolerance)
    theta = np.asarray(model.theta, dtype=float)
    for lo, hi, gap in found:
        lo_v = theta[vertex_index(model.shape, lo)]
        hi_v = theta[vertex_index(model.shape, hi)]
        print(
            f"violation: theta{list(lo)}={lo_v:.12g} > theta{list(hi)}={hi_v:.12g}"
            f" (gap {lo_v - hi_v:.12g})"
        )
    print(f"{len(found)} violations")
    return EXIT_CHECK_FAILED if found else EXIT_OK


def cmd_bench(args) -> int:
    kinds = DEFAULT_KINDS
    if args.kinds:
        with _flag_values():
            kinds = tuple(InterpolationKind(k.strip()) for k in args.kinds.split(","))
    if not 1 <= args.min_d <= args.max_d:
        raise UsageError("need 1 <= --min-d <= --max-d")
    rows = bench_interpolation(
        min_d=args.min_d,
        max_d=args.max_d,
        kinds=kinds,
        target_time=args.target_time,
        repeats=args.repeats,
        seed=args.seed,
    )
    text = format_csv(rows)
    if args.out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return EXIT_OK


# --------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monolattice",
        description="Calibrated monotonic lattice regression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p, need_out: bool):
        p.add_argument("--data", required=True, help="CSV file with a header row")
        p.add_argument("--missing-token", default="", help="cell text meaning missing")
        p.add_argument("--pairs", action="store_true", help="ranking data with +/- column suffixes")
        p.add_argument("--pair-id", default=None, help="two-row ranking data: pair id column")
        if need_out:
            p.add_argument("--out", required=True, help="output path")

    p = sub.add_parser("train", help="fit a model")
    add_data_flags(p, need_out=True)
    p.add_argument("--schema", required=True, help="JSON feature schema")
    p.add_argument("--lattice", default=None, help="per-feature vertex counts, e.g. 2,2,3")
    p.add_argument("--monotonic", default=None, help="directions, e.g. +price,-distance,name")
    p.add_argument("--keypoints", default=None, help="calibration knots: '5' or 'f1:5,f2:3'")
    p.add_argument(
        "--regularizer",
        action="append",
        default=None,
        help="kind:weight[:terms], e.g. torsion:0.01 or laplacian:0.1:4 (repeatable)",
    )
    p.add_argument("--loss", default="squared", choices=[l.value for l in Loss])
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--minibatch", type=int, default=32)
    p.add_argument("--step-size", type=float, default=0.1)
    p.add_argument("--calibrator-step-scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--sync-rounds", type=int, default=1)
    p.add_argument("--kind", default="multilinear", choices=[k.value for k in InterpolationKind])
    p.add_argument(
        "--unseen-category",
        default="error",
        choices=["error", "other"],
        help="map categories unseen at training time to a learned OTHER bucket",
    )
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("predict", help="score rows with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None, help="output CSV (default stdout)")
    p.add_argument("--missing-token", default="")
    p.add_argument("--kind", default=None, choices=[k.value for k in InterpolationKind],
                   help="override the interpolation the model was trained with")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("evaluate", help="metrics of a saved model on labeled data")
    p.add_argument("--model", required=True)
    add_data_flags(p, need_out=False)
    p.add_argument("--schema", default=None, help="schema (for the label column name)")
    p.add_argument("--label", default=None, help="label column if no schema given")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("check", help="verify the monotonicity constraints of a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--tolerance", type=float, default=0.0,
                   help="allowed decrease along a constrained edge (default 0: exact)")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("bench", help="time the interpolation kernels")
    p.add_argument("--min-d", type=int, default=4)
    p.add_argument("--max-d", type=int, default=13)
    p.add_argument("--kinds", default=None, help="comma list, e.g. multilinear,simplex")
    p.add_argument("--target-time", type=float, default=0.05)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
