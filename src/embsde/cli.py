"""Command-line interface: data synthesis, training, simulation, diagnostics.

Exit codes: 0 on success, 1 for anything wrong with inputs (bad flags,
malformed files, dimension mismatches, unreadable or unwritable paths), 2 for
numerical failures at runtime (training divergence, simulation blow-up, failed
estimates).  The ``SDE_TRAJ_SEED`` environment variable, when set, overrides
``--seed`` for every subcommand that takes one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import asdict

import numpy as np

from .cli_io import (
    load_model,
    load_trajectories,
    save_model,
    save_trajectories,
    toy_embed,
    write_comparison_csv,
    write_heatmap_csv,
    write_importance_csv,
    write_losses_csv,
    write_moments_csv,
    write_vector_field_csv,
    _atomic_write_text,
    _trajectory_record,
)
from .diagnostics import (
    compare_trajectories,
    drift_vector_field,
    estimate_regularity,
    lyapunov_check,
    moment_monte_carlo,
    uncertainty_heatmap,
    word_importance,
)
from .errors import DimensionMismatchError, EmbsdeError, NumericalError, ValidationError
from .estimation import TrainingConfig, fit
from .sde_model import LinearSdeSpec, generate_answer, sample_linear_trajectories, simulate

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    # usage problems are validation errors: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _parse_hidden(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ValidationError(f"bad --hidden value {text!r}: {exc}") from exc
    if not dims or any(d < 1 for d in dims):
        raise ValidationError(f"bad --hidden value {text!r}: need positive widths")
    return dims


def _parse_oracle(text: str) -> LinearSdeSpec:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError(f"--oracle expects 'a,b', got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ValidationError(f"--oracle expects two numbers: {exc}") from exc
    return LinearSdeSpec(a=a, b=b, dim=1)


def _load_init_vector(path: str, dim: int) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read start vector from {path}: {exc}") from exc
    vec = np.asarray(data, dtype=np.float64)
    if vec.shape != (dim,):
        raise ValidationError(f"start vector in {path} has shape {vec.shape}, model dim {dim}")
    return vec


def _load_nonempty(path: str, purpose: str = "") -> list:
    """The trajectories in ``path``; an empty file is refused, naming ``purpose``."""
    trajectories = load_trajectories(path)
    if not trajectories:
        raise ValidationError(f"{path}: no trajectories{purpose}")
    return trajectories


def _subsample_probes(states: np.ndarray, count: int) -> np.ndarray:
    if states.shape[0] <= count:
        return states
    idx = np.unique(np.linspace(0, states.shape[0] - 1, count).round().astype(int))
    return states[idx]


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_synth_ou(args) -> int:
    spec = LinearSdeSpec(a=args.a, b=args.b, dim=args.dim)
    trajectories = sample_linear_trajectories(
        spec, args.n_traj, args.steps, args.dt, seed=args.seed
    )
    save_trajectories(args.out, trajectories)
    print(
        f"wrote {args.out}: {len(trajectories)} trajectories, dim={args.dim}, "
        f"{args.steps} steps, dt={args.dt}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    trajectories = _load_nonempty(args.data, " to train on")
    n_transitions = sum(len(t) - 1 for t in trajectories)
    if args.dim_check:
        print(
            f"data OK: {len(trajectories)} trajectories, dim={trajectories[0].dim}, "
            f"{n_transitions} transitions"
        )
        return EXIT_OK
    if args.out is None:
        raise ValidationError("--out is required to train (or pass --dim-check)")
    config = TrainingConfig(
        epochs=args.epochs,
        batch_size=args.batch,
        learning_rate=args.lr,
        drift_weight=args.drift_weight,
        diffusion_weight=args.diffusion_weight,
        seed=args.seed,
        validation_fraction=args.val_frac,
        grad_clip=args.grad_clip,
        hidden_dims=_parse_hidden(args.hidden),
        time_encoding_kind=args.time_encoding,
    )
    model, records = fit(trajectories, config)
    save_model(args.out, model, training_config=asdict(config), loss_history=records)
    train_records = [r for r in records if r.split == "train"]
    print(
        f"wrote {args.out}: dim={model.dim}, {n_transitions} transitions, "
        f"{config.epochs} epochs, train total {train_records[0].total:.6g} -> "
        f"{train_records[-1].total:.6g}"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    model = load_model(args.model).model
    if args.init is not None:
        x0 = toy_embed(args.init, model.dim).states.mean(axis=0)
    else:
        x0 = _load_init_vector(args.init_vec, model.dim)
    trajectory = simulate(model, x0, n_steps=args.steps, dt=args.dt, seed=args.seed)
    save_trajectories(args.out, [trajectory], ids=["simulated-0"])
    print(f"wrote {args.out}: {len(trajectory)} states, dt={args.dt}, seed={args.seed}")
    return EXIT_OK


def cmd_answer(args) -> int:
    model = load_model(args.model).model
    question = toy_embed(args.question, model.dim)
    trajectory = generate_answer(
        model, question.states, n_steps=args.steps, dt=args.dt, seed=args.seed
    )
    if args.out is not None:
        save_trajectories(args.out, [trajectory], ids=["answer-0"])
        print(
            f"wrote {args.out}: {len(question)} question tokens -> "
            f"{len(trajectory)} answer states"
        )
    else:
        print(_trajectory_record(trajectory, "answer-0"))
    return EXIT_OK


def cmd_diagnose(args) -> int:
    model = load_model(args.model).model
    trajectories = _load_nonempty(args.data, " to diagnose against")
    reference = None if args.oracle is None else _parse_oracle(args.oracle)
    if reference is not None and trajectories[0].dim != 1:
        raise ValidationError("--oracle moment analysis needs dim-1 data")
    if trajectories[0].dim != model.dim:
        raise DimensionMismatchError(f"probe dim {trajectories[0].dim}, model dim {model.dim}")
    os.makedirs(args.out_dir, exist_ok=True)

    pooled = np.vstack([t.states for t in trajectories])
    probes = _subsample_probes(pooled, args.probes)
    regularity = estimate_regularity(model, probes, t=args.t)
    lyapunov = lyapunov_check(model, probes, t=args.t)

    first = trajectories[0]
    _, errors = compare_trajectories(first, model)
    write_comparison_csv(os.path.join(args.out_dir, "trajectory_compare.csv"), first.times, errors)
    heatmap = uncertainty_heatmap(model, first)
    write_heatmap_csv(os.path.join(args.out_dir, "heatmap.csv"), heatmap, first.tokens)

    if reference is not None:
        starts = np.array([t.states[0, 0] for t in trajectories])
        report = moment_monte_carlo(
            model,
            x0_mean=float(starts.mean()),
            x0_var=float(starts.var()),
            t_grid=first.times - first.times[0],
            n_paths=args.paths,
            seed=args.seed,
            reference=reference,
        )
        write_moments_csv(os.path.join(args.out_dir, "moments.csv"), report)

    summary = {
        "regularity": {
            "lipschitz_k": regularity.lipschitz_k,
            "growth_c": regularity.growth_c,
            "n_probe_pairs": regularity.n_probe_pairs,
        },
        "lyapunov": {
            "max_generator": lyapunov.max_generator,
            "stable": lyapunov.stable_flag,
            "n_probes": len(lyapunov.generator_values),
        },
        "probe_time": args.t,
    }
    _atomic_write_text(
        os.path.join(args.out_dir, "diagnostics.json"),
        json.dumps(summary, indent=2, allow_nan=False) + "\n",
    )
    print(
        f"wrote {args.out_dir}: K={regularity.lipschitz_k:.6g} C={regularity.growth_c:.6g} "
        f"max LV={lyapunov.max_generator:.6g} stable={lyapunov.stable_flag}"
        + (" (+moments.csv)" if reference is not None else "")
    )
    return EXIT_OK


def cmd_field(args) -> int:
    model = load_model(args.model).model
    trajectories = _load_nonempty(args.data, " for the plane fit")
    grid = drift_vector_field(model, trajectories, grid_resolution=args.res, t=args.t)
    write_vector_field_csv(args.out, grid)
    print(f"wrote {args.out}: {grid.grid_points.shape[0]} grid points")
    return EXIT_OK


def cmd_importance(args) -> int:
    trajectories = _load_nonempty(args.data)
    # one stderr line of our own, not the library warning with its source path
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        pairs = word_importance(trajectories[0])
    for warning in caught:
        print(f"embsde: warning: {warning.message}", file=sys.stderr)
    write_importance_csv(args.out, pairs)
    print(f"wrote {args.out}: {len(pairs)} tokens")
    return EXIT_OK


def cmd_losses(args) -> int:
    bundle = load_model(args.model)
    if not bundle.loss_history:
        raise ValidationError(f"{args.model}: model file carries no loss history")
    write_losses_csv(args.out, bundle.loss_history)
    print(f"wrote {args.out}: {len(bundle.loss_history)} records")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="embsde",
        description="Neural SDE over embedding trajectories: train, simulate, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth-ou", help="write a synthetic linear-SDE trajectory dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--a", type=float, default=-1.0)
    p.add_argument("--b", type=float, default=0.5)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--n-traj", type=int, default=200)
    p.add_argument("--steps", type=int, default=30)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_synth_ou)

    p = sub.add_parser("train", help="fit drift and diffusion networks to a JSONL dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--batch", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim-check", action="store_true",
                   help="validate the data file and report shapes without training")
    p.add_argument("--val-frac", type=float, default=0.0)
    p.add_argument("--drift-weight", type=float, default=1.0)
    p.add_argument("--diffusion-weight", type=float, default=1.0)
    p.add_argument("--grad-clip", type=float, default=None)
    p.add_argument("--hidden", default="32", help="comma-separated hidden widths")
    p.add_argument("--time-encoding", default="scalar_normalized",
                   choices=["none", "scalar_normalized", "sinusoidal"])
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("simulate", help="integrate one path from a start state")
    p.add_argument("--model", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--init", help="tokens; the start state is their mean toy embedding")
    group.add_argument("--init-vec", help="JSON file holding one start vector")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--dt", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("answer", help="generate an answer trajectory from a question")
    p.add_argument("--model", required=True)
    p.add_argument("--question", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--dt", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="JSONL path; omitted prints the record to stdout")
    p.set_defaults(handler=cmd_answer)

    p = sub.add_parser("diagnose", help="regularity, stability, and moment checks")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--oracle", help="'a,b' of a linear reference for moment curves")
    p.add_argument("--probes", type=int, default=64)
    p.add_argument("--paths", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t", type=float, default=0.0, help="time at which fields are probed")
    p.set_defaults(handler=cmd_diagnose)

    p = sub.add_parser("field", help="drift vector field on the data's PCA plane")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--res", type=int, default=20)
    p.add_argument("--out", required=True)
    p.add_argument("--t", type=float, default=0.0)
    p.set_defaults(handler=cmd_field)

    p = sub.add_parser("importance", help="per-token embedding norms")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_importance)

    p = sub.add_parser("losses", help="export a trained model's loss history")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_losses)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    env_seed = os.environ.get("SDE_TRAJ_SEED")
    if env_seed is not None and hasattr(args, "seed"):
        try:
            args.seed = int(env_seed)
        except ValueError:
            print(f"embsde: error: SDE_TRAJ_SEED={env_seed!r} is not an integer", file=sys.stderr)
            return EXIT_VALIDATION
    try:
        return args.handler(args)
    except NumericalError as exc:
        print(f"embsde: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except EmbsdeError as exc:
        print(f"embsde: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"embsde: i/o error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
