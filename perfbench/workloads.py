"""The three workloads: seeded inputs, one timed pass, and its output checks.

Each workload builds its inputs from the benchmark seed in ``__init__``
(counted as set-up) and then runs ``run_pass`` repeatedly.  A pass is the
whole pipeline a user runs (simulate, fit, verify, answer requests) and
returns a ``PassResult`` with its stage timings and checks.  Passes within
one process repeat the same inputs, so their hashes must agree.

Every pass times four stages so every workload reports every end-to-end
metric: simulation (path-steps/s), fitting (transitions/s), verification
(s) and single-client closed-loop answer requests (latency).
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from embsde import cli, cli_io, diagnostics, estimation, mlp, numeric_core, sde_model

clock = time.perf_counter

OU = sde_model.LinearSdeSpec(a=-1.0, b=0.5, dim=1)
# the acceptance ``ou_run`` fit; the fingerprint run also fixes its seeds
OU_FIT = dict(epochs=20, batch_size=256, learning_rate=0.05, drift_weight=20.0,
              diffusion_weight=1.0, validation_fraction=0.1, grad_clip=5.0, hidden_dims=(32,))
ROADMAP_FINGERPRINTS = {"data": "d6e3065565ff243d", "model": "71756a9a878fce3b"}

LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))


@dataclass
class PassResult:
    wall_s: float = 0.0
    fit_s: float = 0.0
    fit_samples: int = 0
    sim: list = field(default_factory=list)  # (path_steps, seconds) per simulation call
    verify_s: float = 0.0
    answer_s: list = field(default_factory=list)
    ops: int = 0
    checks: list = field(default_factory=list)  # (name, ok, detail)
    hashes: dict = field(default_factory=dict)
    layers: dict | None = None

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


def timed(fn, *args, **kwargs):
    start = clock()
    result = fn(*args, **kwargs)
    return result, clock() - start


def sha16(*arrays) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return digest.hexdigest()[:16]


def model_hash(model, records) -> str:
    """The ROADMAP model fingerprint: both nets' parameters, then every record total."""
    return sha16(model.drift_net.flatten_params(), model.diffusion_net.flatten_params(),
                 [r.total for r in records])


def sentences(rng: np.random.Generator, count: int, vocab_size: int = 2000) -> list[str]:
    """``count`` sentences over a seeded made-up vocabulary.

    Lengths cycle through 8..24 words in seeded order, so the token count,
    and with it the work, does not depend on the seed.  Words follow a Zipf
    law (frequency ~ 1 / rank) as in real text; the frequent words also give
    the pooled embeddings a clear top principal component, so the PCA
    converges in a number of iterations that hardly varies with the seed.
    """
    words = set()
    while len(words) < vocab_size:
        words.add("".join(rng.choice(LETTERS, int(rng.integers(3, 10)))))
    vocab = rng.permutation(sorted(words))
    zipf = 1.0 / np.arange(1, vocab_size + 1)
    lengths = rng.permutation(8 + np.arange(count) % 17)
    return [" ".join(rng.choice(vocab, int(n), p=zipf / zipf.sum())) for n in lengths]


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(1, 2**31, count)]


def n_train(n_traj: int, transitions: int, fraction: float) -> int:
    """Train transitions after a trajectory-level validation split.

    Exact when every trajectory has the same length; otherwise the nominal
    share ``(n_traj - n_val) / n_traj`` of all transitions.
    """
    n_val = min(int(round(fraction * n_traj)), n_traj - 1)
    return round(transitions * (n_traj - n_val) / n_traj)


def answer_requests(result: PassResult, model, questions, answer_seeds, dim: int) -> None:
    """Closed-loop library answer requests: embed the question, integrate 50 steps."""

    def answer(i):
        return sde_model.generate_answer(model, cli_io.toy_embed(questions[i], dim).states,
                                         n_steps=50, dt=0.02, seed=answer_seeds[i]).states

    finite = True
    for i in range(len(questions)):
        start = clock()
        states = answer(i)
        result.answer_s.append(clock() - start)
        result.ops += 1
        finite &= states.shape == (51, dim) and bool(np.all(np.isfinite(states)))
        if i == 0:
            first = states
    result.ops += 1
    result.check("answers_finite", finite)
    result.check("answer_repeatable", np.array_equal(answer(0), first))


class OuD1:
    """The acceptance OU fit at d=1 through the library, with no file I/O.

    At d=1 every numpy call is tiny, so per-call Python overhead sets the
    time: the per-path sampler loop, the per-epoch shuffle and evaluation,
    and SGD.  A pass samples 300 paths (in six sampler calls of 50, each
    timed) and fits 40 epochs where the acceptance config samples 2000 and
    fits 20, so that a pass fits the run time while the fit still takes
    enough SGD steps to pass the acceptance drift check; the fingerprint
    run uses the full config.
    """

    name = "ou_d1"
    min_passes = 2
    n_chunks, chunk_paths, n_steps, dt = 6, 50, 50, 0.02
    n_paths = n_chunks * chunk_paths
    epochs = 40
    mc_paths = 2000
    verify_repeats = 3  # the diagnostics take about 0.1 s: time them three times
    n_answers = 100
    var_tolerance = 0.25

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.fit_seed, self.mc_seed, *self.data_seeds = seeds(rng, 2 + self.n_chunks)
        self.config = estimation.TrainingConfig(**{**OU_FIT, "epochs": self.epochs},
                                               seed=self.fit_seed)
        self.questions = sentences(rng, self.n_answers)
        self.answer_seeds = seeds(rng, self.n_answers)

    def run_pass(self) -> PassResult:
        result = PassResult()
        start = clock()
        data = []
        for seed in self.data_seeds:
            chunk, sim_s = timed(sde_model.sample_linear_trajectories, OU, self.chunk_paths,
                                 self.n_steps, self.dt, seed=seed)
            data += chunk
            result.sim.append((self.chunk_paths * self.n_steps, sim_s))
        (model, records), result.fit_s = timed(estimation.fit, data, self.config)
        result.fit_samples = self.config.epochs * n_train(
            self.n_paths, self.n_paths * self.n_steps, self.config.validation_fraction)
        result.ops += self.n_chunks + 1

        starts = np.array([traj.states[0, 0] for traj in data])
        pooled = np.vstack([traj.states for traj in data])
        probes = pooled[np.linspace(0, pooled.shape[0] - 1, 64).round().astype(int)]
        verify_s = []
        for _ in range(self.verify_repeats):
            verify_start = clock()
            report = diagnostics.moment_monte_carlo(
                model, x0_mean=float(starts.mean()), x0_var=float(starts.var()),
                t_grid=data[0].times - data[0].times[0], n_paths=self.mc_paths,
                seed=self.mc_seed, reference=OU)
            regularity = diagnostics.estimate_regularity(model, probes, t=0.0)
            lyapunov = diagnostics.lyapunov_check(model, probes, t=0.0)
            verify_s.append(clock() - verify_start)
            result.ops += 3
        result.verify_s = statistics.median(verify_s)

        answer_requests(result, model, self.questions, self.answer_seeds, dim=1)

        grid = np.linspace(-2.0, 2.0, 41)[:, None]
        ts = np.full(41, 0.5)
        drift_mae = float(np.mean(np.abs(model.drift(grid, ts) + grid)))
        sigma_avg = float(np.mean(model.diffusion(grid, ts)))
        var_err = float(np.max(np.abs(report.var_mc - report.var_ode) / report.var_ode))
        result.check("drift_mae", drift_mae < 0.15, f"{drift_mae:.4f} < 0.15")
        result.check("sigma_avg", 0.375 <= sigma_avg <= 0.625,
                     f"{sigma_avg:.4f} in [0.375, 0.625]")
        result.check("mc_var_vs_ode", var_err <= self.var_tolerance,
                     f"max relative error {var_err:.4f} <= {self.var_tolerance}")
        result.check("diagnostics_finite", all(map(math.isfinite, (
            regularity.lipschitz_k, regularity.growth_c, lyapunov.max_generator))))
        result.hashes = {"data": sha16(*(traj.states for traj in data)),
                         "model": model_hash(model, records)}
        result.wall_s = clock() - start
        return result

    @staticmethod
    def fingerprints() -> dict:
        """Both ROADMAP determinism fingerprints on the full acceptance config."""
        data = sde_model.sample_linear_trajectories(OU, 2000, 50, 0.02, seed=20240)
        model, records = estimation.fit(data, estimation.TrainingConfig(seed=77, **OU_FIT))
        found = {"data": sha16(*(traj.states for traj in data)),
                 "model": model_hash(model, records)}
        return {"found": found, "roadmap": ROADMAP_FINGERPRINTS,
                "match": {k: found[k] == ROADMAP_FINGERPRINTS[k] for k in found}}


class EnsembleD64:
    """The vectorised integrator at embedding width d=64, no file I/O.

    A seeded Glorot model ``[65, 128, 64]`` (tanh; identity drift head,
    softplus diffusion head) integrates 1000 paths x 200 steps from seeded
    starts, so ``indexed_normals`` and batched MLP forwards do the work.
    The pass then refits a model to 100 of the paths for two epochs (the
    fit at medium width), verifies (vector field with Jacobi PCA at d=64;
    regularity and Lyapunov on 256 end states) and serves answers.
    """

    name = "ensemble_d64"
    min_passes = 3
    dim, hidden = 64, 128
    n_paths, n_steps, dt = 1000, 200, 0.02
    n_fit_paths = 100
    n_answers = 100

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        model_seed, self.sim_seed, fit_seed = seeds(rng, 3)
        encoding = sde_model.TimeEncoding(kind="scalar_normalized",
                                          horizon=self.n_steps * self.dt)
        dims = [self.dim + encoding.width, self.hidden, self.dim]
        stream = numeric_core.RngStream(model_seed)
        self.model = sde_model.SdeModel(
            self.dim,
            mlp.glorot_init(dims, stream, "tanh", "identity"),
            mlp.glorot_init(dims, stream, "tanh", "softplus"),
            encoding,
        )
        self.starts = rng.standard_normal((self.n_paths, self.dim))
        self.times = self.dt * np.arange(self.n_steps + 1)
        self.config = estimation.TrainingConfig(
            epochs=2, batch_size=256, learning_rate=0.05, validation_fraction=0.1,
            grad_clip=5.0, hidden_dims=(32,), seed=fit_seed)
        self.questions = sentences(rng, self.n_answers)
        self.answer_seeds = seeds(rng, self.n_answers)

    def run_pass(self) -> PassResult:
        result = PassResult()
        start = clock()
        states, sim_s = timed(sde_model.simulate_ensemble, self.model, self.starts,
                              n_paths=self.n_paths, n_steps=self.n_steps, dt=self.dt,
                              seed=self.sim_seed)
        result.sim.append((self.n_paths * self.n_steps, sim_s))
        result.ops += 1
        result.check("states_finite", bool(np.all(np.isfinite(states))))

        paths = [sde_model.EmbeddingTrajectory(states[p], self.times)
                 for p in range(self.n_fit_paths)]
        ends = states[:256, -1]
        t_end = float(self.times[-1])
        verify_start = clock()
        field_grid = diagnostics.drift_vector_field(self.model, paths, grid_resolution=20, t=0.0)
        regularity = diagnostics.estimate_regularity(self.model, ends, t=t_end)
        lyapunov = diagnostics.lyapunov_check(self.model, ends, t=t_end)
        result.verify_s = clock() - verify_start
        result.ops += 3

        (fitted, records), result.fit_s = timed(estimation.fit, paths, self.config)
        result.fit_samples = self.config.epochs * n_train(
            self.n_fit_paths, self.n_fit_paths * self.n_steps, self.config.validation_fraction)
        result.ops += 1

        answer_requests(result, self.model, self.questions, self.answer_seeds, dim=self.dim)

        basis = field_grid.plane_basis
        pooled = np.vstack([p.states for p in paths])
        spread = ((pooled - field_grid.plane_mean) @ basis.T).var(axis=0)
        gram_err = float(np.max(np.abs(basis @ basis.T - np.eye(2))))
        result.check("pca_orthonormal", gram_err < 1e-10, f"max |B B' - I| = {gram_err:.2e}")
        result.check("pca_descending", spread[0] >= spread[1],
                     f"explained variance {spread[0]:.6g} >= {spread[1]:.6g}")
        result.check("diagnostics_finite", all(map(math.isfinite, (
            regularity.lipschitz_k, regularity.growth_c, lyapunov.max_generator))))
        result.check("fit_losses_finite", all(math.isfinite(r.total) for r in records))
        result.hashes = {"states": sha16(states), "model": model_hash(fitted, records)}
        result.wall_s = clock() - start
        return result


class CorpusD768:
    """The README CLI walkthrough at real embedding width, in-process.

    Seeded sentences go through ``toy_embed`` at d=768 into a JSONL file,
    then ``embsde.cli.main`` runs ``train --dim-check``, ``train``,
    ``losses``, ``diagnose``, ``field`` (power-iteration PCA at d=768),
    ``importance``, ``simulate`` and closed-loop ``answer`` requests.  Each
    subcommand reloads the JSONL and each request reloads the model JSON,
    so ``cli_io`` parsing and writing dominate.  A pass serves 50 answers;
    the minimum of two passes gives the 100 samples the 90th percentile
    needs.
    """

    name = "corpus_d768"
    min_passes = 2
    dim = 768
    n_sentences = 30
    epochs = 5
    n_simulate = 10
    n_answers = 50

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.sentences = sentences(rng, self.n_sentences)
        self.questions = sentences(rng, self.n_answers + self.n_simulate)
        train_seed, diag_seed = seeds(rng, 2)
        self.answer_seeds = seeds(rng, self.n_answers + self.n_simulate)
        self.path = {name: os.path.join(workdir, name) for name in (
            "data.jsonl", "model.json", "roundtrip.json", "losses.csv", "diag",
            "field.csv", "importance.csv", "path.jsonl", "first.jsonl", "answer.jsonl",
            "repeat.jsonl")}
        p = self.path
        self.pipeline = [
            ("dim_check", ["train", "--data", p["data.jsonl"], "--dim-check"]),
            ("train", ["train", "--data", p["data.jsonl"], "--out", p["model.json"],
                       "--epochs", str(self.epochs), "--val-frac", "0.1", "--grad-clip", "5",
                       "--seed", str(train_seed)]),
            ("losses", ["losses", "--model", p["model.json"], "--out", p["losses.csv"]]),
            ("diagnose", ["diagnose", "--model", p["model.json"], "--data", p["data.jsonl"],
                          "--out-dir", p["diag"], "--seed", str(diag_seed)]),
            ("field", ["field", "--model", p["model.json"], "--data", p["data.jsonl"],
                       "--out", p["field.csv"]]),
            ("importance", ["importance", "--data", p["data.jsonl"],
                            "--out", p["importance.csv"]]),
        ]

    def _answer_argv(self, i: int, out: str) -> list[str]:
        return ["answer", "--model", self.path["model.json"], "--question", self.questions[i],
                "--steps", "50", "--dt", "0.02", "--seed", str(self.answer_seeds[i]),
                "--out", out]

    def _cli(self, result: PassResult, argv: list[str]) -> float:
        result.ops += 1
        rc, seconds = timed(cli.main, argv)
        result.check(f"exit_{argv[0]}", rc == 0, f"exit code {rc}")
        return seconds

    def run_pass(self) -> PassResult:
        result = PassResult()
        p = self.path
        start = clock()
        trajectories = [cli_io.toy_embed(s, self.dim) for s in self.sentences]
        cli_io.save_trajectories(p["data.jsonl"], trajectories)
        reloaded = cli_io.load_trajectories(p["data.jsonl"])
        result.ops += 3
        result.check("jsonl_roundtrip", len(reloaded) == len(trajectories) and all(
            np.array_equal(a.states, b.states) and a.tokens == b.tokens
            for a, b in zip(trajectories, reloaded)))

        stage_s = {name: self._cli(result, argv) for name, argv in self.pipeline}
        transitions = sum(len(t) - 1 for t in trajectories)
        result.fit_s = stage_s["train"]
        result.fit_samples = self.epochs * n_train(len(trajectories), transitions, 0.1)
        result.verify_s = stage_s["diagnose"] + stage_s["field"]

        bundle = cli_io.load_model(p["model.json"])
        cli_io.save_model(p["roundtrip.json"], bundle.model, bundle.training_config,
                          bundle.loss_history)
        restored = cli_io.load_model(p["roundtrip.json"]).model
        result.ops += 3
        probe, times = trajectories[0].states, trajectories[0].times
        result.check("model_roundtrip_exact", all(
            np.array_equal(getattr(bundle.model, f)(probe, times), getattr(restored, f)(probe, times))
            for f in ("drift", "diffusion")))

        for i in range(self.n_answers, self.n_answers + self.n_simulate):
            seconds = self._cli(result, [
                "simulate", "--model", p["model.json"], "--init", self.questions[i],
                "--steps", "50", "--dt", "0.02", "--seed", str(self.answer_seeds[i]),
                "--out", p["path.jsonl"]])
            result.sim.append((50, seconds))
        for i in range(self.n_answers):
            out = p["first.jsonl"] if i == 0 else p["answer.jsonl"]
            result.answer_s.append(self._cli(result, self._answer_argv(i, out)))
        self._cli(result, self._answer_argv(0, p["repeat.jsonl"]))
        result.check("answer_bytes_repeatable",
                     read_bytes(p["repeat.jsonl"]) == read_bytes(p["first.jsonl"]))

        result.hashes = {"model_file": hashlib.sha256(read_bytes(p["model.json"])).hexdigest()[:16]}
        result.wall_s = clock() - start
        return result


WORKLOADS = {cls.name: cls for cls in (OuD1, EnsembleD64, CorpusD768)}
