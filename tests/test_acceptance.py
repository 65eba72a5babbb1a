"""Acceptance battery: ten numbered end-to-end checks (number 06 is retired).

Each numbered check prints exactly one ``[PASS]``/``[FAIL]`` verdict line
with the measured quantities, then asserts.  Run with ``pytest
tests/test_acceptance.py -s`` to see every verdict; without ``-s`` pytest
still surfaces the lines for failing checks.  Tolerances live next to the
measurements they bound.
"""

import json
import math
import time

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from embsde.cli import main
from embsde.cli_io import load_model, save_model, toy_embed
from embsde.diagnostics import (
    drift_vector_field,
    estimate_regularity,
    lyapunov_check,
    moment_monte_carlo,
)
from embsde.estimation import (
    TrainingConfig,
    extract_transitions,
    fit,
    split_by_trajectory,
    transition_losses,
)
from embsde.mlp import glorot_init
from embsde.numeric_core import RngStream, stream_words
from embsde.sde_model import (
    EmbeddingTrajectory,
    LinearSdeSpec,
    SdeModel,
    TimeEncoding,
    linear_sde_model,
    sample_linear_trajectories,
    simulate,
    simulate_ensemble,
)

OU = LinearSdeSpec(a=-1.0, b=0.5, dim=1)
OU_CONFIG = TrainingConfig(
    epochs=20,
    batch_size=256,
    learning_rate=0.05,
    drift_weight=20.0,
    diffusion_weight=1.0,
    seed=77,
    validation_fraction=0.1,
    grad_clip=5.0,
    hidden_dims=(32,),
)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def ou_run():
    """OU dataset and trained model shared by the recovery and loss checks."""
    start = time.perf_counter()
    data = sample_linear_trajectories(OU, 2000, 50, 0.02, seed=20240)
    model, records = fit(data, OU_CONFIG)
    return data, model, records, time.perf_counter() - start


def _epoch0_train_total(data, config):
    """The train total of the model ``fit`` starts from, before any SGD step.

    ``fit`` records no epoch 0, so this rebuilds its start: the split and
    both Glorot initializations off one stream seeded with ``config.seed``.
    """
    rng = RngStream(config.seed)
    train, _ = split_by_trajectory(data, config.validation_fraction, rng)
    encoding = TimeEncoding(kind=config.time_encoding_kind,
                            horizon=max(float(traj.times[-1]) for traj in data),
                            n_pairs=config.time_encoding_pairs)
    dims = [data[0].dim + encoding.width, *config.hidden_dims, data[0].dim]
    model = SdeModel(data[0].dim,
                     glorot_init(dims, rng, config.hidden_activation, "identity"),
                     glorot_init(dims, rng, config.hidden_activation, "softplus"),
                     encoding)
    drift, diffusion = transition_losses(model, extract_transitions(train))
    return config.drift_weight * drift + config.diffusion_weight * diffusion


def _training_lowered_loss(epoch0_total, train_totals):
    """Criterion 03's rule: the final train total lies below the untrained model's."""
    return train_totals[-1] < epoch0_total


def test_criterion_01_gradient_correctness():
    start = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        words = stream_words(9_000 + trial, 0, 5).tolist()
        n_layers = words[0] % 3 + 1
        dims = [w % 5 + 1 for w in words[1 : n_layers + 2]]
        stream = RngStream(9_000 + trial)
        stream.uniforms(n_layers + 2)  # continue past the words the sizes used
        hidden = ("tanh", "relu")[trial % 2]
        output = ("identity", "softplus")[(trial // 2) % 2]
        net = glorot_init(dims, stream, hidden, output)
        # zero biases put dead relu units exactly on the kink; jitter every
        # parameter so the objective is smooth where we difference it
        net.params += 0.3 * stream.normals(net.n_params)
        xs = stream.normals(3 * dims[0]).reshape(3, dims[0])
        coef = stream.normals(3 * dims[-1]).reshape(3, dims[-1])

        def objective(params):
            net.params[:] = params
            return float(np.sum(coef * net.forward(xs)))

        _, cache = net.forward_with_cache(xs)
        grads = net.backward(cache, coef)
        theta = net.flatten_params()
        eps = 1e-5
        fd = np.empty_like(theta)
        for i in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[i] += eps
            down[i] -= eps
            fd[i] = (objective(up) - objective(down)) / (2 * eps)
        rel = np.abs(grads - fd) / np.maximum(np.abs(grads) + np.abs(fd), 1e-6)
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 10.0
    _report(1, "gradient correctness", ok,
            f"max relative error {worst:.3e} over 100 nets in {elapsed:.2f}s "
            f"(need < 1e-4 in < 10s)")


def test_criterion_02_ou_drift_recovery(ou_run):
    _, model, _, elapsed = ou_run
    grid = np.linspace(-2.0, 2.0, 41)[:, None]
    ts = np.full(41, 0.5)
    drift_mae = float(np.mean(np.abs(model.drift(grid, ts) - (-grid))))
    sigma_avg = float(np.mean(model.diffusion(grid, ts)))
    ok = drift_mae < 0.15 and 0.375 <= sigma_avg <= 0.625 and elapsed < 300.0
    _report(2, "OU drift recovery", ok,
            f"drift MAE {drift_mae:.4f} (need < 0.15), sigma avg {sigma_avg:.4f} "
            f"(need within [0.375, 0.625]), data+fit {elapsed:.1f}s (need < 300s)")


def test_criterion_03_loss_curve_shape(ou_run):
    data, _, records, _ = ou_run
    train = {r.epoch: r.total for r in records if r.split == "train"}
    val = {r.epoch: r.total for r in records if r.split == "validation"}
    epoch0 = _epoch0_train_total(data, OU_CONFIG)
    final = train[max(train)]
    lowered = _training_lowered_loss(epoch0, [train[e] for e in sorted(train)])
    best_epoch = min(val, key=val.get)
    ratio = val[best_epoch] / train[best_epoch]
    matched = 0.5 <= ratio <= 2.0
    ok = lowered and matched
    _report(3, "loss-curve shape", ok,
            f"train total {epoch0:.4f} at epoch 0 -> {train[min(train)]:.4f} at epoch 1 -> "
            f"{final:.4f} (need final < epoch 0), "
            f"val/train at best epoch {ratio:.3f} (need within [0.5, 2])")


def test_criterion_03_rule_fails_a_rising_curve():
    # negative totals that rise: "final < 0.5 x first" passed this curve
    assert not _training_lowered_loss(-2.0, [-1.9, -1.5, -1.1])
    assert not _training_lowered_loss(-2.0, [-2.1, -2.0])
    assert _training_lowered_loss(-2.0, [-1.9, -2.05])


def test_criterion_04_moment_consistency():
    start = time.perf_counter()
    model = linear_sde_model(OU)
    t_grid = np.linspace(0.0, 2.0, 401)
    report = moment_monte_carlo(model, x0_mean=1.0, x0_var=0.0, t_grid=t_grid,
                                n_paths=10_000, seed=2026, reference=OU)
    i1, i2 = 200, 400  # t = 1 and t = 2 on the 0.005 grid

    se = math.sqrt(report.var_mc[i1] / report.n_paths)
    mean_err = abs(float(report.mean_mc[i1]) - math.exp(-1.0))
    mean_ok = mean_err < 3.0 * se

    var_rel = abs(float(report.var_mc[i2] - report.var_ode[i2])) / float(report.var_ode[i2])
    var_ok = var_rel < 0.10

    m, v = float(report.mean_mc[i2]), float(report.var_mc[i2])
    e2 = v + m * m
    e3 = float(report.higher_moments_mc[3][i2])
    e4 = float(report.higher_moments_mc[4][i2])
    mu4 = e4 - 4 * m * e3 + 6 * m * m * e2 - 3 * m**4
    kurtosis = mu4 / v**2
    kurt_ok = 2.5 <= kurtosis <= 3.5

    elapsed = time.perf_counter() - start
    ok = mean_ok and var_ok and kurt_ok and elapsed < 60.0
    _report(4, "moment consistency", ok,
            f"mean err {mean_err:.5f} = {mean_err / se:.2f} SE (need < 3), "
            f"var rel err {var_rel:.4f} (need < 0.10), kurtosis {kurtosis:.3f} "
            f"(need in [2.5, 3.5]), {elapsed:.1f}s (need < 60s)")


def test_criterion_05_weak_order():
    model = linear_sde_model(OU)
    x0 = np.array([1.0])
    dts = [0.1, 0.05, 0.025]
    errors = []
    for dt in dts:
        ens = simulate_ensemble(model, x0, n_paths=100_000,
                                n_steps=round(1.0 / dt), dt=dt, seed=314)
        errors.append(abs(float(ens[:, -1, 0].mean()) - math.exp(-1.0)))
    slope = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    ok = 0.6 <= slope <= 1.4
    _report(5, "Euler-Maruyama weak order", ok,
            f"log-log slope {slope:.3f} over dt {dts} (need 1.0 +/- 0.4)")


def test_criterion_07_lyapunov_check():
    contracting = linear_sde_model(LinearSdeSpec(a=-1.0, b=0.0, dim=3))
    probes = RngStream(42).normals(300).reshape(100, 3)
    report = lyapunov_check(contracting, probes, t=0.0)
    values = report.generator_values
    assert values.shape == (100,)
    expected = -2.0 * np.sum(probes**2, axis=1)
    worst = float(np.max(np.abs(values - expected)))
    noise_only = linear_sde_model(LinearSdeSpec(a=0.0, b=1.0, dim=3))
    noise_report = lyapunov_check(noise_only, probes, t=0.0)
    ok = worst < 1e-9 and report.stable_flag and not noise_report.stable_flag
    _report(7, "Lyapunov check", ok,
            f"max |LV + 2|x|^2| = {worst:.2e} at 100 probes (need < 1e-9), "
            f"contracting stable={report.stable_flag}, "
            f"noise-only stable={noise_report.stable_flag}")


def test_criterion_08_regularity_estimation():
    model = linear_sde_model(LinearSdeSpec(a=-2.0, b=0.5, dim=2))
    probes = 2.0 * RngStream(7).normals(92).reshape(46, 2)
    estimate = estimate_regularity(model, probes, t=0.0)
    ok = 1.99 <= estimate.lipschitz_k <= 2.01 and estimate.n_probe_pairs >= 1000
    _report(8, "regularity estimation", ok,
            f"K-hat {estimate.lipschitz_k:.6f} over {estimate.n_probe_pairs} pairs "
            f"(need in [1.99, 2.01] over >= 1000 pairs)")


def test_criterion_09_vector_field_correctness():
    model = linear_sde_model(LinearSdeSpec(a=-1.0, b=0.3, dim=2))
    # axis-aligned spread with distinct variances: the PCA plane is the
    # identity map, so plane coordinates are state coordinates
    states = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    data = [EmbeddingTrajectory(states, np.arange(4.0))]
    grid = drift_vector_field(model, data, grid_resolution=5, t=0.0)
    arrow_err = float(np.max(np.abs(grid.drift_arrows - (-grid.grid_points))))
    heat_err = float(np.max(np.abs(grid.diffusion_magnitudes - 0.3 * math.sqrt(2.0))))
    ok = arrow_err < 1e-9 and heat_err < 1e-9
    _report(9, "vector-field correctness", ok,
            f"max |arrow + g| = {arrow_err:.2e}, max |heat - 0.3*sqrt(2)| = "
            f"{heat_err:.2e} (both need < 1e-9)")


def test_criterion_10_determinism_and_persistence(tmp_path):
    data = str(tmp_path / "data.jsonl")
    args = ["synth-ou", "--out", data, "--n-traj", "30", "--steps", "12",
            "--dt", "0.05", "--seed", "11"]
    assert main(args) == 0
    first_bytes = open(data, "rb").read()
    assert main(args) == 0
    jsonl_same = first_bytes == open(data, "rb").read()

    models = [str(tmp_path / f"model{i}.json") for i in (0, 1)]
    csvs = [str(tmp_path / f"losses{i}.csv") for i in (0, 1)]
    for model_path, csv_path in zip(models, csvs):
        assert main(["train", "--data", data, "--out", model_path, "--epochs", "3",
                     "--hidden", "8", "--seed", "5"]) == 0
        assert main(["losses", "--model", model_path, "--out", csv_path]) == 0
    csv_same = open(csvs[0], "rb").read() == open(csvs[1], "rb").read()

    stream = RngStream(123)
    encoding = TimeEncoding(kind="scalar_normalized", horizon=1.5)
    width = 3 + encoding.width
    saved = SdeModel(
        dim=3,
        drift_net=glorot_init([width, 8, 3], stream),
        diffusion_net=glorot_init([width, 8, 3], stream, output_activation="softplus"),
        time_encoding=encoding,
    )
    path = str(tmp_path / "roundtrip.json")
    save_model(path, saved)
    restored = load_model(path).model
    xs = stream.normals(60).reshape(20, 3)
    ts = stream.uniforms(20)
    forward_err = max(
        float(np.max(np.abs(restored.drift(xs, ts) - saved.drift(xs, ts)))),
        float(np.max(np.abs(restored.diffusion(xs, ts) - saved.diffusion(xs, ts)))),
    )
    ok = jsonl_same and csv_same and forward_err <= 1e-15
    _report(10, "determinism and persistence", ok,
            f"rerun JSONL identical: {jsonl_same}, rerun CSV identical: {csv_same}, "
            f"save/load forward error {forward_err:.2e} (need <= 1e-15)")


def test_criterion_11_answer_pipeline(tmp_path, capsys):
    model = linear_sde_model(LinearSdeSpec(a=-0.5, b=0.25, dim=5))
    model_path = str(tmp_path / "model.json")
    save_model(model_path, model)
    question = "what is the capital of France"
    n_steps = 7
    rc = main(["answer", "--model", model_path, "--question", question,
               "--steps", str(n_steps), "--dt", "0.25", "--seed", "3"])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    states = np.asarray(record["embeddings"])

    embedded = toy_embed(question, 5)
    x0 = embedded.states.mean(axis=0)
    start_exact = np.array_equal(states[0], x0)
    reference = simulate(model, x0, n_steps=n_steps, dt=0.25, seed=3)
    steps_match = np.array_equal(states, reference.states)
    ok = (len(embedded) == 6 and start_exact and states.shape[0] == n_steps + 1
          and steps_match)
    _report(11, "answer pipeline", ok,
            f"6-word question, start equals mean embedding exactly: {start_exact}, "
            f"{states.shape[0] - 1} integration steps match simulate: {steps_match}")
