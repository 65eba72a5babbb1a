import importlib.util
from pathlib import Path

import pytest

from embsde.estimation import TrainingConfig, fit
from embsde.sde_model import LinearSdeSpec, sample_linear_trajectories

OU_SPEC = LinearSdeSpec(a=-1.0, b=0.5, dim=1)


@pytest.fixture(scope="session")
def ou_trained():
    """Model fitted to a mid-size mean-reverting dataset, shared across tests.

    Training costs a couple of seconds, so it runs once per session; tests
    must not mutate the returned model.
    """
    trajectories = sample_linear_trajectories(OU_SPEC, 500, 30, 0.05, seed=501)
    config = TrainingConfig(
        epochs=20,
        batch_size=256,
        learning_rate=0.05,
        drift_weight=20.0,
        diffusion_weight=1.0,
        grad_clip=5.0,
        hidden_dims=(16,),
        seed=7,
        validation_fraction=0.2,
    )
    model, records = fit(trajectories, config)
    return OU_SPEC, model, records


@pytest.fixture(scope="session")
def tool():
    """Loader of a script in ``tools/`` (not a package) as a module: ``tool("equivalence")``."""

    def load(name: str):
        path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return load
