"""Equivalence manifest: the sha256 of everything a fixed set of CLI runs leaves behind.

Usage::

    python3 tools/equivalence.py [--out PATH]

Each section runs in a fresh temporary directory, every command as its own
``python -m embsde.cli`` process on this checkout's ``src``:

* ``readme``: the README's CLI walkthrough, as read by :func:`readme_walkthrough`,
  which the test suite's walkthrough test runs too;
* ``d3``: a d=3 dataset through ``train --hidden 16,8 --time-encoding
  sinusoidal``, ``diagnose`` at 64 and 256 probes, ``field``, ``importance``
  with and without tokens, ``answer`` and ``simulate --init-vec``;
* ``refusals``: inputs the CLI must refuse, among them non-finite float
  flags, a finite ``--dt`` whose time grid overflows, ``diagnose --probes``
  below 2 and ``diagnose --paths`` below 100 without ``--oracle``.

The manifest maps ``<section>/<step>/exit``, ``.../stdout``, ``.../stderr``
and ``.../file:<name>`` (each file the step created or changed) to a sha256.
Before hashing, the checkout path and the temporary directory in stdout and
stderr become ``<checkout>`` and ``<work>``, so two checkouts of equal
content give equal manifests wherever they live.  The JSON output holds one
entry per line: ``diff`` of two manifests lists every entry that differs.
Hashes are tied to one machine and BLAS build, as the README says of outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TOKENS_D3 = ("echo '{\"embeddings\": [[0.5, 1.0, -2.0], [1.5, 0.0, 0.25], [-1.0, 2.0, 0.5]], "
             "\"tokens\": [\"the\", \"river\", \"runs\"]}' > tokens.jsonl")
MODEL_D3 = ["--model", "model.json"]
DATA_D3 = ["--data", "data.jsonl"]

# (step name, CLI argv or shell line); steps run in order and share the directory
D3 = [
    ("synth", ["synth-ou", "--out", "data.jsonl", "--dim", "3", "--a", "-0.8", "--b", "0.3",
               "--n-traj", "30", "--steps", "20", "--dt", "0.05", "--seed", "11"]),
    ("train", ["train", *DATA_D3, "--out", "model.json", "--epochs", "4", "--hidden", "16,8",
               "--time-encoding", "sinusoidal", "--val-frac", "0.2", "--seed", "5"]),
    ("losses", ["losses", *MODEL_D3, "--out", "losses.csv"]),
    ("diagnose-64", ["diagnose", *MODEL_D3, *DATA_D3, "--out-dir", "diag64", "--seed", "2"]),
    ("diagnose-256", ["diagnose", *MODEL_D3, *DATA_D3, "--out-dir", "diag256",
                      "--probes", "256", "--t", "0.5"]),
    ("field", ["field", *MODEL_D3, *DATA_D3, "--res", "8", "--out", "field.csv"]),
    ("importance-plain", ["importance", *DATA_D3, "--out", "importance-plain.csv"]),
    ("tokens-file", TOKENS_D3),
    ("importance-tokens", ["importance", "--data", "tokens.jsonl",
                           "--out", "importance-tokens.csv"]),
    ("answer-stdout", ["answer", *MODEL_D3, "--question", "where does the river go",
                       "--steps", "12", "--dt", "0.05", "--seed", "4"]),
    ("answer-out", ["answer", *MODEL_D3, "--question", "where does the river go",
                    "--steps", "12", "--dt", "0.05", "--seed", "4", "--out", "answer.jsonl"]),
    ("start-file", "echo '[0.5, -0.25, 1.0]' > start.json"),
    ("simulate-init-vec", ["simulate", *MODEL_D3, "--init-vec", "start.json", "--steps", "30",
                           "--dt", "0.05", "--seed", "3", "--out", "path.jsonl"]),
]

MODEL_1 = ["--model", "model.json"]
DATA_1 = ["--data", "data.jsonl"]
TRAIN_1 = ["train", *DATA_1, "--out", "refused.json", "--epochs", "2"]
DIAGNOSE_1 = ["diagnose", *MODEL_1, *DATA_1, "--out-dir", "diag"]

REFUSALS = [
    ("synth", ["synth-ou", "--out", "data.jsonl", "--n-traj", "20", "--steps", "10",
               "--dt", "0.05", "--seed", "1"]),
    ("synth-d2", ["synth-ou", "--out", "data2.jsonl", "--dim", "2", "--n-traj", "4",
                  "--steps", "5", "--seed", "2"]),
    ("train", ["train", *DATA_1, "--out", "model.json", "--epochs", "2", "--seed", "3"]),
    ("start-file", "echo '[0.5]' > start.json"),
    ("empty-file", ": > empty.jsonl"),
    ("synth-a-nan", ["synth-ou", "--out", "refused.jsonl", "--a", "nan"]),
    ("synth-b-inf", ["synth-ou", "--out", "refused.jsonl", "--b", "inf"]),
    ("synth-dt-inf", ["synth-ou", "--out", "refused.jsonl", "--dt", "inf"]),
    ("train-lr-inf", [*TRAIN_1, "--lr", "inf"]),
    ("train-drift-weight-nan", [*TRAIN_1, "--drift-weight", "nan"]),
    ("train-diffusion-weight-inf", [*TRAIN_1, "--diffusion-weight", "inf"]),
    ("train-grad-clip-inf", [*TRAIN_1, "--grad-clip", "inf"]),
    ("simulate-dt-inf", ["simulate", *MODEL_1, "--init-vec", "start.json", "--steps", "5",
                         "--dt", "inf", "--out", "refused.jsonl"]),
    ("synth-dt-overflow", ["synth-ou", "--out", "refused.jsonl", "--a", "0", "--b", "0",
                           "--dt", "1e308", "--steps", "3", "--n-traj", "2"]),
    ("simulate-dt-overflow", ["simulate", *MODEL_1, "--init-vec", "start.json", "--steps", "3",
                              "--dt", "1e308", "--out", "refused.jsonl"]),
    ("answer-dt-nan", ["answer", *MODEL_1, "--question", "a b", "--steps", "5", "--dt", "nan"]),
    ("diagnose-oracle-nan", [*DIAGNOSE_1, "--oracle=nan,0.5", "--paths", "200"]),
    ("diagnose-probes--5", [*DIAGNOSE_1, "--probes", "-5"]),
    ("diagnose-probes-0", [*DIAGNOSE_1, "--probes", "0"]),
    ("diagnose-probes-1", [*DIAGNOSE_1, "--probes", "1"]),
    ("diagnose-paths-50", [*DIAGNOSE_1, "--paths", "50"]),
    ("diagnose-t-inf", [*DIAGNOSE_1, "--t", "inf"]),
    ("diagnose-bad-oracle", [*DIAGNOSE_1, "--oracle=1,2,3"]),
    ("diagnose-dim-mismatch", ["diagnose", *MODEL_1, "--data", "data2.jsonl", "--out-dir", "diag"]),
    ("train-empty-file", ["train", "--data", "empty.jsonl", "--dim-check"]),
]


def readme_block(heading: str, language: str) -> str:
    """The first ``language`` code block under ``heading`` in the README."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split(heading, 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def readme_walkthrough() -> list[str]:
    """The shell lines of the README's CLI walkthrough, continuations joined."""
    lines = readme_block("## CLI walkthrough", "sh").replace("\\\n", " ").splitlines()
    return [line.strip() for line in lines if line.strip() and not line.lstrip().startswith("#")]


def readme_steps() -> list[tuple[str, list[str] | str]]:
    steps = []
    for i, line in enumerate(readme_walkthrough()):
        if line.startswith("embsde "):
            argv = shlex.split(line, comments=True)[1:]
            steps.append((f"{i:02d}-{argv[0]}", argv))
        else:  # a shell step that prepares an input, such as the start vector
            steps.append((f"{i:02d}-sh", line))
    return steps


SECTIONS = {"readme": readme_steps, "d3": lambda: D3, "refusals": lambda: REFUSALS}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_hashes(work: Path) -> dict[str, str]:
    return {path.relative_to(work).as_posix(): _sha(path.read_bytes())
            for path in sorted(work.rglob("*")) if path.is_file()}


def _run_section(name: str, steps, manifest: dict[str, str]) -> None:
    env = {k: v for k, v in os.environ.items()
           if k not in ("SDE_TRAJ_SEED", "PYTHONPATH", "PYTHONWARNINGS")}
    env["PYTHONPATH"] = str(ROOT / "src")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        tokens = [(str(ROOT), "<checkout>"), (str(work.resolve()), "<work>"), (tmp, "<work>")]
        for step, action in steps:
            before = _file_hashes(work)
            if isinstance(action, str):
                proc = subprocess.run(action, shell=True, cwd=work, env=env, capture_output=True)
            else:
                proc = subprocess.run([sys.executable, "-m", "embsde.cli", *action],
                                      cwd=work, env=env, capture_output=True)
            key = f"{name}/{step}/"
            manifest[key + "exit"] = _sha(str(proc.returncode).encode())
            for stream, data in (("stdout", proc.stdout), ("stderr", proc.stderr)):
                text = data.decode("utf-8", "replace")
                for path, token in tokens:
                    text = text.replace(path, token)
                manifest[key + stream] = _sha(text.encode("utf-8"))
            for rel, digest in _file_hashes(work).items():
                if before.get(rel) != digest:
                    manifest[key + "file:" + rel] = digest


def manifest(sections=tuple(SECTIONS)) -> dict[str, str]:
    """The manifest of the named sections, in the order given."""
    out: dict[str, str] = {}
    for name in sections:
        _run_section(name, SECTIONS[name](), out)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", help="write the manifest here instead of to stdout")
    args = parser.parse_args(argv)
    text = json.dumps(manifest(), indent=1, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
