"""Golden SHA-256 of every file the command line writes, and of its stdout.

A micro ``demo --dump-obs`` runs first, then the per-phase chain
``train-baseline`` -> ``train-adversary`` (bare victim paths) -> ``retrain``
-> ``evaluate --greedy --dump-obs``. Every command runs from one temporary
directory with relative ``--config``/``--out`` paths, so the manifests hold
the same paths on every machine. The digests in ``golden_cli_outputs.json``
were recorded with the numpy/BLAS build and OpenBLAS core of the reference
digests (see ``test_behaviour_digest``); on another build or core they may
differ, so the test is skipped there.
"""
import hashlib
import json
import os

import yaml
from test_behaviour_digest import skip_unless_reference_build
from test_cli import MICRO_CONFIG

from advdrive.cli import dispatch

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli_outputs.json")
CONFIG = "micro.yaml"

COMMANDS = {
    "demo": ["demo", "--config", CONFIG, "--out", "demo", "--dump-obs"],
    "train-baseline": ["train-baseline", "--config", CONFIG, "--out", "base"],
    "train-adversary": [
        "train-adversary", "--config", CONFIG, "--reward", "adv_offroad", "--out", "adv",
        "--victims", "base/checkpoints/victim1.ckpt", "base/checkpoints/victim2.ckpt",
    ],
    "retrain": [
        "retrain", "--config", CONFIG, "--out", "retrain",
        "--victims", "victim1=base/checkpoints/victim1.ckpt",
        "victim2=base/checkpoints/victim2.ckpt",
        "--adversary", "adv/checkpoints/adversary.ckpt",
    ],
    "evaluate": [
        "evaluate", "--config", CONFIG, "--out", "eval", "--label", "retrained_offroad",
        "--greedy", "--dump-obs",
        "--victims", "victim1=retrain/checkpoints/victim1.ckpt",
        "victim2=retrain/checkpoints/victim2.ckpt",
        "--adversary", "adv/checkpoints/adversary.ckpt",
    ],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_chain(workdir, capsys) -> dict:
    """Run every command of ``COMMANDS`` in ``workdir`` (the current
    directory); returns the digests of each command's stdout and of every
    file written, keyed by relative path."""
    with open(CONFIG, "w", encoding="utf-8") as fh:
        yaml.safe_dump(MICRO_CONFIG, fh)
    stdout = {}
    for name, argv in COMMANDS.items():
        capsys.readouterr()
        rc = dispatch(argv)
        captured = capsys.readouterr()
        assert rc == 0, (name, captured.err)
        stdout[name] = _sha256(captured.out.encode())
    files = {}
    for root, _, names in os.walk(workdir):
        for fname in names:
            path = os.path.join(root, fname)
            rel = os.path.relpath(path, workdir).replace(os.sep, "/")
            if rel != CONFIG:
                with open(path, "rb") as fh:
                    files[rel] = _sha256(fh.read())
    return {"stdout": stdout, "files": dict(sorted(files.items()))}


def test_cli_outputs_match_golden(tmp_path, monkeypatch, capsys):
    skip_unless_reference_build()
    monkeypatch.delenv("ADVDRIVE_OUT_ROOT", raising=False)
    monkeypatch.chdir(tmp_path)
    got = run_chain(tmp_path, capsys)
    with open(GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)
    assert got["stdout"] == want["stdout"]
    assert sorted(got["files"]) == sorted(want["files"])
    changed = [p for p in want["files"] if got["files"][p] != want["files"][p]]
    assert not changed
