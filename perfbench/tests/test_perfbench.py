"""Tests of the benchmark itself: its correctness gate, its tracer and its output.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import gzip
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, _package_modules  # noqa: E402


@pytest.fixture
def lib():
    return workloads.load_package(fresh=False)


def test_gate_counts_a_verifier_that_accepts_everything(lib, tmp_path, monkeypatch):
    state = workloads.SignVerify.setup(lib, 1, tmp_path)
    honest = workloads.Recorder()
    run.run_phase(workloads.SignVerify, state, honest, 0.5)
    assert honest.attempted > 0 and honest.error_rate == 0

    def accept_all(pub, sig):
        return lib.schemes.VerifyReport(True, None, workloads.EXPECTED_OPS[sig.scheme])

    monkeypatch.setattr(lib.schemes, "verify", accept_all)
    rec = workloads.Recorder()
    run.run_phase(workloads.SignVerify, state, rec, 0.5)
    assert rec.error_rate > 0
    assert rec.failures["perturbed signature accepted"] > 0


def _bindings(lib):
    snap = {}
    for mod in _package_modules():
        for name, value in vars(mod).items():
            snap[mod.__name__, name] = value
            if isinstance(value, dict):
                for key, entry in value.items():
                    snap[mod.__name__, name, key] = entry
    snap["KeyPair.from_primes"] = vars(lib.keygen.KeyPair)["from_primes"]
    return snap


def test_tracer_rebinds_every_binding_and_restores_them(lib):
    before = _bindings(lib)
    with Tracer():
        during = _bindings(lib)
    after = _bindings(lib)
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    # the by-name imports and the dispatch tables are wrapped too
    for key in [("rabinsig.keygen", "jacobi"), ("rabinsig.blind", "canonical_sqrt_mod_pq"),
                ("rabinsig.cli", "jacobi"), ("rabinsig.schemes", "_VERIFIERS", lib.schemes.Variant2Signature),
                ("rabinsig", "gen_keypair"), "KeyPair.from_primes"]:
        assert during[key] is not before[key], key


def test_traced_counts_equal_the_values_the_code_fixes(lib):
    tracer = Tracer()
    rng = random.Random(7)
    with tracer:
        keys = []
        for kind in workloads.KINDS:
            with tracer.op("bench.op"):
                keys.append(lib.keygen.gen_keypair(kind, 64, lib.hashing.IDENTITY, rng))
        blum = keys[1]
        for m in range(100, 104):
            with tracer.op("bench.op"):
                sig = lib.schemes.sign(blum, m, "variant2", rng=rng)
                assert lib.schemes.verify(blum.public(), sig).valid
            with tracer.op("bench.op"):
                lib.blind.run_blind_session(blum, m, rng)
    rec = workloads.Recorder()
    rec.steps = 1
    m, _ = layers.per_layer(tracer, rec, 0.0)
    assert m["keygen.gen_prime.per_key"] == 2
    assert m["keygen.gen_prime.calls"] == 6
    assert (m["schemes.verify.variant2.squares"], m["schemes.verify.variant2.products"]) == (7, 3)
    assert m["blind.canonical_sqrt_per_session"] == 2
    # jacobi is called through the name keygen imported, beneath build_padding_set
    under_padding = tracer.flags_under("keygen.build_padding_set")
    jacobi = tracer.names.index("numtheory.jacobi")
    assert any(under_padding[i] and tracer.name[i] == jacobi for i in range(len(tracer)))


def _snoop_secrets(monkeypatch):
    """Collect the private values the workloads handle: key factors, idempotents, blinders, nonces."""
    secrets = set()

    def remember_key(key):
        secrets.update((key.p, key.q, key.psi1, key.psi2))

    for workload in workloads.WORKLOADS.values():
        def setup(lib, seed, workdir, _original=workload.setup):
            state = _original(lib, seed, workdir)
            keys = getattr(state, "keys", [])
            for key in keys.values() if isinstance(keys, dict) else keys:
                remember_key(key)
            return state

        monkeypatch.setattr(workload, "setup", staticmethod(setup))

    original_call = workloads.Recorder.call

    def call(self, kind, fn, *args, **kwargs):
        result = original_call(self, kind, fn, *args, **kwargs)
        if hasattr(result, "psi1"):
            remember_key(result)
        if hasattr(result, "signer_R"):
            secrets.update((result.r, result.signer_R))
        return result

    monkeypatch.setattr(workloads.Recorder, "call", call)
    return secrets


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_benchmark_output_carries_no_secrets(workload, monkeypatch, capsys):
    secrets = _snoop_secrets(monkeypatch)
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "2", "--trace", "1"]) == 0
    stdout = capsys.readouterr().out
    result = json.loads(stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert secrets
    trace_path = ROOT / ".perfbench" / f"trace-{workload}-3.json.gz"
    outputs = {"stdout": stdout, "trace": gzip.decompress(trace_path.read_bytes()).decode(),
               "BENCHMARK.json": (ROOT / "BENCHMARK.json").read_text()}
    for name, text in outputs.items():
        leaked = [s for s in secrets if str(s) in text]
        assert not leaked, f"{name} contains {len(leaked)} secret value(s)"


def test_untraced_run_prints_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "blind", "--seed", "2", "--seconds", "1", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_printing_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "keygen", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
