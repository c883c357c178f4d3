"""Acceptance gate: every release criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion. The synthetic end-to-end criteria share one session-scoped set of
benchmark runs to stay inside their time budgets.
"""

import math
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from conftest import (
    auroc_pair_count_reference,
    ce_reference,
    fd_max_rel_error,
    knn_full_scan_reference,
    make_grad_instance,
    pcc_reference,
)
import odpc
from odpc.bench import PipelineSettings, SyntheticSpec, auroc, openness, run_benchmark
from odpc.encoders import ToyEncoderConfig
from odpc.knn_detector import FeatureBank, calibrate_threshold, knn_scores
from odpc.losses import ce_loss, pcc_loss
from odpc.trainer import TrainingConfig


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number:>2}] FAIL  {description}", flush=True)
        raise
    print(f"\n[criterion {number:>2}] PASS  {description}", flush=True)


# ---------------------------------------------------------------------------
# 1. openness reproduction

def test_criterion_1_openness_reproduction():
    published = [
        (6, 10, 13.39),    # 6 known vs 10 total test classes
        (4, 14, 33.33),    # 4 known vs 14
        (4, 54, 62.86),    # 4 known vs 54
        (20, 100, 42.26),  # 20 known vs 100
        (20, 200, 57.35),  # 20 known vs 200
    ]
    with criterion(1, "openness matches all five published values within 0.01 pp"):
        for n_train, n_total, expected in published:
            got = openness(n_train, n_total)
            assert abs(got - expected) <= 0.01, (n_train, n_total, got, expected)


# ---------------------------------------------------------------------------
# 2. gradient correctness

def test_criterion_2_gradients_match_finite_differences():
    with criterion(2, "analytic gradients match central differences (h=1e-4) "
                      "within 1e-4 relative on 10 seeded N=4 instances"):
        worst = 0.0
        for seed in range(10):
            tau = 0.05 if seed < 5 else 0.2
            head, batch, negatives, cfg = make_grad_instance(seed, dim=16, n=4, tau=tau)
            err = fd_max_rel_error(head, *batch, negatives, cfg, h=1e-4)
            worst = max(worst, err)
            assert err < 1e-4, (seed, err)
        print(f"    worst relative gradient error: {worst:.3e}", flush=True)


# ---------------------------------------------------------------------------
# 3. loss oracles

def test_criterion_3_loss_oracles():
    with criterion(3, "pcc/ce match scalar float64 references within 1e-6 rel; "
                      "large-tau limit equals ln(1+3(N-1))"):
        for seed in range(20):
            r = np.random.default_rng(seed)
            n = int(r.integers(2, 7))
            mats = [r.standard_normal((n, 10)) for _ in range(5)]
            for tau in (0.05, 0.5):
                ours = pcc_loss(*mats, tau)
                ref = pcc_reference(*mats, tau)
                assert abs(ours - ref) <= 1e-6 * abs(ref), (seed, tau)
            logits = r.standard_normal((n, 8)) * 3.0
            labels = r.integers(0, 8, size=n)
            ours = ce_loss(logits, labels)
            ref = ce_reference(logits, labels)
            assert abs(ours - ref) <= 1e-6 * abs(ref), seed
        for n in (2, 4, 8):
            r = np.random.default_rng(1000 + n)
            mats = [r.standard_normal((n, 10)) for _ in range(5)]
            limit = pcc_loss(*mats, 1e14)
            assert abs(limit - math.log(1 + 3 * (n - 1))) < 1e-6, n


# ---------------------------------------------------------------------------
# 4. knn scan against a full scan + monotonicity

def test_criterion_4_knn_backend_equivalence():
    with criterion(4, "GEMM scorer equals a float64 direct-subtraction full scan "
                      "within 1e-5 on 50 seeded instances; monotone in k"):
        for seed in range(50):
            r = np.random.default_rng(seed)
            n = int(np.exp(r.uniform(np.log(50), np.log(2000))))
            bank_rows = r.standard_normal((n, 1536))
            bank = FeatureBank(bank_rows)
            queries = r.standard_normal((100, 1536))
            full = knn_full_scan_reference(queries, bank_rows)
            ks = sorted({1, 5, min(200, n)})
            prev = np.full(100, -np.inf)
            for k in ks:
                ours = knn_scores(queries, bank, k)
                assert np.max(np.abs(ours - full[:, k - 1])) < 1e-5, (seed, k)
                assert np.all(ours >= prev), (seed, k)
                prev = ours


# ---------------------------------------------------------------------------
# 5. auroc oracle

def test_criterion_5_auroc_equals_pair_counting():
    with criterion(5, "rank-based AUROC equals O(n^2) pair counting exactly "
                      "on 100 seeded instances"):
        for seed in range(100):
            r = np.random.default_rng(seed)
            n_id = int(r.integers(2, 500))
            n_ood = int(r.integers(2, 500))
            if seed % 3 == 0:
                id_s = r.integers(0, 40, n_id).astype(float)
                ood_s = r.integers(0, 40, n_ood).astype(float)
            else:
                id_s = r.standard_normal(n_id)
                ood_s = r.standard_normal(n_ood) + 0.3
            fast = auroc(id_s, ood_s)
            exact = auroc_pair_count_reference(list(id_s), list(ood_s))
            assert fast == float(exact), seed


# ---------------------------------------------------------------------------
# 6 + 7. synthetic end-to-end efficacy and ablation orderings
#
# One shared set of runs: 5 repeats per variant, 20 epochs, all other
# hyperparameters at their defaults.

N_REPEATS = 5
BASE_SEED = 0

_variant_cache: dict[str, list[float]] = {}


def synthetic_aurocs_for(variant: str) -> list[float]:
    """Benchmark AUROCs per repeat for one pipeline variant, computed once."""
    if variant not in _variant_cache:
        settings = PipelineSettings(training=TrainingConfig(epochs=20), variant=variant)
        res = run_benchmark("synthetic", N_REPEATS, settings, base_seed=BASE_SEED)
        _variant_cache[variant] = res.aurocs
    return _variant_cache[variant]


def test_criterion_6_trained_beats_passthrough():
    with criterion(6, "trained PCC+CE beats untrained pass-through by >= 0.02 "
                      "in >= 4 of 5 seeds (20 epochs, synthetic protocol)"):
        base = synthetic_aurocs_for("passthrough")
        full = synthetic_aurocs_for("pcc_ce")
        diffs = [f - b for f, b in zip(full, base)]
        wins = sum(1 for d in diffs if d >= 0.02)
        print(f"    passthrough: {[f'{a:.3f}' for a in base]}", flush=True)
        print(f"    pcc_ce:      {[f'{a:.3f}' for a in full]}", flush=True)
        print(f"    diffs:       {[f'{d:+.3f}' for d in diffs]} -> {wins}/5 wins", flush=True)
        assert wins >= 4, diffs
        for b in base:
            assert 0.70 <= b <= 0.95, ("baseline drifted out of its design window", base)


def test_criterion_7_ablation_orderings():
    with criterion(7, "PCC-only > CE-only in >= 4/5 seeds and "
                      "mixup > no-mixup in >= 3/5 seeds"):
        pcc = synthetic_aurocs_for("pcc_only")
        ce = synthetic_aurocs_for("ce_only")
        full = synthetic_aurocs_for("pcc_ce")
        nomix = synthetic_aurocs_for("pcc_ce_nomix")
        pcc_wins = sum(1 for p, c in zip(pcc, ce) if p > c)
        mix_wins = sum(1 for f, n in zip(full, nomix) if f > n)
        print(f"    pcc_only: {[f'{a:.3f}' for a in pcc]}", flush=True)
        print(f"    ce_only:  {[f'{a:.3f}' for a in ce]}  -> pcc wins {pcc_wins}/5", flush=True)
        print(f"    nomix:    {[f'{a:.3f}' for a in nomix]} -> mixup wins {mix_wins}/5", flush=True)
        assert pcc_wins >= 4, (pcc, ce)
        assert mix_wins >= 3, (full, nomix)


# ---------------------------------------------------------------------------
# 8. threshold calibration

def test_criterion_8_calibration_fraction():
    with criterion(8, "threshold at target_tpr=0.95 accepts 0.95 +- 0.002 of a "
                      "1000-sample ID holdout"):
        spec = SyntheticSpec(test_per_class=200, seed=11)
        from odpc.bench import ClassCatalog, make_split, synthetic_feature_dataset

        ds = synthetic_feature_dataset(spec, ToyEncoderConfig())
        split = make_split("synthetic", ClassCatalog(classes=tuple(ds.class_names)), 11)
        from odpc.knn_detector import passthrough_transform

        known = list(split.known_classes)
        train_rows = ds.rows_for(known, train=True)
        id_rows = ds.rows_for(known, train=False)[:1000]
        assert len(id_rows) == 1000
        feats = ds.features.values.astype(np.float64)
        bank = FeatureBank(passthrough_transform(feats[train_rows]))
        scores = knn_scores(passthrough_transform(feats[id_rows]), bank, 200)
        thr = calibrate_threshold(scores, 0.95)
        realized = float(np.mean(scores <= thr))
        print(f"    realized accept fraction: {realized:.4f}", flush=True)
        assert abs(realized - 0.95) <= 0.002


# ---------------------------------------------------------------------------
# 9. end-to-end determinism through the CLI

def test_criterion_9_eval_byte_determinism(tmp_path):
    with criterion(9, "two `eval --protocol synthetic --repeats 5 --seed 7` runs "
                      "produce byte-identical results.csv"):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text('{"epochs": 2}\n')
        # The child processes import the same odpc sources as this process.
        src = str(Path(odpc.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        outputs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "odpc.cli", "eval",
                 "--config", str(cfg_path), "--protocol", "synthetic",
                 "--repeats", "5", "--seed", "7", "--out", str(out)],
                capture_output=True, text=True, timeout=600, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        header = outputs[0].decode().splitlines()[0]
        assert header == "protocol,repeat,seed,auroc,openness"
