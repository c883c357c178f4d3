import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    ce_reference,
    fd_max_rel_error,
    loss_and_grad_per_row_reference,
    make_grad_instance,
    named_views,
    negative_draws_reference,
    pcc_reference,
    unit_rows,
)
from odpc.errors import ConfigError, DegenerateBatchError, InvalidArgumentError, ShapeError
import odpc.losses
import odpc.trainer
from odpc.head import forward_with_cache, init_head, softmax
from odpc.losses import (
    LossConfig,
    NegativeSet,
    build_negative_set,
    ce_loss,
    loss_and_grad,
    pcc_loss,
)


# ---------------------------------------------------------------------------
# negative set construction

def _small_batch(rng, labels):
    """(images, labels, class_texts) of 8-d unit rows, as ``train`` passes them."""
    labels = np.asarray(labels, dtype=np.int64)
    return unit_rows(rng, len(labels), 8), labels, unit_rows(rng, int(labels.max()) + 1, 8)


def test_negative_set_two_rows_forced_swap(rng):
    img, labels, class_txt = _small_batch(rng, [0, 1])
    peers = {0: unit_rows(rng, 2, 8), 1: unit_rows(rng, 2, 8)}
    neg = build_negative_set(img, labels, class_txt, peers, 0.5, np.random.default_rng(0))
    assert np.array_equal(neg.mixed_images, 0.5 * img + 0.5 * img[[1, 0]])


def test_negative_set_deterministic(rng):
    batch = _small_batch(rng, [0, 1, 2, 0])
    peers = {c: unit_rows(rng, 3, 8) for c in range(3)}
    a = build_negative_set(*batch, peers, 0.5, np.random.default_rng(42))
    b = build_negative_set(*batch, peers, 0.5, np.random.default_rng(42))
    assert np.array_equal(a.mixed_images, b.mixed_images)
    assert np.array_equal(a.mixed_texts, b.mixed_texts)
    assert np.array_equal(a.text_index, b.text_index)


def test_negative_set_respects_class_constraint(rng):
    img, labels, class_txt = _small_batch(rng, [0, 0, 1, 2, 1, 2])
    peers = {c: unit_rows(rng, 2, 8) for c in range(3)}
    neg = build_negative_set(img, labels, class_txt, peers, 0.5, np.random.default_rng(3))
    q, _ = negative_draws_reference(labels.tolist(), [2, 2, 2], np.random.default_rng(3))
    assert all(labels[k] != labels[i] for i, k in enumerate(q))
    assert np.array_equal(neg.mixed_images, 0.5 * img + 0.5 * img[q])


@given(
    labels=st.lists(st.integers(0, 4), min_size=2, max_size=12).filter(lambda ys: len(set(ys)) > 1),
    peer_counts=st.lists(st.integers(1, 3), min_size=5, max_size=5),
    seed=st.integers(0, 2**32 - 1),
    lam=st.floats(0.0, 1.0),
)
def test_negative_set_holds_each_blend_once(labels, peer_counts, seed, lam):
    data = np.random.default_rng(seed)
    class_texts = unit_rows(data, 5, 6)
    peers = {c: unit_rows(data, count, 6) for c, count in enumerate(peer_counts)}
    img = unit_rows(data, len(labels), 6)
    neg = build_negative_set(img, np.array(labels), class_texts, peers, lam,
                             np.random.default_rng([seed, 1]))

    q, p = negative_draws_reference(labels, peer_counts, np.random.default_rng([seed, 1]))
    assert np.array_equal(neg.mixed_images, lam * img + (1.0 - lam) * img[q])
    pairs = sorted(set(zip(labels, p)))
    blends = [lam * class_texts[y] + (1.0 - lam) * peers[y][c] for y, c in pairs]
    assert np.array_equal(neg.mixed_texts, np.stack(blends))
    assert [pairs[j] for j in neg.text_index] == list(zip(labels, p))


# ---------------------------------------------------------------------------
# pcc_loss

def random_inputs(seed, n=4, dim=8, with_mixed=True):
    r = np.random.default_rng(seed)
    mats = [r.standard_normal((n, dim)) for _ in range(5 if with_mixed else 3)]
    if with_mixed:
        return mats
    return mats + [None, None]


@pytest.mark.parametrize("seed", range(20))
def test_pcc_matches_scalar_reference(seed):
    a, p, b, c, d = random_inputs(seed)
    for tau in (0.05, 0.5):
        ours = pcc_loss(a, p, b, c, d, tau)
        ref = pcc_reference(a, p, b, c, d, tau)
        assert abs(ours - ref) <= 1e-6 * abs(ref)


@pytest.mark.parametrize("seed", range(5))
def test_pcc_literal_matches_scalar_reference(seed):
    a, p, b, c, d = random_inputs(seed)
    ours = pcc_loss(a, p, b, c, d, 0.1, form="literal")
    ref = pcc_reference(a, p, b, c, d, 0.1, form="literal")
    assert abs(ours - ref) <= 1e-6 * abs(ref)


def test_pcc_single_equal_negative_gives_ln2():
    v = np.zeros(8)
    v[0] = 1.0
    img = np.stack([v, v])
    pos = np.stack([v, v])
    masked = np.stack([-v, -v])     # exp(-1/tau) vanishes next to exp(+1/tau)
    equal = np.stack([v, v])
    val = pcc_loss(img, pos, masked, equal, masked, 0.005)
    assert abs(val - math.log(2.0)) < 1e-9


def test_pcc_perfect_separation_vanishes():
    v = np.zeros(8)
    v[0] = 1.0
    img = np.stack([v, v])
    pos = np.stack([v, v])
    anti = np.stack([-v, -v])
    val = pcc_loss(img, pos, anti, anti, anti, 0.005)
    assert 0.0 <= val < 1e-12


def test_pcc_tau_large_limit_is_log_counts():
    for n in (2, 4, 7):
        a, p, b, c, d = random_inputs(99, n=n)
        val = pcc_loss(a, p, b, c, d, 1e14)
        assert abs(val - math.log(1 + 3 * (n - 1))) < 1e-6


def test_pcc_strictly_positive(rng):
    for seed in range(5):
        a, p, b, c, d = random_inputs(seed)
        assert pcc_loss(a, p, b, c, d, 0.1) > 0.0


def test_pcc_monotone_in_positive_similarity():
    r = np.random.default_rng(0)
    a, p, b, c, d = random_inputs(1)
    base = pcc_loss(a, p, b, c, d, 0.1)
    # nudging every paired text toward its image raises positive similarity
    closer = p + 0.2 * (a - p)
    assert pcc_loss(a, closer, b, c, d, 0.1) < base


def test_pcc_scale_invariance():
    a, p, b, c, d = random_inputs(2)
    base = pcc_loss(a, p, b, c, d, 0.05)
    scaled = pcc_loss(3.7 * a, p, 0.01 * b, c, 250.0 * d, 0.05)
    assert abs(base - scaled) < 1e-9


def test_pcc_without_mixed_negatives():
    a, p, b, _, _ = random_inputs(3)
    val = pcc_loss(a, p, b, None, None, 1e14)
    assert abs(val - math.log(1 + (a.shape[0] - 1))) < 1e-6
    ref = pcc_reference(a, p, b, None, None, 0.1)
    assert abs(pcc_loss(a, p, b, None, None, 0.1) - ref) <= 1e-6 * abs(ref)


def test_pcc_preconditions():
    a, p, b, c, d = random_inputs(4)
    with pytest.raises(InvalidArgumentError):
        pcc_loss(a, p, b, c, d, 0.0)
    with pytest.raises(DegenerateBatchError):
        pcc_loss(a[:1], p[:1], b[:1], c[:1], d[:1], 0.1)
    with pytest.raises(ShapeError):
        pcc_loss(a, p[:, :4], b, c, d, 0.1)
    zeroed = a.copy()
    zeroed[0] = 0.0
    with pytest.raises(InvalidArgumentError):
        pcc_loss(zeroed, p, b, c, d, 0.1)


# ---------------------------------------------------------------------------
# ce_loss

def test_ce_uniform_logits_is_log_m():
    logits = np.zeros((3, 4))
    assert abs(ce_loss(logits, np.array([0, 1, 3])) - math.log(4.0)) < 1e-12


def test_ce_confident_correct_class_vanishes():
    logits = np.zeros((2, 5))
    logits[0, 2] = 30.0
    logits[1, 0] = 30.0
    assert ce_loss(logits, np.array([2, 0])) < 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_ce_matches_scalar_reference(seed):
    r = np.random.default_rng(seed)
    logits = r.standard_normal((6, 9)) * 3.0
    labels = r.integers(0, 9, size=6)
    ours = ce_loss(logits, labels)
    ref = ce_reference(logits, labels)
    assert abs(ours - ref) <= 1e-6 * abs(ref)


def test_ce_out_of_range_label():
    with pytest.raises(InvalidArgumentError):
        ce_loss(np.zeros((2, 3)), np.array([0, 3]))


def test_ce_permutation_equivariant(rng):
    logits = rng.standard_normal((8, 5))
    labels = rng.integers(0, 5, size=8)
    perm = rng.permutation(8)
    assert abs(ce_loss(logits, labels) - ce_loss(logits[perm], labels[perm])) < 1e-12


# ---------------------------------------------------------------------------
# total loss and gradients

def test_total_loss_breakdown_sums(rng):
    head, batch, negatives, cfg = make_grad_instance(0)
    bd = loss_and_grad(head, *batch, negatives, cfg, want_grad=False)[0]
    assert abs(bd.total - (sum(bd.pcc_layers) + bd.ce)) < 1e-9
    assert len(bd.pcc_layers) == 3


def test_total_loss_composes_constituent_oracles():
    head, (img, labels, class_txt), negatives, cfg = make_grad_instance(1)
    streams = np.vstack([
        img, class_txt[labels],
        negatives.mixed_images, negatives.mixed_texts[negatives.text_index],
    ])
    hs, logits = forward_with_cache(head, streams)
    n = len(labels)
    expected = 0.0
    for l in (1, 2, 3):
        h = hs[l]
        expected += pcc_reference(
            h[:n], h[n : 2 * n], h[n : 2 * n], h[2 * n : 3 * n], h[3 * n :], cfg.temperature
        )
    expected += ce_reference(logits[:n], labels)
    bd = loss_and_grad(head, img, labels, class_txt, negatives, cfg, want_grad=False)[0]
    assert abs(bd.total - expected) <= 1e-6 * abs(expected)


def test_total_loss_tau_large_limit():
    head, batch, negatives, _ = make_grad_instance(2)
    cfg = LossConfig(temperature=1e14)
    bd = loss_and_grad(head, *batch, negatives, cfg, want_grad=False)[0]
    expected_per_layer = math.log(1 + 3 * (len(batch[1]) - 1))
    for term in bd.pcc_layers:
        assert abs(term - expected_per_layer) < 1e-6


def test_total_loss_invariant_to_consistent_reordering():
    head, (img, labels, class_txt), negatives, cfg = make_grad_instance(3)
    perm = np.array([2, 0, 3, 1])
    reneg = NegativeSet(negatives.mixed_images[perm], negatives.mixed_texts, negatives.text_index[perm])
    a = loss_and_grad(head, img, labels, class_txt, negatives, cfg, want_grad=False)[0]
    b = loss_and_grad(head, img[perm], labels[perm], class_txt, reneg, cfg, want_grad=False)[0]
    assert abs(a.total - b.total) < 1e-9


@pytest.mark.parametrize("seed", range(3))
def test_gradients_match_finite_differences(seed):
    head, batch, negatives, cfg = make_grad_instance(seed, dim=12)
    assert fd_max_rel_error(head, *batch, negatives, cfg) < 1e-4


def test_gradients_literal_form_match_finite_differences():
    head, batch, negatives, cfg = make_grad_instance(50, dim=10, form="literal")
    assert fd_max_rel_error(head, *batch, negatives, cfg) < 1e-4


def test_gradients_no_mixup_match_finite_differences():
    head, batch, negatives, cfg = make_grad_instance(60, dim=10, use_mixup=False)
    assert negatives is None
    assert fd_max_rel_error(head, *batch, None, cfg) < 1e-4


def _mixup_batch(seed, n=32, n_classes=6, n_peers=3, dim=16):
    rng = np.random.default_rng(seed)
    labels = np.concatenate([[0, 1], rng.integers(0, n_classes, size=n - 2)])
    class_txt = unit_rows(rng, n_classes, dim)
    batch = (unit_rows(rng, n, dim), labels, class_txt)
    peers = {c: unit_rows(rng, n_peers, dim) for c in range(n_classes)}
    return batch, build_negative_set(*batch, peers, 0.5, rng)


@pytest.mark.parametrize("use_mixup", [True, False])
def test_loss_and_grad_forwards_each_distinct_text_row_once(monkeypatch, use_mixup):
    batch, negatives = _mixup_batch(7)
    head = init_head(6, 6, seed=7, feature_dim=16)
    seen_rows = []
    real = odpc.losses.forward_with_cache

    def spy(head, features):
        seen_rows.append(features.shape[0])
        return real(head, features)

    monkeypatch.setattr(odpc.losses, "forward_with_cache", spy)
    cfg = LossConfig(temperature=0.05, use_mixup=use_mixup)
    loss_and_grad(head, *batch, negatives if use_mixup else None, cfg)
    labels = batch[1]
    expected = 32 + np.unique(labels).size
    if use_mixup:
        assert len(negatives.mixed_texts) < 32
        expected += 32 + len(negatives.mixed_texts)
    assert np.unique(labels).size < 32
    assert seen_rows == [expected]


@pytest.mark.parametrize("form,use_mixup", [("per_anchor", True), ("literal", True), ("per_anchor", False)])
def test_gradients_with_repeated_rows_match_per_row_oracle(form, use_mixup):
    head, batch, negatives, cfg = make_grad_instance(70, dim=12, n=8, n_id=3,
                                                     use_mixup=use_mixup, form=form)
    labels = batch[1]
    assert np.unique(labels).size < len(labels)
    if use_mixup:
        assert len(negatives.mixed_texts) < len(labels)
    breakdown, grads = loss_and_grad(head, *batch, negatives, cfg)
    ref_total, ref_grads = loss_and_grad_per_row_reference(head, *batch, negatives, cfg)
    assert abs(breakdown.total - ref_total) <= 1e-10 * abs(ref_total)
    for (name, ours), ref in zip(named_views(grads), ref_grads, strict=True):
        assert np.max(np.abs(ours - ref)) <= 1e-10 * np.max(np.abs(ref)), name


def test_ce_classifier_bias_gradient_closed_form(rng):
    head, (img, labels, class_txt), _, _ = make_grad_instance(4)
    cfg = LossConfig(use_pcc=False)
    grads = loss_and_grad(head, img[:1], labels[:1], class_txt, None, cfg)[1]
    probs = softmax(forward_with_cache(head, img[:1])[1])[0]
    onehot = np.zeros_like(probs)
    onehot[labels[0]] = 1.0
    assert np.max(np.abs(grads.clf_bias - (probs - onehot))) < 1e-12


def test_loss_and_grad_names_a_zero_activation_row():
    # Zero biases: a zero image row stays zero through the first layer.
    img, labels, class_txt = _small_batch(np.random.default_rng(0), [0, 1, 0, 1])
    img[2] = 0.0
    head = init_head(2, 1, seed=0, feature_dim=8)
    with pytest.raises(InvalidArgumentError, match=r"^image features row 2 has \(near-\)zero norm$"):
        loss_and_grad(head, img, labels, class_txt, None, LossConfig(use_mixup=False))


def test_grad_total_loss_frozen_inputs_untouched():
    head, batch, negatives, cfg = make_grad_instance(5)
    snapshot = [a.copy() for a in batch]
    loss_and_grad(head, *batch, negatives, cfg)
    for before, after in zip(snapshot, batch, strict=True):
        assert np.array_equal(before, after)


def test_loss_config_validation():
    for temperature in (0.0, float("inf"), float("nan")):
        with pytest.raises(ConfigError, match="temperature"):
            LossConfig(temperature=temperature)
    with pytest.raises(ConfigError):
        LossConfig(mix_lambda=1.5)
    with pytest.raises(ConfigError):
        LossConfig(pcc_form="other")
    with pytest.raises(ConfigError):
        LossConfig(use_pcc=False, use_ce=False)


def test_step_functions_raise_nothing():
    """``trainer.train`` checks a run's inputs once; the code it calls per step
    only computes, so a check that grows back here belongs in ``train``."""
    steps = {odpc.losses: {"build_negative_set", "loss_and_grad", "_pcc_value_and_input_grads"},
             odpc.trainer: {"sgd_step"}}
    for module, step in steps.items():
        tree = ast.parse(Path(module.__file__).read_text("utf-8"))
        functions = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
        assert step <= set(functions)
        raising = {name for name in step if any(isinstance(inner, ast.Raise)
                                                for inner in ast.walk(functions[name]))}
        assert raising == set()
