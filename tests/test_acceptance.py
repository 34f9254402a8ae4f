"""Acceptance suite: every release claim checked at its stated tolerance.

Each test prints one PASS line (visible with `pytest -s`); a failure carries
the offending numbers in the assertion message. Monte Carlo checks run on
fixed seeds so the suite is deterministic.

False-failure probability of each Monte Carlo gate, that is the chance that
it fails on correct code at a fresh seed. A two-sided k-SE band fails with
probability 2 * Phi(-k) (0.0027 at k = 3) under a normal approximation, and
several bands combine by the union bound:

* 01: 20 class bands at 3 SE (2 models x 10 classes): <= 0.054.
* 02: the five splits share one exact Var * S*M (``scene_variance``);
  the class-mean variance of a point has relative SD <= 0.005 at 1e5 trials,
  so a 0.10 spread needs a pair 14 SD apart: < 1e-40.
* 03: the bound is >= 1.11x the exact variance on all 20 configs; with the
  3-SE allowance a violation needs a 14 SD excursion of a sample variance
  (relative SD <= 0.018 at 2e4 trials): < 1e-40 over the 200 class bands.
* 04: 10 class bands, each the sum of the two sides' 3-SE widths, which is at
  least 3 SE of their difference: <= 0.027.
* 05 (i): 100 class bands at 3 SE (20 configs x 5 classes): about 0.24.
* 07 (iii): 3 ratio bands at 3 SE, whose centre is off by the second-order
  ratio bias E[Y] E[1/R] - E[Y] / E[R] = 0.72-0.89 SE at 1e4 trials
  (measured on 4e6 trials); its second-order term
  -Cov(Y_c, R) / mu_R^2 + mu_c Var(R) / mu_R^3, from ``energy_covariance``,
  gives 0.71-0.82 SE: about 0.04.
* 09: the exact correlated variance is 8.3-8.4% below the prediction c / S_eff
  (finite-S factor 2.75 against 3); the 20% gate then leaves >= 27 SD of the
  sample variances (relative SD <= 0.005 at 2e5 trials): < 1e-100.
* 11b: adjacent mean errors lie >= 9.5 SE apart (20 seeds each): < 1e-20.
* 11c: S = 4 beats S = 1 by 0.0072 in mean accuracy, paired SE 0.0028 over
  the 10 seeds (2.6 SE): about 0.005, the weakest margin of the suite.
* 11d: the three splits have one distribution; each mean of 12 accuracies has
  SE 0.0028, so their range exceeds 0.02 with probability about 2e-6.

Exact or exhaustive gates, which fail only on a fault: 05 (ii) over 10^4
populations and (iii) at the vertex, 06 over 1000 populations, 08 over 10^4
label sets and a worked example, 10 over the whole grid, 11a (frozen fading
transports exactly) and 12 (reruns are byte-identical). 03b asserts nothing.
"""

from dataclasses import replace

import numpy as np
import pytest

import scene_sim.fd

from scene_sim import (
    ChannelModel,
    CrossoverModel,
    DevicePopulation,
    ExperimentSpec,
    FdProtocolConfig,
    FdSetup,
    LabelSpec,
    PopulationSpec,
    RandomSource,
    RoundConfig,
    SoftLabel,
    SoftmaxClassifier,
    calibrate_noise,
    map_energies,
    min_rho,
    mismatch_bias,
    mismatch_bias_bound,
    run_experiment,
    run_fd,
    run_min_rho_protocol,
    scene_raw,
    scene_variance,
    simulate_rounds,
    top_t_truncate,
    variance_bound,
    weighted_average,
)
from scene_sim.channel import PathlossModel, sample_pathloss
from scene_sim.estimators import ratio_estimate
from scene_sim.fd import aggregate_targets, pretrain_clients, split_dataset
from scene_sim.cli import main as cli_main

from conftest import frozen_round, variance_se


def report(num, name, detail=""):
    print(f"ACCEPTANCE {num:>2} ({name}): PASS {detail}")


def draw_population(gen, n, gamma_range=None, weight_rule="random"):
    """Random population with the standard pathloss and cap models."""
    rng = RandomSource(int(gen.integers(0, 2**63)))
    betas = sample_pathloss(PathlossModel(), n, rng)
    caps = gen.uniform(0.5, 1.5, n)
    if weight_rule == "uniform":
        omegas = np.full(n, 1.0 / n)
    else:
        omegas = gen.uniform(0.1, 1.0, n)
        omegas /= omegas.sum()
    assumed = betas if gamma_range is None else betas / gen.uniform(*gamma_range, n)
    return DevicePopulation(omegas, betas, assumed, caps)


def dirichlet_labels(gen, n, k, alpha=0.3):
    return [SoftLabel(gen.dirichlet(np.full(k, alpha))) for _ in range(n)]


def scene_samples(pop, labels, cfg, seed, trials):
    frame = map_energies(labels, pop, cfg.rho)
    y, y_ref = simulate_rounds(frame, pop, cfg, RandomSource(seed), trials=trials)
    return scene_raw(y, cfg.sample_count, cfg.rho), y, y_ref


def test_01_unbiasedness():
    """E[r_c] = qbar_c for calibrated devices, both channel models."""
    gen = np.random.default_rng(2024)
    pop = draw_population(gen, 10)
    labels = dirichlet_labels(gen, 10, 10)
    qbar = weighted_average(labels, pop).probs
    rho = min_rho(pop)
    worst = 0.0
    for model in (ChannelModel.SUPERPOSITION, ChannelModel.DIAGONAL):
        cfg = RoundConfig(
            num_classes=10, reps=4, antennas=4, rho=rho,
            noise_var=calibrate_noise(rho, 10, 5.0), channel_model=model,
        )
        raw, _, _ = scene_samples(pop, labels, cfg, seed=101, trials=200_000)
        se = raw.std(axis=0, ddof=1) / np.sqrt(raw.shape[0])
        dev = np.abs(raw.mean(axis=0) - qbar)
        assert np.all(dev <= 3 * se), (
            f"{model.value}: |mean - qbar| = {dev} exceeds 3*SE = {3 * se}"
        )
        worst = max(worst, float((dev / se).max()))
    report(1, "unbiasedness", f"worst |dev|/SE = {worst:.2f} over 20 class-bands")


def test_02_variance_law_sm_invariance():
    """Var(r_c) * S * M is flat across equal-budget (S, M) splits."""
    spec = ExperimentSpec(
        population=PopulationSpec(n_devices=10, weight_rule="random"),
        labels=LabelSpec(kind="dirichlet", num_classes=10, alpha=0.3),
        sm_pairs=((1, 16), (16, 1), (2, 8), (8, 2), (4, 4)),
        snr_db_values=(5.0,),
        channel_model=ChannelModel.DIAGONAL,
        trials=100_000,
        seed=202,
    )
    rows = [r for r in run_experiment(spec) if r.estimator == "scene"]
    by_point = {}
    for r in rows:
        by_point.setdefault((r.s, r.m), []).append(r.var * r.s * r.m)
    scaled = np.array([np.mean(v) for v in by_point.values()])
    spread = float((scaled.max() - scaled.min()) / scaled.mean())
    assert spread <= 0.10, f"Var*SM relative spread {spread:.3f} > 0.10"
    report(2, "variance law 1/(SM)", f"relative spread {spread:.3%} across 5 splits")


def test_03_variance_bound_diagonal():
    """Empirical Var(r_c) never exceeds the analytic bound (diagonal model)."""
    gen = np.random.default_rng(303)
    worst_ratio = 0.0
    for i in range(20):
        n = int(gen.integers(5, 16))
        pop = draw_population(gen, n)
        labels = dirichlet_labels(gen, n, 10)
        rho = min_rho(pop)
        s, m = int(gen.integers(1, 5)), int(gen.integers(1, 5))
        cfg = RoundConfig(
            num_classes=10, reps=s, antennas=m, rho=rho,
            noise_var=calibrate_noise(rho, 10, 5.0),
            channel_model=ChannelModel.DIAGONAL,
        )
        raw, _, _ = scene_samples(pop, labels, cfg, seed=1000 + i, trials=20_000)
        emp = raw.var(axis=0, ddof=1)
        rel_err = variance_se(raw) / emp
        bound = variance_bound(pop, labels, cfg)
        limit = bound * (1 + 3 * rel_err)
        assert np.all(emp <= limit), (
            f"config {i}: Var {emp} exceeds bound {bound} (+3 MC err)"
        )
        worst_ratio = max(worst_ratio, float((emp / limit).max()))
    report(3, "variance bound", f"max Var/limit = {worst_ratio:.2f} over 20 configs")


def test_03b_superposition_variance_reported():
    """Reported only: the superposition model can exceed the diagonal-model
    bound because equal-power devices beat against each other."""
    gen = np.random.default_rng(33)
    pop = draw_population(gen, 10, weight_rule="uniform")
    labels = dirichlet_labels(gen, 10, 10)
    rho = min_rho(pop)
    base = dict(num_classes=10, reps=4, antennas=4, rho=rho,
                noise_var=calibrate_noise(rho, 10, 5.0))
    var = {}
    for model in ChannelModel:
        cfg = RoundConfig(channel_model=model, **base)
        raw, _, _ = scene_samples(pop, labels, cfg, seed=44, trials=50_000)
        var[model.value] = float(raw.var(axis=0, ddof=1).mean())
    print(
        f"ACCEPTANCE  3 (note): superposition/diagonal variance ratio = "
        f"{var['superposition'] / var['diagonal']:.2f} (reported, not asserted)"
    )


def test_04_balanced_case_identity():
    """Uniform labels make every class variance equal; then
    Var(r_c) = (K-1)/K * Var(Y_j) / (S*M*rho)^2 exactly."""
    k, n = 10, 5
    gen = np.random.default_rng(404)
    pop = draw_population(gen, n, weight_rule="uniform")
    labels = [SoftLabel(np.full(k, 1.0 / k))] * n
    rho = min_rho(pop)
    cfg = RoundConfig(
        num_classes=k, reps=2, antennas=2, rho=rho,
        noise_var=calibrate_noise(rho, k, 5.0),
        channel_model=ChannelModel.DIAGONAL,
    )
    raw, y, _ = scene_samples(pop, labels, cfg, seed=405, trials=100_000)
    sm = cfg.sample_count
    v_pooled = float(y.var(axis=0, ddof=1).mean())
    predicted = (k - 1) / k * v_pooled / (sm * rho) ** 2
    emp = raw.var(axis=0, ddof=1)
    # 3x MC error of both sides, conservatively combined
    tol = 3 * (variance_se(raw) + (k - 1) / k * variance_se(y).mean() / (sm * rho) ** 2)
    assert np.all(np.abs(emp - predicted) <= tol), (
        f"|Var(r) - identity| = {np.abs(emp - predicted)} exceeds {tol}"
    )
    report(4, "balanced-case identity",
           f"max |dev|/tol = {float((np.abs(emp - predicted) / tol).max()):.2f}")


def test_05_bias_formula_and_bound():
    """Gain-mismatch bias: Monte Carlo matches the closed form; the L2 norm
    never exceeds the worst-case bound; the vertex case attains it."""
    gen = np.random.default_rng(505)
    # (i) closed form vs Monte Carlo, both channel models
    for i in range(20):
        n = int(gen.integers(2, 8))
        pop = draw_population(gen, n, gamma_range=(0.7, 1.3))
        labels = dirichlet_labels(gen, n, 5)
        qbar = weighted_average(labels, pop).probs
        rho = min_rho(pop)
        model = ChannelModel.DIAGONAL if i % 2 else ChannelModel.SUPERPOSITION
        cfg = RoundConfig(
            num_classes=5, reps=2, antennas=2, rho=rho,
            noise_var=calibrate_noise(rho, 5, 10.0), channel_model=model,
        )
        raw, _, _ = scene_samples(pop, labels, cfg, seed=2000 + i, trials=20_000)
        se = raw.std(axis=0, ddof=1) / np.sqrt(raw.shape[0])
        predicted = mismatch_bias(pop, labels)
        dev = np.abs(raw.mean(axis=0) - qbar - predicted)
        assert np.all(dev <= 3 * se), f"config {i} ({model.value}): {dev} > {3 * se}"

    # (ii) bound never violated over 10^4 random populations
    delta = 0.3
    for _ in range(10_000):
        n, k = int(gen.integers(1, 6)), int(gen.integers(2, 8))
        omegas = gen.dirichlet(np.ones(n))
        gammas = np.clip(gen.uniform(1 - delta, 1 + delta, n), 1 - delta, 1 + delta)
        pop = DevicePopulation(omegas, np.ones(n), 1.0 / gammas)
        labels = dirichlet_labels(gen, n, k, alpha=0.5)
        norm = float(np.linalg.norm(mismatch_bias(pop, labels)))
        assert norm <= mismatch_bias_bound(delta, k) + 1e-12

    # (iii) equality at the vertex case
    pop = DevicePopulation([1.0], [1.0 + delta], [1.0])
    bias = mismatch_bias(pop, [SoftLabel((1.0, 0.0))])
    gap = abs(np.linalg.norm(bias) - mismatch_bias_bound(delta, 2))
    assert gap <= 1e-12, f"vertex case misses the bound by {gap}"
    report(5, "mismatch bias", "closed form, bound, and vertex equality verified")


def test_06_min_rho_protocol():
    """The negotiated scale is feasible for everyone and within 1% of the
    largest feasible scale."""
    gen = np.random.default_rng(606)
    for i in range(1000):
        n = int(gen.integers(1, 12))
        pop = draw_population(gen, n)
        rho_star, transcript = run_min_rho_protocol(pop)
        assert len(transcript) == n
        eta = rho_star * pop.omegas / pop.betas_assumed
        assert np.all(eta <= pop.power_caps * (1 + 1e-9)), f"population {i} infeasible"
        eta_over = 1.01 * rho_star * pop.omegas / pop.betas_assumed
        assert np.any(eta_over > pop.power_caps), f"population {i}: 1.01*rho* feasible"
    report(6, "min-rho protocol", "1000 populations feasible at rho*, infeasible at 1.01x")


def test_07_ratio_estimator():
    """Reference-slot ratios cancel the unknown scale exactly in the
    deterministic case and reweight by gamma on average."""
    # (i) exact cancellation, single device
    pop = DevicePopulation([1.0], [0.037])
    labels = [SoftLabel((0.62, 0.25, 0.13))]
    cfg = RoundConfig(num_classes=3, reps=2, antennas=2, rho=1.3, noise_var=0.0,
                      use_reference_re=True)
    frame = map_energies(labels, pop, cfg.rho)
    _, projected = ratio_estimate(*frozen_round(frame, pop, cfg))
    err = np.abs(projected - labels[0].probs).max()
    assert err <= 1e-12, f"deterministic cancellation error {err}"

    # (ii) multi-device frozen case recovers the gamma-reweighted average
    gammas = np.array([1.4, 0.8])
    pop2 = DevicePopulation([0.5, 0.5], [1.0, 0.5], [1.0 / 1.4, 0.5 / 0.8])
    labels2 = [SoftLabel((0.8, 0.15, 0.05)),
               SoftLabel((0.1, 0.3, 0.6))]
    frame2 = map_energies(labels2, pop2, cfg.rho)
    ratios, _ = ratio_estimate(*frozen_round(frame2, pop2, cfg))
    q = np.stack([lab.probs for lab in labels2])
    target = (pop2.omegas * gammas) @ q / (pop2.omegas @ gammas)
    err2 = np.abs(ratios - target).max()
    assert err2 <= 1e-12, f"frozen reweighted recovery error {err2}"

    # (iii) Monte Carlo mean matches the reweighted average within 3 SE.
    # The reweighting formula holds for noise-free reception (with noise the
    # offset enters both numerator and denominator); S*M = 4096 keeps the
    # second-order ratio bias at 0.72-0.89 SE (see the module docstring).
    cfg3 = RoundConfig(num_classes=3, reps=64, antennas=64, rho=1.0,
                       noise_var=0.0,
                       channel_model=ChannelModel.DIAGONAL, use_reference_re=True)
    frame3 = map_energies(labels2, pop2, cfg3.rho)
    y3, ref3 = simulate_rounds(frame3, pop2, cfg3, RandomSource(702), trials=10_000)
    ratios = y3 / ref3[:, None]
    se = ratios.std(axis=0, ddof=1) / np.sqrt(ratios.shape[0])
    dev = np.abs(ratios.mean(axis=0) - target)
    assert np.all(dev <= 3 * se), f"ratio mean off target: {dev} > {3 * se}"
    report(7, "ratio estimator", f"max |dev|/SE = {float((dev / se).max()):.2f}")


def test_08_top_t_bias_bound():
    """Aggregated truncation bias obeys ||b||_1 <= 2 * weighted tail mass."""
    gen = np.random.default_rng(808)
    for _ in range(10_000):
        n, k = int(gen.integers(1, 5)), int(gen.integers(3, 12))
        w = gen.dirichlet(np.ones(n))
        labels = dirichlet_labels(gen, n, k, alpha=0.4)
        t = int(gen.integers(1, k + 1))
        bias = np.zeros(k)
        delta_bar = 0.0
        for wi, lab in zip(w, labels):
            q_trunc, delta = top_t_truncate(lab, t)
            bias += wi * (q_trunc.probs - lab.probs)
            delta_bar += wi * delta
        assert np.abs(bias).sum() <= 2 * delta_bar + 1e-12

    q = SoftLabel((0.5, 0.3, 0.1, 0.1))
    q_trunc, delta = top_t_truncate(q, 2)
    l1 = np.abs(q_trunc.probs - q.probs).sum()
    assert l1 == pytest.approx(0.4, abs=1e-12)
    assert 2 * delta == pytest.approx(0.4, abs=1e-12)
    report(8, "top-T bias bound", "10^4 label sets; worked example attains equality")


def test_09_correlation_correction():
    """AR(1) fading with phi = 0.5 across S = 16 repetitions triples the
    estimator variance: Var matches c / S_eff with S_eff = S / 3 within 20%."""
    gen = np.random.default_rng(909)
    pop = draw_population(gen, 3, weight_rule="uniform")
    labels = dirichlet_labels(gen, 3, 10)
    rho = min_rho(pop)
    cfg = RoundConfig(
        num_classes=10, reps=16, antennas=1, rho=rho,
        noise_var=calibrate_noise(rho, 10, 20.0),
        channel_model=ChannelModel.DIAGONAL,
    )
    corr = replace(cfg, time_corr=0.5)
    raw, _, _ = scene_samples(pop, labels, corr, seed=910, trials=200_000)
    # c from the independent case, computed exactly for the diagonal model
    c = scene_variance(pop, labels, cfg) * cfg.sample_count
    s_eff = 16 / (1 + 2 * sum(0.5**tau for tau in range(1, 16)))
    predicted = c / s_eff
    rel = np.abs(raw.var(axis=0, ddof=1) / predicted - 1.0)
    assert np.all(rel <= 0.20), f"correlated variance off by {rel} (>20%)"
    report(9, "correlation correction", f"max relative deviation {float(rel.max()):.1%}")


def test_10_crossover_grid():
    """Threshold formula agrees with brute-force MSE comparison everywhere."""
    gen = np.random.default_rng(1010)
    pairs = [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (0.5, 3.0), (3.0, 0.5)]
    pairs += [tuple(gen.uniform(0.2, 4.0, 2)) for _ in range(5)]
    disagreements = 0
    checked = 0
    for c_coh, c_nc in pairs:
        for b in np.linspace(20, 510, 50).astype(int):
            model = CrossoverModel(budget=int(b), c_coh=c_coh, c_nc=c_nc, num_classes=10)
            for p in np.linspace(0, b - 1, 50).astype(int):
                brute = c_nc / b <= c_coh / (b - p)  # direct MSE comparison
                formula = p >= model.p_threshold
                checked += 1
                disagreements += brute != formula
    assert disagreements == 0, f"{disagreements} disagreements on {checked} points"
    report(10, "crossover threshold", f"0 disagreements on {checked} grid points")


def _fd_shared_setup(seed=424242, unlabeled=128):
    base = FdProtocolConfig(unlabeled_budget=unlabeled, snr_db=5.0)
    root = RandomSource(seed)
    data_rng, pre_rng, server_rng, pop_rng, sel_rng = root.split(5)
    split = split_dataset(base, data_rng)
    clients = pretrain_clients(base, split, pre_rng)
    server = SoftmaxClassifier.initialize(base.data.dim, base.data.num_classes, server_rng)
    n = base.clients
    betas = sample_pathloss(base.pathloss, n, pop_rng)
    caps = pop_rng.generator.uniform(0.5, 1.5, n)
    pop = DevicePopulation(np.full(n, 1.0 / n), betas, power_caps=caps)
    idx = sel_rng.generator.choice(split.open_features.shape[0], unlabeled, replace=False)
    x_u = split.open_features[idx]
    probs = np.stack([c.predict_proba(x_u) for c in clients])
    return base, split, server, pop, x_u, probs


def test_11a_exact_transport_equals_plain(monkeypatch):
    common = dict(
        unlabeled_budget=64, snr_db=None,
        round=RoundConfig(num_classes=10, reps=2, antennas=1, noise_var=0.0),
    )
    plain = run_fd(FdProtocolConfig(aggregation="plain", **common), seed=11)
    # frozen fading: the channel delivers its closed-form noise-free energies
    monkeypatch.setattr(scene_sim.fd, "simulate_rounds", frozen_round)
    scene = run_fd(FdProtocolConfig(aggregation="scene", **common), seed=11)
    assert scene.agg_l2_error <= 1e-9, f"transport error {scene.agg_l2_error}"
    assert scene.server_accuracy == plain.server_accuracy
    report(11, "FD (a) exact transport = Plain",
           f"acc {scene.server_accuracy:.4f} both")


def test_11b_aggregation_error_monotone_in_sm():
    base, _, _, pop, x_u, probs = _fd_shared_setup(unlabeled=32)
    rho, _ = run_min_rho_protocol(pop)
    errors = []
    for sm in (1, 4, 16, 64):
        cfg_round = RoundConfig(
            num_classes=10, reps=sm, antennas=1, rho=rho,
            noise_var=calibrate_noise(rho, 10, 5.0),
        )
        errs = []
        for seed in range(20):
            targets, plain = aggregate_targets(
                base, probs, pop, cfg_round, RandomSource(3_000_000 + 101 * sm + seed)
            )
            errs.append(np.linalg.norm(targets - plain, axis=1).mean())
        errors.append(float(np.mean(errs)))
    assert all(a > b for a, b in zip(errors, errors[1:])), (
        f"aggregation error not strictly decreasing in SM: {errors}"
    )
    report(11, "FD (b) error monotone in SM",
           " > ".join(f"{e:.3f}" for e in errors))


def test_11c_repetition_sweet_spot():
    """At 5 dB and a fixed airtime budget B = U*S, spending part of the
    budget on repetition beats sending every sample once."""
    budget = 2048
    configs = {
        s: FdProtocolConfig(
            clients=3, unlabeled_budget=budget // s, batch_size=4, learning_rate=1.0,
            round=RoundConfig(num_classes=10, reps=s, antennas=1), snr_db=5.0,
        )
        for s in (1, 4, 16)
    }
    accs = {s: [] for s in configs}
    for seed in range(10):
        # the same distillation as run_fd(cfg, seed), pretraining once for all S
        setup = FdSetup.build(configs[1], seed)
        for s, cfg in configs.items():
            accs[s].append(setup.distill(cfg).server_accuracy)
    acc = {s: float(np.mean(a)) for s, a in accs.items()}
    assert max(acc[4], acc[16]) > acc[1], f"no sweet spot: {acc}"
    report(11, "FD (c) repetition sweet spot",
           f"S=1: {acc[1]:.3f}, S=4: {acc[4]:.3f}, S=16: {acc[16]:.3f}")


def test_11d_equal_sm_equal_accuracy():
    base, split, server, pop, x_u, probs = _fd_shared_setup(unlabeled=128)
    rho, _ = run_min_rho_protocol(pop)
    means = {}
    for j, (s, m) in enumerate(((1, 16), (16, 1), (4, 4))):
        cfg_round = RoundConfig(
            num_classes=10, reps=s, antennas=m, rho=rho,
            noise_var=calibrate_noise(rho, 10, 5.0),
        )
        accs = []
        for t in range(12):
            targets, _ = aggregate_targets(
                base, probs, pop, cfg_round, RandomSource(5_000_000 + 1009 * j + t)
            )
            trained = SoftmaxClassifier(server.weights, server.bias)
            trained.train_soft(x_u, targets, base.distill_epochs, base.batch_size,
                               base.learning_rate, RandomSource(777))
            accs.append(trained.accuracy(split.test_features, split.test_labels))
        means[(s, m)] = float(np.mean(accs))
    vals = np.array(list(means.values()))
    spread = float(vals.max() - vals.min())
    assert spread <= 0.02, f"equal-SM accuracies spread {spread:.3f} > 2 points: {means}"
    report(11, "FD (d) equal-SM invariance", f"spread {spread * 100:.2f} points")


def test_12_cli_determinism(tmp_path):
    """Re-running any command with the same config and seed reproduces the
    output CSVs byte for byte."""
    import json

    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps({
        "sweep": {
            "population": {"n_devices": 3},
            "labels": {"kind": "dirichlet", "num_classes": 4, "alpha": 0.3},
            "sm_pairs": [[2, 2]], "snr_db_values": [5.0],
            "channel_model": "diagonal", "trials": 5000,
        }
    }))
    fd_cfg = tmp_path / "fd.json"
    fd_cfg.write_text(json.dumps({
        "fd": {"clients": 2, "unlabeled_budget": 16,
               "pretrain_epochs": 3, "distill_epochs": 3,
               "round": {"num_classes": 10, "reps": 2, "antennas": 1}}
    }))
    runs = [
        (["sweep", "--config", str(sweep_cfg)], "sweep.csv"),
        (["crossover"], "crossover.csv"),
        (["fd", "--config", str(fd_cfg)], "fd_metrics.csv"),
    ]
    for args, fname in runs:
        outs = []
        for rep in ("a", "b"):
            out = tmp_path / f"{fname}.{rep}"
            code = cli_main(args + ["--seed", "9", "--out", str(out)])
            assert code == 0
            outs.append((out / fname).read_bytes())
        assert outs[0] == outs[1], f"{fname} differs between reruns"
    report(12, "CLI determinism", "sweep, crossover, fd byte-identical")
