import ast
import builtins
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scene_sim import (
    Aggregation,
    ChannelModel,
    CrossoverModel,
    DatasetSpec,
    DevicePopulation,
    Estimator,
    ExperimentSpec,
    FdProtocolConfig,
    FdSetup,
    LabelKind,
    LabelSpec,
    PathlossModel,
    PopulationSpec,
    RandomSource,
    RhoRule,
    RoundConfig,
    SoftmaxClassifier,
    WeightRule,
    calibrate_noise,
    map_energies,
    mismatch_bias_bound,
    run_experiment,
    sample_pathloss,
    scene_raw,
    simulate_rounds,
    top_t_truncate,
    weighted_average,
)
from scene_sim.cli import RoundSpec
from scene_sim.core import SoftLabel, check_range, check_simplex
from scene_sim.fd import train_lockstep


class TestValidateSoftLabel:
    def test_uniform_two_class(self):
        lab = SoftLabel((0.5, 0.5))
        assert np.allclose(lab.probs, [0.5, 0.5])

    def test_boundary_zero_entry_allowed(self):
        lab = SoftLabel((0.7, 0.3, 0.0))
        assert lab.num_classes == 3
        assert lab.probs[2] == 0.0

    def test_not_normalized(self):
        with pytest.raises(ValueError, match="sum to"):
            SoftLabel((0.6, 0.6))

    def test_negative_entry(self):
        with pytest.raises(ValueError, match="negative probability"):
            SoftLabel((1.1, -0.1))

    def test_negative_dust_clipped(self):
        lab = SoftLabel((1.0 + 1e-13, -1e-13))
        assert lab.probs[1] == 0.0

    def test_bad_length(self):
        with pytest.raises(ValueError, match="K >= 2"):
            SoftLabel((1.0,))

    def test_not_a_vector(self):
        with pytest.raises(ValueError, match=r"must be a vector, got shape \(2, 2\)"):
            SoftLabel(np.eye(2))

    def test_probs_read_only(self):
        lab = SoftLabel((0.5, 0.5))
        with pytest.raises(ValueError):
            lab.probs[0] = 1.0

    @pytest.mark.parametrize(
        "v", [(np.nan, np.nan), (np.nan, 1.0), (np.inf, 0.0), (0.5, 0.5, -np.inf)]
    )
    def test_non_finite_rejected(self, v):
        # abs(nan - 1) > tol is False: without a finiteness check these pass
        with pytest.raises(ValueError, match="must be finite"):
            SoftLabel(np.array(v))


class TestCheckSimplex:
    def test_matches_soft_label_row_by_row(self):
        q = np.random.default_rng(3).dirichlet(np.ones(4), size=(5, 3))
        q[0, 1, 2] -= 1e-13  # negative dust is clipped, as in SoftLabel
        q[0, 1, 3] += 1e-13
        out = check_simplex(q)
        assert out.shape == q.shape
        for row_in, row_out in zip(q.reshape(-1, 4), out.reshape(-1, 4)):
            assert np.array_equal(SoftLabel(row_in).probs, row_out)

    @pytest.mark.parametrize(
        "bad, message", [(np.nan, "finite"), (-0.1, "negative"), (0.3, "sum")]
    )
    def test_one_bad_entry_rejects_the_batch(self, bad, message):
        q = np.full((4, 3, 2), 0.5)
        q[2, 1, 0] = bad
        with pytest.raises(ValueError, match=message):
            check_simplex(q)

    def test_scaled_totals(self):
        e = np.array([[1.0, 2.0], [0.0, 0.0]])
        assert np.array_equal(check_simplex(e, [3.0, 0.0]), e)
        with pytest.raises(ValueError, match="sum to"):
            check_simplex(e, [3.0, 1.0])
        with pytest.raises(ValueError, match="must be finite"):
            check_simplex(e, [np.inf, 0.0])


class TestCheckRange:
    @pytest.mark.parametrize("r", [(0.5, 1.5), (1.0, 1.0), None])
    def test_accepts(self, r):
        check_range(r=r)

    @pytest.mark.parametrize(
        "r", [(-0.2, 1.5), (0.0, 1.0), (1.5, 0.5), (np.nan, 1.0), (0.5, np.inf)]
    )
    def test_rejects(self, r):
        with pytest.raises(ValueError, match="r needs"):
            check_range(r=r)


@st.composite
def soft_label_vectors(draw, max_k=12, k=None):
    if k is None:
        k = draw(st.integers(min_value=2, max_value=max_k))
    raw = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=k,
            max_size=k,
        ).filter(lambda v: sum(v) > 1e-6)
    )
    total = sum(raw)
    return np.array(raw) / total


class TestWeightedAverage:
    def test_labels_as_any_array_like(self):
        # np.asarray stacks SoftLabels, so a list of them, an (N, K) array and
        # nested sequences are the same labels
        pop = DevicePopulation([0.25, 0.75], [1.0, 1.0])
        labels = [SoftLabel((0.8, 0.2)), SoftLabel((0.4, 0.6))]
        rows = [[0.8, 0.2], [0.4, 0.6]]
        assert np.array_equal(np.asarray(labels), rows)
        expected = weighted_average(labels, pop).probs
        for q in (np.asarray(labels), rows, tuple(map(tuple, rows))):
            assert weighted_average(q, pop).probs.tobytes() == expected.tobytes()
        with pytest.raises(ValueError, match=r"labels of shape \(1, 2\) for 2 devices"):
            weighted_average(np.asarray(labels[:1]), pop)

    def test_symmetry(self):
        pop = DevicePopulation([0.5, 0.5], [1.0, 1.0])
        labels = [SoftLabel((1.0, 0.0)), SoftLabel((0.0, 1.0))]
        assert np.allclose(weighted_average(labels, pop).probs, [0.5, 0.5])

    def test_single_device_identity(self):
        pop = DevicePopulation([1.0], [1.0])
        labels = [SoftLabel((0.7, 0.3))]
        assert np.allclose(weighted_average(labels, pop).probs, [0.7, 0.3])

    def test_direct_arithmetic(self):
        # oracle: elementwise sum of omega_i * q_i computed by hand
        pop = DevicePopulation([0.25, 0.75], [1.0, 1.0])
        labels = [SoftLabel((0.8, 0.2)), SoftLabel((0.4, 0.6))]
        expected = [0.25 * 0.8 + 0.75 * 0.4, 0.25 * 0.2 + 0.75 * 0.6]
        assert np.allclose(weighted_average(labels, pop).probs, expected)
        assert np.allclose(expected, [0.5, 0.5])

    def test_length_mismatch(self):
        pop = DevicePopulation([0.5, 0.5], [1.0, 1.0])
        with pytest.raises(ValueError, match=r"labels of shape \(1, 2\) for 2 devices"):
            weighted_average([SoftLabel((0.5, 0.5))], pop)

    @given(
        # both labels at one shared K: truncating a longer one could leave a
        # zero vector to normalize
        pair=st.integers(min_value=2, max_value=6).flatmap(
            lambda k: st.tuples(soft_label_vectors(k=k), soft_label_vectors(k=k))
        ),
        w=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=50)
    def test_convex_combination_stays_on_simplex(self, pair, w):
        q1, q2 = pair
        pop = DevicePopulation([w, 1.0 - w], [1.0, 1.0])
        out = weighted_average(
            [SoftLabel(q1), SoftLabel(q2)], pop
        )
        # closure: the result itself passes validation
        SoftLabel(out.probs)


def population_kwargs(**changes):
    """Arguments of a valid two-device population, with ``changes`` applied."""
    kwargs = dict(
        omegas=[0.25, 0.75], betas_true=[1.0, 2.0], betas_assumed=[2.0, 2.0], power_caps=[3.0, 4.0]
    )
    kwargs.update(changes)
    return kwargs


class TestDeviceTypes:
    def test_gamma(self):
        pop = DevicePopulation([0.5, 0.5], [2.0, 1.0], [1.0, 1.0])
        assert np.array_equal(pop.gammas, [2.0, 1.0])

    @pytest.mark.parametrize(
        "kwargs",
        [
            population_kwargs(betas_true=[0.0, 2.0]),
            population_kwargs(betas_assumed=[2.0, -1.0]),
            population_kwargs(power_caps=[3.0, 0.0]),
            population_kwargs(omegas=[-0.1, 1.1]),
        ],
    )
    def test_invalid_profiles(self, kwargs):
        with pytest.raises(ValueError):
            DevicePopulation(**kwargs)

    def test_non_finite_gamma(self):
        with pytest.raises(ValueError, match="gamma"), np.errstate(over="ignore"):
            DevicePopulation([1.0], [1e300], [1e-300])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["omegas", "betas_true", "betas_assumed", "power_caps"])
    def test_non_finite_entries(self, field, bad):
        # a NaN weight also slips past the sum check, which compares False
        values = population_kwargs()[field]
        with pytest.raises(ValueError, match="per-device entries must be finite"):
            DevicePopulation(**population_kwargs(**{field: [values[0], bad]}))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="weights sum to"):
            DevicePopulation([0.6, 0.6], [1.0, 1.0])

    def test_empty_population(self):
        with pytest.raises(ValueError):
            DevicePopulation([], [])

    @pytest.mark.parametrize(
        "changes",
        [
            dict(omegas=[1.0]),
            dict(betas_true=[1.0, 2.0, 3.0]),
            dict(betas_assumed=[2.0]),
            dict(power_caps=[[3.0, 4.0]]),
            dict(omegas=0.5, betas_true=1.0, betas_assumed=1.0, power_caps=1.0),
        ],
    )
    def test_unequal_lengths(self, changes):
        with pytest.raises(ValueError, match="equal length"):
            DevicePopulation(**population_kwargs(**changes))

    def test_population_arrays(self):
        pop = DevicePopulation(**population_kwargs())
        assert pop.num_devices == 2
        assert np.allclose(pop.gammas, [0.5, 1.0])
        assert pop.gamma_bar == pytest.approx(0.25 * 0.5 + 0.75 * 1.0)
        for v in (pop.omegas, pop.betas_true, pop.betas_assumed, pop.power_caps):
            assert v.dtype == np.float64 and v.shape == (2,)

    def test_defaults(self):
        pop = DevicePopulation([0.5, 0.5], [1.0, 2.0])
        assert np.array_equal(pop.betas_assumed, [1.0, 2.0])
        assert np.array_equal(pop.power_caps, [1.0, 1.0])
        assert np.array_equal(pop.gammas, [1.0, 1.0])

    def test_arrays_read_only(self):
        omegas = np.array([0.5, 0.5])
        pop = DevicePopulation(omegas, [1.0, 2.0])
        omegas[0] = 0.0  # the population keeps its own copy
        assert pop.omegas[0] == 0.5
        for v in (pop.omegas, pop.betas_true, pop.betas_assumed, pop.power_caps):
            with pytest.raises(ValueError):
                v[0] = 2.0


class TestRoundConfig:
    def test_sample_count(self):
        cfg = RoundConfig(num_classes=4, reps=3, antennas=5)
        assert cfg.sample_count == 15

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_classes=1),
            dict(num_classes=4, rho=0.0),
            dict(num_classes=4, noise_var=-1.0),
            dict(num_classes=4, time_corr=1.0),
            dict(num_classes=4, space_corr=-0.2),
            dict(num_classes=4, reps=0),
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            RoundConfig(**kwargs)

    @pytest.mark.parametrize("field", ["rho", "noise_var"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, field, bad):
        with pytest.raises(ValueError, match="finite"):
            RoundConfig(num_classes=4, **{field: bad})


class TestRandomSource:
    def test_same_seed_same_draws(self):
        a = RandomSource(99).generator.standard_normal(100)
        b = RandomSource(99).generator.standard_normal(100)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomSource(1).generator.standard_normal(10)
        b = RandomSource(2).generator.standard_normal(10)
        assert not np.array_equal(a, b)

    def test_split_is_deterministic(self):
        kids_a = RandomSource(5).split(3)
        kids_b = RandomSource(5).split(3)
        for ka, kb in zip(kids_a, kids_b):
            assert np.array_equal(
                ka.generator.standard_normal(16), kb.generator.standard_normal(16)
            )

    def test_children_are_decorrelated(self):
        kids = RandomSource(5).split(2)
        x = kids[0].generator.standard_normal(20_000)
        y = kids[1].generator.standard_normal(20_000)
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.03

    def test_child_differs_from_parent(self):
        parent = RandomSource(5)
        child = parent.split(1)[0]
        assert not np.array_equal(
            parent.generator.standard_normal(16), child.generator.standard_normal(16)
        )


def test_package_defines_only_two_exception_classes():
    # bad input raises ValueError with a message that names it; only the CLI's
    # exit-1 config error and runaway training (a RuntimeError) get a class
    src = Path(__file__).resolve().parent.parent / "src" / "scene_sim"
    classes = [node for path in sorted(src.glob("*.py")) for node in ast.walk(ast.parse(
        path.read_text())) if isinstance(node, ast.ClassDef)]
    found = {name for name, obj in vars(builtins).items()
             if isinstance(obj, type) and issubclass(obj, BaseException)}
    builtin = set(found)
    while True:  # subclasses of subclasses, to a fixed point
        more = {c.name for c in classes
                if any(ast.unparse(b).split(".")[-1] in found for b in c.bases)}
        if more <= found:
            break
        found |= more
    assert found - builtin == {"ConfigError", "Divergence"}


def _count_calls():
    """(argument name, minimum, valid value, call taking the value) for every
    count argument checked by ``core.check_count``."""
    pop = DevicePopulation(np.full(2, 0.5), np.ones(2))
    frame = map_energies([[0.5, 0.5], [1.0, 0.0]], pop, 1.0)
    sweep = dict(sm_pairs=((1, 1),), trials=2, channel_model="diagonal")
    crossover = dict(budget=10, c_coh=1.0, c_nc=2.0, num_classes=4)
    fd = dict(data=DatasetSpec(size=30), clients=2, private_size=10, open_size=10,
              unlabeled_budget=4, pretrain_epochs=1)

    def lockstep(batch_size=2, epochs=1):
        return train_lockstep(np.zeros((1, 3, 2)), np.zeros((1, 2)), np.ones((1, 4, 3)),
                              np.full((1, 4, 2), 0.5), epochs, batch_size, 0.1,
                              [RandomSource(0)])

    return [
        ("num_classes", 2, 3, lambda v: RoundConfig(num_classes=v)),
        ("reps", 1, 2, lambda v: RoundConfig(num_classes=3, reps=v)),
        ("antennas", 1, 2, lambda v: RoundConfig(num_classes=3, antennas=v)),
        ("n_devices", 1, 2, lambda v: PopulationSpec(n_devices=v)),
        ("num_classes", 2, 3, lambda v: LabelSpec(num_classes=v)),
        ("seed", 0, 1, lambda v: ExperimentSpec(seed=v)),
        ("trials", 1, 2, lambda v: ExperimentSpec(trials=v)),
        ("sm_pairs[1][0]", 1, 2, lambda v: ExperimentSpec(sm_pairs=((2, 2), (v, 4)))),
        ("sm_pairs[0][1]", 1, 2, lambda v: ExperimentSpec(sm_pairs=((2, v),))),
        ("threads", 1, 2, lambda v: run_experiment(ExperimentSpec(**sweep), threads=v)),
        ("s", 1, 2, lambda v: RoundSpec(s=v)),
        ("m", 1, 2, lambda v: RoundSpec(m=v)),
        ("k", 2, 3, lambda v: mismatch_bias_bound(0.1, v)),
        ("k", 2, 3, lambda v: calibrate_noise(1.0, v, 5.0)),
        ("budget", 1, 10, lambda v: CrossoverModel(**{**crossover, "budget": v})),
        ("num_classes", 2, 3, lambda v: CrossoverModel(**{**crossover, "num_classes": v})),
        ("pilot_cost", 0, 2, lambda v: CrossoverModel(**crossover).mse(v)),
        ("n", 1, 2, lambda v: sample_pathloss(PathlossModel(), v, RandomSource(0))),
        ("trials", 1, 2, lambda v: simulate_rounds(frame, pop, RoundConfig(2), RandomSource(0),
                                                   trials=v)),
        ("sample_count", 1, 2, lambda v: scene_raw([[1.0, 2.0]], v, 1.0)),
        ("t", 1, 2, lambda v: top_t_truncate(SoftLabel((0.5, 0.5)), v)),
        ("num_classes", 2, 3, lambda v: DatasetSpec(num_classes=v)),
        ("dim", 1, 2, lambda v: DatasetSpec(dim=v)),
        ("size", 1, 2, lambda v: DatasetSpec(size=v)),
        ("batch_size", 1, 2, lambda v: lockstep(batch_size=v)),
        ("epochs", 0, 1, lambda v: lockstep(epochs=v)),
        ("seed", 0, 1, lambda v: FdSetup.build(FdProtocolConfig(**fd), v)),
        *[(name, 1, valid, lambda v, name=name: FdProtocolConfig(**{name: v}))
          for name, valid in (("clients", 5), ("unlabeled_budget", 5), ("batch_size", 5),
                              ("private_size", 5), ("open_size", 256))],
        *[(name, 0, 1, lambda v, name=name: FdProtocolConfig(**{name: v}))
          for name in ("pretrain_epochs", "distill_epochs")],
        ("seed", 0, 1, lambda v: RandomSource(v)),
        ("n", 1, 2, lambda v: RandomSource(0).split(v)),
        ("dim", 1, 2, lambda v: SoftmaxClassifier.initialize(v, 3, RandomSource(0))),
        ("num_classes", 2, 3, lambda v: SoftmaxClassifier.initialize(2, v, RandomSource(0))),
    ]


@pytest.mark.parametrize("name, minimum, valid, call",
                         [pytest.param(*case, id=f"{i}-{case[0]}")
                          for i, case in enumerate(_count_calls())])
def test_counts_are_checked(name, minimum, valid, call):
    # 2.5 and True used to pass most of these, or to raise a bare TypeError
    for bad in (minimum - 1, 2.5, True):
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be an integer "
                                             rf">= {minimum}, got {bad}$"):
            call(bad)
    call(np.int64(valid))


@pytest.mark.parametrize("cls, name, member, extra", [
    pytest.param(*case, id=f"{case[0].__name__}-{case[1]}") for case in [
        (RoundConfig, "channel_model", ChannelModel.DIAGONAL, {"num_classes": 3}),
        (ExperimentSpec, "rho_rule", RhoRule.FIXED, {}),
        (ExperimentSpec, "channel_model", ChannelModel.DIAGONAL, {}),
        (ExperimentSpec, "estimator", Estimator.BOTH, {}),
        (PopulationSpec, "weight_rule", WeightRule.RANDOM, {}),
        (LabelSpec, "kind", LabelKind.VERTEX, {}),
        (FdProtocolConfig, "aggregation", Aggregation.RATIO, {}),
        (FdProtocolConfig, "rho_rule", RhoRule.FIXED, {}),
    ]
])
def test_settings_are_checked(cls, name, member, extra):
    # "diag" used to raise "'diag' is not a valid ChannelModel", naming no argument
    for bad in ("bogus", True):
        with pytest.raises(ValueError, match=rf"^{name} must be one of "):
            cls(**{name: bad}, **extra)
    for good in (member, member.value):
        assert getattr(cls(**{name: good}, **extra), name) is member


@pytest.mark.parametrize("cls, name, extra", [
    (DatasetSpec, "noise_std", {}),
    (PathlossModel, "shadowing_std_db", {}),
    (PathlossModel, "exponent", {"normalize_mean": False}),
    (FdProtocolConfig, "learning_rate", {}),
    (LabelSpec, "alpha", {}),
])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_reals_must_be_finite(cls, name, extra, bad):
    # inf and nan used to construct: inf shadowing drew nan gains with a
    # RuntimeWarning, an inf exponent gains of 0.0, an inf noise_std inf features
    with pytest.raises(ValueError, match=rf"^{name} must be .*finite, got {bad}$"):
        cls(**{name: bad}, **extra)
