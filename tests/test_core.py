import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scene_sim import (
    DevicePopulation,
    RandomSource,
    RoundConfig,
    weighted_average,
)
from scene_sim.core import (
    BadLength,
    BadRange,
    LengthMismatch,
    NegativeEntry,
    NonFiniteEntry,
    NotNormalized,
    SoftLabel,
    check_range,
    check_simplex,
)


class TestValidateSoftLabel:
    def test_uniform_two_class(self):
        lab = SoftLabel((0.5, 0.5))
        assert np.allclose(lab.probs, [0.5, 0.5])

    def test_boundary_zero_entry_allowed(self):
        lab = SoftLabel((0.7, 0.3, 0.0))
        assert lab.num_classes == 3
        assert lab.probs[2] == 0.0

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            SoftLabel((0.6, 0.6))

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry):
            SoftLabel((1.1, -0.1))

    def test_negative_dust_clipped(self):
        lab = SoftLabel((1.0 + 1e-13, -1e-13))
        assert lab.probs[1] == 0.0

    def test_bad_length(self):
        with pytest.raises(BadLength):
            SoftLabel((1.0,))

    def test_probs_read_only(self):
        lab = SoftLabel((0.5, 0.5))
        with pytest.raises(ValueError):
            lab.probs[0] = 1.0

    @pytest.mark.parametrize(
        "v", [(np.nan, np.nan), (np.nan, 1.0), (np.inf, 0.0), (0.5, 0.5, -np.inf)]
    )
    def test_non_finite_rejected(self, v):
        # abs(nan - 1) > tol is False: without a finiteness check these pass
        with pytest.raises(NonFiniteEntry):
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
        "bad, exc",
        [(np.nan, NonFiniteEntry), (-0.1, NegativeEntry), (0.3, NotNormalized)],
    )
    def test_one_bad_entry_rejects_the_batch(self, bad, exc):
        q = np.full((4, 3, 2), 0.5)
        q[2, 1, 0] = bad
        with pytest.raises(exc):
            check_simplex(q)

    def test_scaled_totals(self):
        e = np.array([[1.0, 2.0], [0.0, 0.0]])
        assert np.array_equal(check_simplex(e, [3.0, 0.0]), e)
        with pytest.raises(NotNormalized):
            check_simplex(e, [3.0, 1.0])
        with pytest.raises(NonFiniteEntry):
            check_simplex(e, [np.inf, 0.0])


class TestCheckRange:
    @pytest.mark.parametrize("r", [(0.5, 1.5), (1.0, 1.0), None])
    def test_accepts(self, r):
        check_range(r=r)

    @pytest.mark.parametrize(
        "r", [(-0.2, 1.5), (0.0, 1.0), (1.5, 0.5), (np.nan, 1.0), (0.5, np.inf)]
    )
    def test_rejects(self, r):
        with pytest.raises(BadRange, match="r needs"):
            check_range(r=r)


@st.composite
def soft_label_vectors(draw, max_k=12):
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
        with pytest.raises(LengthMismatch):
            weighted_average([SoftLabel((0.5, 0.5))], pop)

    @given(
        q1=soft_label_vectors(max_k=6),
        q2=soft_label_vectors(max_k=6),
        w=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=50)
    def test_convex_combination_stays_on_simplex(self, q1, q2, w):
        k = min(len(q1), len(q2))
        q1, q2 = q1[:k] / q1[:k].sum(), q2[:k] / q2[:k].sum()
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
        with pytest.raises(NonFiniteEntry):
            DevicePopulation(**population_kwargs(**{field: [values[0], bad]}))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(NotNormalized):
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
        with pytest.raises(LengthMismatch):
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
