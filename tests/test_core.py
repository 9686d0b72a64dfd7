import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heis import core
from heis.core import dilate, group_inv, group_mul, origin


def pt(*vals):
    return np.array(vals, dtype=float)


def rand_points(rng, k, n=1, scale=2.0):
    return rng.normal(size=(k, 2 * n + 1)) * scale


class TestGroupMul:
    def test_hand_evaluated_product(self):
        # (zeta=1, t=0) * (zeta=i, t=0): Im(1 * conj(i)) = -1, so t = -2
        x = pt(1.0, 0.0, 0.0)
        y = pt(0.0, 1.0, 0.0)
        assert np.array_equal(group_mul(x, y), pt(1.0, 1.0, -2.0))

    def test_neutral_element(self):
        rng = np.random.default_rng(0)
        for x in rand_points(rng, 10):
            assert np.array_equal(group_mul(x, origin(1)), x)
            assert np.array_equal(group_mul(origin(1), x), x)

    def test_inverse_axiom(self):
        rng = np.random.default_rng(1)
        for x in rand_points(rng, 10):
            z = group_mul(x, group_inv(x))
            assert np.allclose(z, 0.0, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            group_mul(pt(1, 0, 0), pt(1, 0, 0, 0, 0))

    def test_associativity(self):
        rng = np.random.default_rng(2)
        for n in (1, 2):
            x, y, z = rand_points(rng, 3, n=n)
            lhs = group_mul(group_mul(x, y), z)
            rhs = group_mul(x, group_mul(y, z))
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_noncommutativity_witness(self):
        x = pt(1.0, 0.0, 0.0)
        y = pt(0.0, 1.0, 0.0)
        assert group_mul(y, x)[-1] == 2.0
        assert not np.array_equal(group_mul(x, y), group_mul(y, x))

    def test_center_commutes(self):
        rng = np.random.default_rng(3)
        c = pt(0.0, 0.0, 1.7)
        for y in rand_points(rng, 10):
            assert np.allclose(group_mul(c, y), group_mul(y, c), atol=1e-15)

    def test_batch_broadcasting(self):
        rng = np.random.default_rng(4)
        xs = rand_points(rng, 5)
        ys = rand_points(rng, 5)
        batch = group_mul(xs, ys)
        for i in range(5):
            assert np.array_equal(batch[i], group_mul(xs[i], ys[i]))


class TestGroupInv:
    def test_origin(self):
        assert np.array_equal(group_inv(origin(1)), origin(1))

    def test_negation_formula(self):
        assert np.array_equal(group_inv(pt(1.0, 0.0, 2.0)), pt(-1.0, 0.0, -2.0))

    def test_involution(self):
        rng = np.random.default_rng(5)
        for x in rand_points(rng, 10):
            assert np.array_equal(group_inv(group_inv(x)), x)


class TestTranslate:
    def test_identity_translation(self):
        rng = np.random.default_rng(6)
        for x in rand_points(rng, 5):
            assert np.array_equal(group_mul(origin(1), x), x)
            assert np.array_equal(group_mul(x, origin(1)), x)

    def test_derived_example(self):
        # (i,0)*(1,0) = (1+i, 2 Im(i * 1)) = (1+i, 2)
        z = pt(0.0, 1.0, 0.0)
        x = pt(1.0, 0.0, 0.0)
        assert np.array_equal(group_mul(z, x), pt(1.0, 1.0, 2.0))


class TestDilate:
    def test_identity(self):
        rng = np.random.default_rng(8)
        for x in rand_points(rng, 5):
            assert np.array_equal(dilate(1.0, x), x)

    def test_scaling_formula(self):
        assert np.array_equal(dilate(2.0, pt(1.0, 0.0, 1.0)), pt(2.0, 0.0, 4.0))

    def test_nonpositive_rejected(self):
        for lam in (0.0, -1.0):
            with pytest.raises(ValueError):
                dilate(lam, pt(1.0, 0.0, 0.0))

    def test_semigroup(self):
        rng = np.random.default_rng(9)
        x = rand_points(rng, 1)[0]
        assert np.allclose(dilate(2.0, dilate(3.0, x)), dilate(6.0, x), atol=1e-12)

    def test_group_homomorphism(self):
        rng = np.random.default_rng(10)
        x, y = rand_points(rng, 2)
        lam = 1.7
        lhs = dilate(lam, group_mul(x, y))
        rhs = group_mul(dilate(lam, x), dilate(lam, y))
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestCoordinates:
    def test_rejects_even_length(self):
        with pytest.raises(ValueError):
            core.dim_to_n(pt(1.0, 2.0))


class TestHPoint:
    """A point of H^n is a plain coordinate array; these check its
    complex view (zeta, t)."""

    def test_complex_view(self):
        x = pt(1.0, 2.0, 3.0, 4.0, 5.0)
        assert core.dim_to_n(x) == 2
        zeta, t = core.to_complex(x)
        assert np.array_equal(zeta, np.array([1 + 2j, 3 + 4j]))
        assert t == 5.0

    def test_complex_roundtrip(self):
        x = pt(1.0, 2.0, 3.0, 4.0, 5.0)
        zeta, t = core.to_complex(x)
        assert np.array_equal(core.from_complex(zeta, t), x)


EPS = np.finfo(float).eps


@st.composite
def point_tuples(draw, k):
    """k points of H^n, n = 1..3, with coordinates over many scales."""
    n = draw(st.integers(1, 3))
    scale = 10.0 ** draw(st.integers(-6, 6))
    coords = draw(st.lists(st.floats(-1.0, 1.0), min_size=k * (2 * n + 1),
                           max_size=k * (2 * n + 1)))
    pts = np.array(coords).reshape(k, 2 * n + 1) * scale
    pts[:, -1] *= scale  # t scales like zeta^2
    return pts


def size_of(*pts):
    """Per-coordinate size of a product of the points: sum |zeta| on the
    zeta axes, and sum |t| + (sum |zeta|)^2 on t, the size of the twist."""
    pts = np.array(pts)
    z = np.sum(np.abs(pts[:, :-1]))
    out = np.full(pts.shape[1], z)
    out[-1] = np.sum(np.abs(pts[:, -1])) + z * z
    return out


class TestGroupAxiomProperties:
    @settings(deadline=None, max_examples=200)
    @given(point_tuples(3))
    def test_associativity(self, pts):
        x, y, z = pts
        lhs = group_mul(group_mul(x, y), z)
        rhs = group_mul(x, group_mul(y, z))
        assert np.all(np.abs(lhs - rhs) <= 16 * EPS * size_of(x, y, z))

    @settings(deadline=None, max_examples=200)
    @given(point_tuples(1))
    def test_inverse(self, pts):
        x = pts[0]
        # exact: the twist of zeta with -zeta cancels product for product
        assert np.all(group_mul(x, group_inv(x)) == 0.0)
        assert np.all(group_mul(group_inv(x), x) == 0.0)

    @settings(deadline=None, max_examples=200)
    @given(point_tuples(2), st.floats(1e-3, 1e3))
    def test_dilation_is_a_homomorphism(self, pts, lam):
        x, y = pts
        lhs = dilate(lam, group_mul(x, y))
        rhs = group_mul(dilate(lam, x), dilate(lam, y))
        size = size_of(x, y) * np.r_[np.full(len(x) - 1, lam), lam * lam]
        assert np.all(np.abs(lhs - rhs) <= 16 * EPS * size)


class TestRowSum:
    """`_row_sum` is np.sum along the last axis, bit for bit: a column loop
    below 8 terms, numpy's own sum from 8 on."""

    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 16),
           st.sampled_from([(1,), (7,), (300,), (9000,), (1, 1), (5, 40), (60, 3), (1, 300)]),
           st.integers(0, 2 ** 32 - 1))
    def test_is_numpy_sum(self, width, lead, seed):
        # magnitudes 1e-8 to 1e8, signed zeros, contiguous and strided
        rng = np.random.default_rng(seed)
        x = rng.normal(size=lead + (2 * width,)) * 10.0 ** rng.uniform(-8.0, 8.0,
                                                                        lead + (2 * width,))
        x[rng.random(x.shape) < 0.1] = 0.0
        x[rng.random(x.shape) < 0.1] = -0.0
        for v in (x[..., 1::2], np.ascontiguousarray(x[..., :width])):
            got = core._row_sum(lambda j: v[..., j], width)
            assert got.tobytes() == np.sum(v, axis=-1).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8])
    def test_twist_is_the_numpy_sum(self, n):
        rng = np.random.default_rng(n)
        zx, zy = rng.normal(size=(2, 40, 2 * n)) * 10.0 ** rng.uniform(-8.0, 8.0, (2, 40, 2 * n))
        for a, b in ((zx, zy), (zx[:, None], zy[None]), (zx[0], zy)):
            want = 2.0 * np.sum(a[..., 1::2] * b[..., 0::2] - a[..., 0::2] * b[..., 1::2], axis=-1)
            assert core._twist(a, b).tobytes() == want.tobytes()
