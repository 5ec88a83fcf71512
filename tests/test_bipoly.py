import pytest
from hypothesis import given, strategies as st

from taitstates.bipoly import BiPoly

from helpers import swap_vars, t_poly

X, Y = BiPoly({(1, 0): 1}), BiPoly({(0, 1): 1})


def poly_from(entries):
    return BiPoly({(i, j): c for (i, j), c in entries.items()})


def cycle_poly(n):
    terms = {(i, 0): 1 for i in range(1, n)}
    terms[(0, 1)] = 1
    return BiPoly(terms)


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.integers(-20, 20),
    max_size=6,
).map(lambda d: BiPoly(d))


class TestArithmetic:
    def test_additive_identity(self):
        p = X + Y
        assert p + BiPoly.zero() == p

    def test_x_plus_y(self):
        assert X + Y == BiPoly({(1, 0): 1, (0, 1): 1})

    def test_double_cycle_two(self):
        # chi of the 2-cycle is x + y by hand recursion; doubling it
        c2 = cycle_poly(2)
        assert c2 + c2 == BiPoly({(1, 0): 2, (0, 1): 2})

    def test_product_expansion(self):
        lhs = (X + BiPoly.one()) * (Y + BiPoly.one())
        assert lhs == BiPoly({(1, 1): 1, (1, 0): 1, (0, 1): 1, (0, 0): 1})

    def test_multiplicative_identity(self):
        p = BiPoly({(2, 1): 7, (0, 3): -2})
        assert p * BiPoly.one() == p

    def test_hopf_cube(self):
        two_t = t_poly([0, 2])
        assert two_t * two_t * two_t == t_poly([0, 0, 0, 8])

    @given(small_polys, small_polys)
    def test_add_commutes(self, p, q):
        assert p + q == q + p

    @given(small_polys, small_polys)
    def test_mul_commutes(self, p, q):
        assert p * q == q * p

    @given(small_polys, small_polys, small_polys)
    def test_mul_associates(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(small_polys, small_polys, small_polys)
    def test_distributes(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(small_polys)
    def test_canonical_no_zero_coeffs(self, p):
        q = p + BiPoly.zero()
        assert all(c != 0 for _, c in q.terms())
        r = p - p
        assert r.is_zero() and not list(r.terms())


class TestSpecialize:
    def test_cycle_x_to_zero(self):
        # only the bare y term survives, renamed to t
        assert cycle_poly(5).specialize("x_to_zero") == t_poly([0, 1])

    def test_cycle_y_to_zero(self):
        assert cycle_poly(5).specialize("y_to_zero") == t_poly([0, 1, 1, 1, 1])

    def test_cycle_diagonal(self):
        assert cycle_poly(5).specialize("x_equals_y") == t_poly([0, 2, 1, 1, 1])

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            BiPoly.one().specialize("nope")

    @given(small_polys, st.integers(-5, 5))
    def test_diagonal_matches_eval(self, p, a):
        assert p.specialize("x_equals_y").eval(a, a) == p.eval(a, a)


class TestEval:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_cycle_at_one_one(self, n):
        assert cycle_poly(n).eval(1, 1) == n

    def test_zero_eval(self):
        assert BiPoly.zero().eval(13, -7) == 0

    def test_coefficient_sum(self):
        p = t_poly([0, 6, 33, 62, 48, 16, 2])
        assert p.eval(1, 1) == 167

    def test_big_integers(self):
        p = BiPoly.one()
        for _ in range(100):
            p = p * t_poly([0, 1])
        assert p.eval(3, 0) == 3**100


class TestRendering:
    def test_render_cycle(self):
        assert cycle_poly(3).render() == "x^2 + x + y"

    def test_render_coefficients(self):
        p = BiPoly({(2, 1): 3, (0, 0): -4, (1, 1): 1})
        assert p.render() == "3 x^2 y + x y - 4"

    def test_render_zero(self):
        assert BiPoly.zero().render() == "0"

    def test_render_t(self):
        p = t_poly([0, 6, 33, 62, 48, 16, 2])
        assert p.render_t() == "2 t^6 + 16 t^5 + 48 t^4 + 62 t^3 + 33 t^2 + 6 t"

    def test_t_coeffs(self):
        assert t_poly([0, 2, 1]).t_coeffs() == [0, 2, 1]
        with pytest.raises(ValueError):
            Y.t_coeffs()

    def test_swap_vars(self):
        assert swap_vars(cycle_poly(4)) == BiPoly({(0, 1): 1, (0, 2): 1, (0, 3): 1, (1, 0): 1})
