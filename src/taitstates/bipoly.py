"""Exact bivariate polynomials with arbitrary-precision integer coefficients.

A ``BiPoly`` is a sparse map from exponent pairs ``(i, j)`` to Python ints,
kept in canonical form (no zero coefficients are ever stored).  Tutte
polynomials live here, as do their one-variable specializations: after
``specialize`` the result is supported on the first exponent axis alone and
is conventionally read as a polynomial in ``t``.

Coefficients are plain Python integers on purpose.  Spanning-tree counts and
state sums overflow 64-bit words on quite small graphs, and silent
wraparound would poison every downstream identity check.
"""

from __future__ import annotations

from typing import Iterator, Mapping

__all__ = ["BiPoly"]


class BiPoly:
    """Sparse bivariate polynomial over the integers.

    Immutable by convention: all arithmetic returns new instances.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        clean: dict[tuple[int, int], int] = {}
        if terms:
            for (i, j), c in terms.items():
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent in term ({i}, {j})")
                if c:
                    clean[(i, j)] = clean.get((i, j), 0) + c
                    if clean[(i, j)] == 0:
                        del clean[(i, j)]
        self._terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def one(cls) -> "BiPoly":
        return cls({(0, 0): 1})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[tuple[int, int], int]]:
        return iter(sorted(self._terms.items()))

    def is_univariate(self) -> bool:
        """True when supported on the first exponent axis only."""
        return all(j == 0 for (_, j) in self._terms)

    def t_coeffs(self) -> list[int]:
        """Ascending coefficient list [c0, c1, ...] of a univariate value."""
        if not self._terms:
            return [0]
        out = [0] * (max(self._terms)[0] + 1)
        for (i, j), c in self._terms.items():
            if j:
                raise ValueError("polynomial is not univariate")
            out[i] = c
        return out

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "BiPoly") -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        res = BiPoly.__new__(BiPoly)
        res._terms = out
        return res

    def __neg__(self) -> "BiPoly":
        res = BiPoly.__new__(BiPoly)
        res._terms = {k: -c for k, c in self._terms.items()}
        return res

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                key = (i1 + i2, j1 + j2)
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        res = BiPoly.__new__(BiPoly)
        res._terms = out
        return res

    # -- specialization and evaluation ----------------------------------

    def specialize(self, mode: str) -> "BiPoly":
        """Substitute one variable away.

        ``x_to_zero``  -- set x = 0; surviving y-powers are re-read as powers
                          of the single remaining variable.
        ``y_to_zero``  -- set y = 0.
        ``x_equals_y`` -- identify both variables.

        All three results are univariate and supported on the first axis.
        """
        out: dict[tuple[int, int], int] = {}
        if mode == "x_to_zero":
            items = (((j, 0), c) for (i, j), c in self._terms.items() if i == 0)
        elif mode == "y_to_zero":
            items = (((i, 0), c) for (i, j), c in self._terms.items() if j == 0)
        elif mode == "x_equals_y":
            items = (((i + j, 0), c) for (i, j), c in self._terms.items())
        else:
            raise ValueError(f"unknown specialization mode {mode!r}")
        for key, c in items:
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        res = BiPoly.__new__(BiPoly)
        res._terms = out
        return res

    def eval(self, x0: int, y0: int) -> int:
        total = 0
        for (i, j), c in self._terms.items():
            total += c * x0**i * y0**j
        return total

    # -- equality and rendering -----------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def _sorted_terms(self) -> list[tuple[tuple[int, int], int]]:
        # total degree then first exponent, both descending
        return sorted(self._terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][0]), reverse=True)

    def render(self, xname: str = "x", yname: str = "y") -> str:
        """Deterministic human-readable form, e.g. ``x^2 + x + y``."""
        if not self._terms:
            return "0"
        parts: list[str] = []
        for (i, j), c in self._sorted_terms():
            mono = " ".join(
                n if e == 1 else f"{n}^{e}"
                for n, e in ((xname, i), (yname, j))
                if e > 0
            )
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag} {mono}"
            else:
                body = str(mag)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def render_t(self, name: str = "t") -> str:
        if not self.is_univariate():
            raise ValueError("polynomial is not univariate")
        return self.render(xname=name)

    def __repr__(self) -> str:
        return f"BiPoly({self.render()})"
