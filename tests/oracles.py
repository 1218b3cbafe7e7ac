"""Laurent-expression oracles for the raw route and the tensor product.

A matrix valued Laurent expression over the circle generator is a dict
{degree: n x n matrix} whose exactly zero coefficients are dropped, so
its keys are its support.  ``compose_image`` expands a composite
coaction through powers of the generator image and Kronecker products,
independently of the O(n^3) expansion in ``circleact.coaction`` and of
the closed form in ``circleact.category.tensor_product``.
"""

import numpy as np

from circleact.linalg import adjoint, frobenius, kron


def laurent(coeffs: dict) -> dict:
    """The expression with its exactly zero coefficients dropped."""
    return {k: M for k, M in coeffs.items() if np.any(M)}


def product(p: dict, q: dict) -> dict:
    out = {}
    for j, M in p.items():
        for k, N in q.items():
            out[j + k] = out.get(j + k, 0) + M @ N
    return laurent(out)


def power(p: dict, k: int, n: int) -> dict:
    out = {0: np.eye(n, dtype=complex)}
    for _ in range(k):
        out = product(out, p)
    return out


def star(p: dict) -> dict:
    """Degree k -> -k, coefficient -> its adjoint."""
    return {-k: adjoint(M) for k, M in p.items()}


def distance(p: dict, q: dict) -> float:
    """Max over degrees of the Frobenius distance of coefficients."""
    return max((frobenius(p.get(k, 0) - q.get(k, 0)) for k in p.keys() | q.keys()), default=0.0)


def generator_image(obj) -> dict:
    """deg(+1) x A + deg(-1) x B."""
    return laurent({1: obj.A, -1: obj.B})


def apply_coaction(obj, p: dict) -> dict:
    """Image of the scalar Laurent polynomial {degree: coefficient}:
    positive powers through the generator image, negative ones through
    its adjoint."""
    img = generator_image(obj)
    out = {}
    for k, coef in p.items():
        if coef != 0:
            base = power(img, k, obj.n) if k >= 0 else power(star(img), -k, obj.n)
            for d, M in base.items():
                out[d] = out.get(d, 0) + coef * M
    return laurent(out)


def compose_image(outer, inner: dict) -> dict:
    """sum_k apply_coaction(outer, deg(k)) kron M_k for inner = {k: M_k},
    over the product space with the outer fiber on the left."""
    out = {}
    for k, M in inner.items():
        for d, G in apply_coaction(outer, {k: 1.0}).items():
            out[d] = out.get(d, 0) + kron(G, M)
    return laurent(out)
