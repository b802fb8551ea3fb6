import random

import pytest

from cluster_loc.category import Category, Mor
from cluster_loc.linalg import Mat, solve_right
from cluster_loc.rigid import RigidObject, rigid_object
from cluster_loc.suites import cached_category


def sample_rigid(cat: Category, rng: random.Random) -> RigidObject:
    """A random basic rigid object (seeded)."""
    order = list(range(cat.N))
    rng.shuffle(order)
    acc: list[int] = []
    for a in order:
        if all(not cat.crosses_idx(a, b) for b in acc):
            acc.append(a)
            if rng.random() < 0.35:
                break
    return RigidObject(tuple(sorted(acc)), True)


def is_isomorphism(cat: Category, f: Mor) -> bool:
    """Decide invertibility by solving f.g = id and checking g.f = id.

    When f is invertible, f.g = id pins g = f^-1, so the two-sided check
    can only fail for maps that are not invertible (split epis)."""
    X, Y = f.src, f.tgt
    sol = solve_right(cat.post_matrix(f, Y),
                      Mat.column(cat.vectorize(cat.identity(Y))))
    if sol is None:
        return False
    g = cat.mor_from_vec(Y, X, sol.col(0))
    return cat.compose(g, f).m == cat.identity(X).m


@pytest.fixture(scope="session")
def cat4():
    return cached_category(4)


@pytest.fixture(scope="session")
def example_T(cat4):
    """The running rank-4 instance: T = M44 + M14 + M11."""
    return rigid_object(cat4, ["M44", "M14", "M11"])


@pytest.fixture(scope="session")
def fan_T(cat4):
    """A full triangulation of the heptagon (cluster-tilting)."""
    return rigid_object(cat4, ["0-2", "0-3", "0-4", "0-5"])


@pytest.fixture(scope="session")
def cat2():
    return cached_category(2)
