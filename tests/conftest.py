import pytest

from pbergman import kernel, make_catalog_domain


@pytest.fixture(autouse=True)
def empty_kernel_store(monkeypatch):
    """Every test starts with no kernel grid tables kept from another."""
    monkeypatch.setattr(kernel, "_store", {})


def assert_rel(actual, expected, rel, msg=""):
    scale = max(abs(expected), 1e-300)
    assert abs(actual - expected) <= rel * scale, (
        msg or f"{actual} vs {expected} (rel {abs(actual - expected) / scale:.3e} > {rel})"
    )


# domain specs that make_catalog_domain refuses with ConfigError
MALFORMED_DOMAIN_SPECS = [
    "ball(two)",
    "hartogs(1.5)",
    "product(ball(2),disc(q))",
    "ball(2;1;3)",
    "polydisc(2;0.5,0.5,0.5)",
    "disc(1",
    "disc(inf)",
    "torus(2)",
    "ball",
    "product()",
    "",
    "{not json",
    {"kind": "ball", "params": {}},
    {"kind": "disc", "params": {"radius": "x"}},
    {"kind": "disc", "params": {"raduis": 2.0}},
    {"kind": "product", "params": {"factors": 3}},
    ("ball",),
    ("hartogs", 1.5),
    (),
]


@pytest.fixture(scope="session")
def disc():
    return make_catalog_domain("disc")


@pytest.fixture(scope="session")
def punctured():
    return make_catalog_domain("punctured_disc(1)")


@pytest.fixture(scope="session")
def ball2():
    return make_catalog_domain(("ball", 2))


@pytest.fixture(scope="session")
def polydisc2():
    return make_catalog_domain(("polydisc", 2, (1.0, 1.0)))


@pytest.fixture(scope="session")
def hartogs3():
    return make_catalog_domain(("hartogs", 3))


@pytest.fixture(scope="session")
def fk3():
    return make_catalog_domain(("fk_ball_prime", 3))


def random_member(D, seed=0):
    from pbergman import sample

    return sample(D, seed, 1).points[0]


def members(D, count, seed=0):
    from pbergman import sample

    return sample(D, seed, count).points
