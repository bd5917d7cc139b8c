import pytest

from gasketlab import build_level_graph, build_step_kernel, walk


@pytest.fixture(scope="session")
def graphs():
    cache = {}

    def get(m):
        if m not in cache:
            cache[m] = build_level_graph(m)
        return cache[m]

    return get


@pytest.fixture(scope="session")
def kernels(graphs):
    cache = {}

    def get(m):
        if m not in cache:
            cache[m] = build_step_kernel(graphs(m))
        return cache[m]

    return get


@pytest.fixture
def pool_spy(monkeypatch):
    """The max_workers of every process pool the walk starts, in order."""
    pools = []

    class Pool(walk.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(walk, "ProcessPoolExecutor", Pool)
    return pools
