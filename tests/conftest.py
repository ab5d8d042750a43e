import multiprocessing
import pickle

import pytest

from ccl import classify_eca, complexity


@pytest.fixture(scope="session")
def eca_report_200():
    """Full 256-rule classification at t=200, shared by the tests that read
    cluster memberships and orderings off it."""
    return classify_eca(200, threads=4)


@pytest.fixture(scope="session")
def coefficient_sweep():
    """The coefficient sweep of all 256 ECA, its ``_grid`` arguments and
    lengths tables, computed once and shared by criterion 07 and the golden
    pin of those lengths."""
    from test_golden_lengths import coefficient_grid
    return coefficient_grid()


@pytest.fixture
def evolutions(monkeypatch):
    """The arguments of every CA evolution run during the test, recorded
    by a stand-in for ``evolve_ca`` in ``ccl.complexity``, the one module
    that evolves a CA for a measurement."""
    evolved = []
    evolve = complexity.evolve_ca

    def counting_evolve(*args, **kwargs):
        evolved.append(args)
        return evolve(*args, **kwargs)

    monkeypatch.setattr(complexity, "evolve_ca", counting_evolve)
    return evolved


@pytest.fixture
def pool_path(monkeypatch):
    """Every grid of more than one cell goes through a pool of up to 2
    worker processes, however few CPUs there are.  Returns the start
    methods the pools ask for."""
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    methods = []
    get_context = multiprocessing.get_context

    def recording(method):
        methods.append(method)
        return get_context(method)

    monkeypatch.setattr("multiprocessing.get_context", recording)
    return methods


class RecordingContext:
    """Stand-in for the ``fork`` context that records the worker count of
    each pool and maps in this process, so no process is started."""

    def __init__(self, processes):
        self.processes = processes

    def Pool(self, processes):
        self.processes.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=None):
        return list(map(fn, items))


@pytest.fixture
def recorded_pools(monkeypatch):
    """The worker count of each pool asked for; none is started."""
    processes = []
    monkeypatch.setattr("multiprocessing.get_context",
                        lambda method: RecordingContext(processes))
    return processes


class ChunkingContext(RecordingContext):
    """A ``RecordingContext`` whose pools map as a fork pool's ``map`` does:
    in chunks of ceil(n / (4 * workers)) items, each chunk pickled with its
    own copy of ``fn``."""

    def map(self, fn, items):
        items = list(items)
        size = -(-len(items) // (4 * self.processes[-1]))
        out = []
        for i in range(0, len(items), size):
            task = pickle.loads(pickle.dumps((fn, items[i:i + size])))
            out += map(*task)
        return out


@pytest.fixture
def chunked_pools(monkeypatch):
    """Pools of up to 2 workers, however few CPUs there are, that map in
    this process in ``Pool.map``'s default chunks, each with its own copy
    of the mapped function; none is started.  Returns the worker count of
    each pool."""
    processes = []
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setattr("multiprocessing.get_context",
                        lambda method: ChunkingContext(processes))
    return processes
