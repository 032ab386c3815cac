"""The package's value types: equality, hashing, repr text and immutability."""

import numpy as np
import pytest

from oqsim.analysis import MonotonicityVerdict, ResourceReport
from oqsim.circuit import MemorySpec
from oqsim.cli import ExperimentConfig
from oqsim.engine import Observable
from oqsim.qmath import DensityMatrix, Wire

RHO = DensityMatrix(np.diag([0.0, 1.0]), (Wire("q"),))

# type -> (a maker of one instance from fixed field values, its repr, a field to set)
CASES = {
    "Wire": (lambda: Wire("q"), "Wire(label='q', dim=2)", "dim"),
    "MonotonicityVerdict": (
        lambda: MonotonicityVerdict(False, 3, 0.25),
        "MonotonicityVerdict(monotone=False, first_violation=3, max_revival=0.25)",
        "monotone",
    ),
    "ResourceReport": (
        lambda: ResourceReport(3, 5, 4, 50),
        "ResourceReport(qubit_count=3, gates_per_step=5, unitary_gates_per_step=4, "
        "total_gates=50)",
        "total_gates",
    ),
    "ExperimentConfig": (
        lambda: ExperimentConfig("dephasing", ("markovian",), "x", 10, RHO, ("p+",), theta=0.5),
        "ExperimentConfig(channel='dephasing', modes=('markovian',), label='x', steps=10, "
        "initial=DensityMatrix(dim=2, wires=[q:2]), observables=('p+',), theta=0.5, "
        "thetas=None, k=None, px=0.0, py=0.0, pz=0.0, channel_file=None, csv=None, svg=None, "
        "circuit=None)",
        "steps",
    ),
    "MemorySpec": (lambda: MemorySpec(2, (1, 0.5)), "MemorySpec(k=2, thetas=(1.0, 0.5))", "k"),
    "Observable": (
        lambda: Observable("p0", [[1, 0], [0, 0]]),
        "Observable(name='p0', projector=array([[1.+0.j, 0.+0.j],\n       [0.+0.j, 0.+0.j]]))",
        "name",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_value_semantics(name):
    make, text, field = CASES[name]
    a, b = make(), make()
    assert repr(a) == text
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    if name == "Observable":  # an ndarray field: compared entrywise, and never hashable
        assert a.name == b.name and np.array_equal(a.projector, b.projector) and a == a
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert a == b and hash(a) == hash(b)


def test_memory_spec_stores_its_angles_as_floats():
    assert [type(t) for t in MemorySpec(3, (0, 1, np.float32(0.5))).thetas] == [float] * 3


def test_observable_stores_a_read_only_complex_copy():
    p = np.diag([1.0, 0.0])
    obs = Observable("p0", p)
    p[0, 0] = 0.0
    assert obs.projector.dtype == complex and obs.projector[0, 0] == 1.0
    assert not obs.projector.flags.writeable
