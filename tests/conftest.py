import pytest

from mvlab.evolution import evolve_schrodinger
from mvlab.fields import PhysicalParams, SpatialGrid, free_potential, make_gaussian_packet


@pytest.fixture(scope="session")
def refinement_records():
    """The refinement study's free Gaussian records, evolved once per session.

    sigma=1 on [-16, 16) to t=1 at stride 25: the base record at 2048 points
    and dt=1e-4 and the refined one at 4096 points and dt=5e-5, keyed by
    n_points. Consumers only read them; the polar stack each record holds is
    shared between them too.
    """
    params = PhysicalParams()
    records = {}
    for n, dt in ((2048, 1e-4), (4096, 5e-5)):
        g = SpatialGrid(-16.0, 16.0, n)
        wf0 = make_gaussian_packet(g, 0.0, 1.0, 0.0, params)
        records[n] = evolve_schrodinger(wf0, free_potential(g), params, dt, int(round(1.0 / dt)),
                                        snapshot_stride=25)
    return records
