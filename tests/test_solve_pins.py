"""Bit pins of whole solves: residual histories and final states of tiny
fixed cases, against a fixed record.

Every other parity test compares two paths of the same tree; these
compare the tree with a record, so a change that moves any bit of a
solve — serial or distributed — fails here even when it moves both
paths alike.  A change that means to move a pin says so in CHANGES.md
and rewrites the record from :func:`fingerprint`.

Cases: NSU3D laminar and SA at one and three multigrid levels, and
Cart3D at two, each run serially and on ``sim`` x4 with overlap.
"""

import hashlib

import pytest

from repro import api
from repro.runtime import RuntimeConfig

NCYCLES = 2


def nsu3d(turbulence, mg_levels):
    mesh = api.bump_channel(ni=8, nj=4, nk=6, wall_spacing=5e-3, ratio=1.3,
                            bump_height=0.03)
    return api.make_nsu3d_solver(mesh, mach=0.5, mg_levels=mg_levels,
                                 turbulence=turbulence, cfl=8.0)


def cart3d(mg_levels):
    return api.make_cart3d_solver(
        api.Sphere(center=[0.5, 0.5, 0.5], radius=0.15), dim=2,
        base_level=4, max_level=5, mg_levels=mg_levels, mach=0.4,
    )


#: name -> (solver factory, decomposer, distributed cfl)
CASES = {
    "nsu3d-laminar-mg1": (lambda: nsu3d(False, 1), api.make_parallel_nsu3d,
                          8.0),
    "nsu3d-laminar-mg3": (lambda: nsu3d(False, 3), api.make_parallel_nsu3d,
                          8.0),
    "nsu3d-sa-mg1": (lambda: nsu3d(True, 1), api.make_parallel_nsu3d, 8.0),
    "nsu3d-sa-mg3": (lambda: nsu3d(True, 3), api.make_parallel_nsu3d, 8.0),
    "cart3d-mg2": (lambda: cart3d(2), api.make_parallel_cart3d, 2.0),
}


def fingerprint(case: str, path: str) -> dict:
    """``float.hex`` residual history and a digest of the final state of
    ``NCYCLES`` cycles of ``case`` on ``path`` (``serial`` or
    ``sim4-overlap``)."""
    make, decompose, cfl = CASES[case]
    solver = make()
    if path == "serial":
        for _ in range(NCYCLES):
            solver.run_cycle()
        q, history = solver.q, solver.history.residuals
    else:
        par = decompose(solver, 4, config=RuntimeConfig(overlap=True))
        q, history = par.solve(NCYCLES, cfl=cfl)
    return {
        "history": [float(r).hex() for r in history],
        "q": hashlib.sha256(q.tobytes()).hexdigest()[:16],
    }


#: (case, path) -> fingerprint
PINS = {
    ('cart3d-mg2', 'serial'): {
        'history': [
            '0x1.698d719ca0606p+1',
            '0x1.9e290a5ae6371p+0',
        ],
        'q': '76b8bdb16b560a35',
    },
    ('cart3d-mg2', 'sim4-overlap'): {
        'history': [
            '0x1.698d719ca0609p+1',
            '0x1.9e290a5ae6375p+0',
        ],
        'q': '948c3f4f2dff2e38',
    },
    ('nsu3d-laminar-mg1', 'serial'): {
        'history': [
            '0x1.5a474ef082ee1p-3',
            '0x1.aeaf4f915ac2cp-4',
        ],
        'q': 'd677204689ea8ac2',
    },
    ('nsu3d-laminar-mg1', 'sim4-overlap'): {
        'history': [
            '0x1.9d500470fac97p-4',
            '0x1.6ef7c4689a902p-5',
        ],
        'q': 'd855e5c44308b42d',
    },
    ('nsu3d-laminar-mg3', 'serial'): {
        'history': [
            '0x1.1d98c7904c485p-3',
            '0x1.416652cff7b5ap-4',
        ],
        'q': '3d6158a818729f54',
    },
    ('nsu3d-laminar-mg3', 'sim4-overlap'): {
        'history': [
            '0x1.363a46ad6f97ep-4',
            '0x1.21a42fc565a3ap-5',
        ],
        'q': 'ee3cf7e5727d5bb4',
    },
    ('nsu3d-sa-mg1', 'serial'): {
        'history': [
            '0x1.5a478cab8da78p-3',
            '0x1.aeb04c6a67ed9p-4',
        ],
        'q': '79a25b0b7888ba62',
    },
    ('nsu3d-sa-mg1', 'sim4-overlap'): {
        'history': [
            '0x1.9d50f882802fcp-4',
            '0x1.6ef9dfb111b8bp-5',
        ],
        'q': '9b102cbda260e61a',
    },
    ('nsu3d-sa-mg3', 'serial'): {
        'history': [
            '0x1.1d9921e654df0p-3',
            '0x1.41675973c4667p-4',
        ],
        'q': 'c554f7925ee9b865',
    },
    ('nsu3d-sa-mg3', 'sim4-overlap'): {
        'history': [
            '0x1.363b230913584p-4',
            '0x1.21a329a284cfbp-5',
        ],
        'q': '1a397cd1f3addd5d',
    },
}


@pytest.mark.parametrize("path", ["serial", "sim4-overlap"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_solve_matches_its_pin(case, path):
    assert fingerprint(case, path) == PINS[case, path]
