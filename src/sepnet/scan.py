"""Distance-vs-mixing-parameter sweeps over a target family.

Each grid point is an independent training run with its own derived seed, so
sweeps parallelize across processes and give identical results for any worker
count.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from .linalg import DensityMatrix
from .model import SeparabilityStructure
from .optim import TrainConfig, derived_seed, train
from .states import FamilySpec


@dataclass(frozen=True)
class ScanPoint:
    q: float
    distance: float
    status: str
    seed: int
    epochs: int
    batches: int
    wall_time: float
    # the trained state, which ``distance`` is measured from; left out of ==
    # and hash only because a frozen dataclass hashes the fields it compares,
    # and a DensityMatrix is unhashable
    state: DensityMatrix = field(compare=False)
    symmetry: str | None = None    # the twirl that ``state`` is the image of, if any
    k_terms: int | None = None     # the terms per partition that the run trained


def _scan_point(args) -> ScanPoint:
    family, q, structure, config, index = args
    cfg = replace(config, seed=derived_seed(config.seed, index))
    result = train(family.make(q).matrix, structure, cfg)
    return ScanPoint(
        q=float(q),
        distance=result.distance,
        status=result.status,
        seed=cfg.seed,
        epochs=result.epochs,
        batches=result.batches,
        wall_time=result.wall_time,
        state=result.state,
        symmetry=result.symmetry,
        k_terms=result.k_terms,
    )


def scan_family(
    family: FamilySpec,
    qs,
    structure: SeparabilityStructure,
    config: TrainConfig | None = None,
    workers: int = 1,
) -> list[ScanPoint]:
    """Train one model per grid point; returns points in grid order.

    ``config.seed`` acts as the master seed: point i always trains with the
    seed derived from (master, i), independent of scheduling.
    """
    if config is None:
        config = TrainConfig()
    tasks = [(family, float(q), structure, config, i) for i, q in enumerate(qs)]
    if workers <= 1:
        return [_scan_point(t) for t in tasks]
    # imported here: it loads multiprocessing, which a sequential scan never needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_scan_point, tasks))
