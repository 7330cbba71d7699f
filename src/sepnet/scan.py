"""Distance-vs-mixing-parameter sweeps over a target family.

Each grid point is an independent training run with its own derived seed, so
sweeps parallelize across processes and give identical results for any worker
count.  A :class:`ScanPoint` is the run's :class:`~sepnet.optim.TrainResult`,
with its model, state and history, plus the point's ``q``.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .model import SeparabilityStructure
from .optim import TrainConfig, TrainResult, derived_seed, train
from .states import FamilySpec


@dataclass(kw_only=True)
class ScanPoint(TrainResult):
    """One grid point; ``seed`` is the one it trained with, ``derived_seed(master, i)``.

    With ``restarts > 1`` the winning restart's seed is ``model.seed``.
    """

    q: float


def _scan_point(args) -> ScanPoint:
    family, q, structure, config, index = args
    cfg = replace(config, seed=derived_seed(config.seed, index))
    result = train(family.make(q).matrix, structure, cfg)
    return ScanPoint(**{**vars(result), "seed": cfg.seed}, q=float(q))


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
