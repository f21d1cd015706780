"""Reference results for the sweep tests, computed without any sweep."""

import json


def stats_blobs(outcomes):
    """Each outcome's ``stats.to_dict()`` as canonical JSON."""
    return [
        json.dumps(o.result.stats.to_dict(), sort_keys=True)
        for o in outcomes
    ]


def direct_stats_blobs(points):
    """What :func:`stats_blobs` must read for full-detail *points*: each
    point built and run by a direct :meth:`Simulator.run`, so the
    reference never goes through the driver under test."""
    from repro.core import sandy_bridge_config
    from repro.core.simulator import Simulator
    from repro.workloads import get_workload

    blobs = []
    for point in points:
        built = get_workload(point.workload).build(
            point.variant, point.input_name, point.scale, point.seed
        )
        config = point.config if point.config is not None else sandy_bridge_config()
        result = Simulator(built.program, config).run(
            point.max_instructions, point.warmup_instructions
        )
        blobs.append(json.dumps(result.stats.to_dict(), sort_keys=True))
    return blobs
