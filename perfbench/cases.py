"""Workload definitions and reference values of the benchmark.

Everything the benchmark runs and checks against is defined here, in
the benchmark's own files, so that a change to the program cannot move
the benchmark by editing one of its constants.  The reference values
were produced by full runs of the simulator at the commit that
introduced the benchmark; a change that alters any simulated statistic
makes the output checks fail, which is the point: a speed change must
leave every simulated number identical.
"""

from collections import namedtuple

#: One reference simulation point: a workload binary on a named config.
Case = namedtuple(
    "Case", "name workload variant input_name config scale budget"
)

#: The four reference cases: one memory-bound baseline, one DFD binary
#: (prefetch and MSHR pressure), one TQ binary (queue traffic) and one
#: CFD binary.  ``config`` is a service config name (``baseline`` is
#: the Sandy Bridge core, ``memory-bound`` the paper's memory-bound one).
DETAIL_CASES = (
    Case("astar_base_membound", "astar_r1", "base", "BigLakes",
         "memory-bound", 0.125, 20_000),
    Case("astar_dfd", "astar_r1", "dfd", "Rivers",
         "memory-bound", 0.125, 15_000),
    Case("bzip2_tq", "bzip2", "tq", "chicken", "baseline", 0.125, 20_000),
    Case("soplex_cfd", "soplex", "cfd", "ref", "baseline", 0.125, 20_000),
)



def make_config(name, **overrides):
    """The core config named *name* (``baseline`` or ``memory-bound``)."""
    from repro.core import memory_bound_config, sandy_bridge_config

    factory = {"baseline": sandy_bridge_config,
               "memory-bound": memory_bound_config}[name]
    return factory(**overrides)


#: Exact full-detail statistics of each detail case (workload seed 1).
DETAIL_REFERENCE = {
    "astar_base_membound": {"retired": 7820, "cycles": 11069,
                            "mispredicts": 219},
    "astar_dfd": {"retired": 12137, "cycles": 10545, "mispredicts": 211},
    "bzip2_tq": {"retired": 20000, "cycles": 9994, "mispredicts": 4},
    "soplex_cfd": {"retired": 13168, "cycles": 7183, "mispredicts": 17},
}

#: The case each in-process set-up repetition simulates (the fastest
#: one of each mode); the other cases run once after the set-up.
WARMUP_CASE = {"detail": "soplex_cfd", "sampled": "bzip2_tq"}

#: The sampled workload runs the same four binaries larger: scale 2.0,
#: a 600k budget (every case halts inside it) and the tuned plan.
SAMPLED_SCALE = 2.0
SAMPLED_BUDGET = 600_000
SAMPLED_PLAN = "interval=4000,warmup=200,period=28000,head=2000,tail=2000"
SAMPLED_CASES = tuple(
    case._replace(scale=SAMPLED_SCALE, budget=SAMPLED_BUDGET)
    for case in DETAIL_CASES
)

#: Banked full-detail IPC of each sampled case (the accuracy truth).
FULL_DETAIL_IPC = {
    "astar_base_membound": 0.512396,
    "astar_dfd": 1.070656,
    "bzip2_tq": 2.149817,
    "soplex_cfd": 2.074316,
}

#: Exact sampled IPC of each case: a sampled run is deterministic, so
#: its estimate must repeat bit for bit.
SAMPLED_IPC = {
    "astar_base_membound": 0.5125612127177237,
    "astar_dfd": 1.065953018822366,
    "bzip2_tq": 2.1404768780683803,
    "soplex_cfd": 2.0423062408844737,
}

#: Largest |sampled - full| / full IPC error a sampled case may show.
IPC_GATE_PCT = 2.0

# ------------------------------------------------------------ service

#: Offered load: Poisson arrivals at this fixed rate (jobs per second).
SERVICE_RATE = 2.5
#: The sweep axis of the figure-style traffic (reorder-buffer sizes).
ROB_AXIS = tuple(range(48, 225, 4))
#: Instruction budget of each binary's points, chosen so that every
#: point costs about the same host time (about 0.1 s on the reference
#: host): a job's latency then depends on the service, not on which
#: binary the seed happened to draw, and a batch rarely holds up the
#: arrivals behind it.
SERVICE_BUDGETS = {
    "astar_base_membound": 1000,
    "astar_dfd": 1500,
    "bzip2_tq": 3000,
    "soplex_cfd": 2500,
}
#: Scale of the service points (short full-detail runs).
SERVICE_SCALE = 0.125
#: Share of fresh points whose results are put in the result cache
#: during set-up, so cache reads sit beside cache writes.
WARM_SHARE = 0.2
#: Share of arrivals that are the second tenant re-submitting the point
#: the first tenant submitted last (exercises dedup of in-flight jobs).
DUP_SHARE = 0.15
#: Tenants of the two clients the load generator plays.
TENANTS = ("alpha", "beta")
#: The client polls ``GET /jobs/<id>`` at this period, like
#: ``repro submit --url --wait``.
POLL_S = 0.2
#: A job not settled this long after it was due counts as lost.
JOB_DEADLINE_S = 10.0
