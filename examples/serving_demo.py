"""Serving demo: a multi-basin storm scenario through the full stack.

Builds a :class:`~repro.scenario.ScenarioFactory` — four named
Gulf-coast basins with heterogeneous native meshes, tidal regimes, and
parametric storm tracks, all pinned by one seed — and samples a
tenant-weighted Poisson arrival trace with a storm-spike burst on one
basin (:func:`~repro.scenario.simulate_trace`).  The trace replays
through a :class:`~repro.serve.server.ForecastServer` over two
key-affinity replicas (:func:`~repro.scenario.replay_trace`), so the
demo exercises what production traffic would:

* each basin's rolling-forecast requests pin to one replica (router
  affinity) and their between-advance duplicates are answered by the
  result cache / in-flight dedup instead of the engine,
* cache-busting *unique* requests coalesce into micro-batched
  forwards,
* the report accounts for every request exactly:
  ``offered == served + cached + shed``.

An ensemble request rides along, and mid-demo a new model version is
**hot-swapped** through the pool (``server.deploy``) with zero
downtime.  Prints the per-basin accounting next to the server's
latency, occupancy, cache, and version metrics — the accounting
``tests/test_scenario_traffic.py`` pins deterministically.
"""

import numpy as np

import _bootstrap  # noqa: F401

from repro.data import Normalizer
from repro.hpc import ServingCapacityModel
from repro.scenario import (
    ScenarioFactory,
    StormSpike,
    TrafficModel,
    replay_trace,
    simulate_trace,
)
from repro.serve import ForecastServer
from repro.swin import CoastalSurrogate, SurrogateConfig
from repro.workflow import ForecastEngine

T, D = 4, 6
VARS = ("u3", "v3", "w3", "zeta")


def main():
    cfg = SurrogateConfig(
        mesh=(16, 16, D), time_steps=T,
        patch3d=(4, 4, 2), patch2d=(4, 4),
        embed_dim=8, num_heads=(2, 4, 8), depths=(2, 2, 2),
        window_first=(2, 2, 2, 2), window_rest=(2, 2, 2, 2),
    )
    norm = Normalizer({v: 0.0 for v in VARS}, {v: 1.0 for v in VARS})
    engine = ForecastEngine(CoastalSurrogate(cfg), norm)

    # one seed pins the whole scenario: basins, bathymetry, tides,
    # storm tracks, and the arrival trace
    factory = ScenarioFactory(seed=0)
    model = TrafficModel.from_factory(
        factory, base_rate=4.0, unique_fraction=0.25,
        advance_every_s=1.0,
        spikes={"boca-grande": StormSpike(center_s=2.0, width_s=0.4,
                                          amplitude=6.0)})
    trace = simulate_trace(model, duration_s=4.0, seed=0)
    print(f"scenario: {len(factory.basin_names)} basins "
          f"({', '.join(factory.basin_names)}), "
          f"{trace.n_requests} requests over {trace.duration_s:.0f}s "
          f"with a storm spike on boca-grande;\n"
          f"serving on 2 key-affinity replicas "
          f"(max_batch=8, 16 MiB result cache)…")

    with ForecastServer(engine, workers=2, router="key-affinity",
                        max_batch=8, cache_bytes=16 << 20) as server:
        # replay at 4x speed; the harness paces arrivals, routes each
        # request by its basin name, and accounts for every one
        report = replay_trace(trace, server, factory, mode="wall",
                              time_scale=0.25)
        report.check()      # offered == served + cached + shed, exactly

        # an ensemble request rides the same pool: members shard
        # across the replicas' batch slots
        storm_window = factory.basin("boca-grande").window(2.0 * 600.0)
        ens = server.submit_ensemble(storm_window, n_members=4,
                                     seed=7).result(timeout=120)

        # the crowd comes back for the trending basin: its rolling
        # window is resident in the result cache, so the replay wave
        # never touches the engine
        trending = factory.rolling("punta-gorda").current
        replay_wave = [server.submit(trending, route_key="punta-gorda")
                       for _ in range(10)]
        wave_results = [f.result(timeout=120) for f in replay_wave]
        hits = sum(f.cache_hit for f in replay_wave)
        assert all(np.array_equal(wave_results[0].fields.zeta,
                                  r.fields.zeta) for r in wave_results)

        # the engines' own plan counters, read before the hot-swap
        # retires version 1's engine
        plans = list(server.pool.plan_stats().values())
        replays = sum(p["hits"] for p in plans)
        forwards = replays + sum(p["misses"] for p in plans)
        computed = sum(p["total_rows"] for p in plans)
        pad = sum(p["padded_rows"] for p in plans) / max(computed, 1)

        # a new checkpoint lands: hot-swap it through the live pool.
        # The roll surges a warmed version-2 replica before draining
        # each version-1 replica, so capacity never drops; the result
        # cache is invalidated (its entries came from the old weights)
        retrained = CoastalSurrogate(cfg)
        version = server.deploy(retrained)
        swapped = server.forecast(storm_window)
        direct = ForecastEngine(retrained, norm).forecast_batch(
            [storm_window])[0]
        assert np.array_equal(swapped.fields.zeta, direct.fields.zeta), \
            "post-swap responses must be the new version's numbers"
        metrics = server.metrics()

    acc = report.accounting()
    print(f"\n  accounting             : offered {acc['offered']} == "
          f"served {acc['served']} + cached {acc['cached']} + "
          f"shed {acc['shed']} (lost {acc['lost']})")
    for name in factory.basin_names:
        b = report.per_basin[name]
        mesh = "x".join(map(str, factory.basin(name).native_mesh))
        workers = ",".join(map(str, sorted(b.workers))) or "-"
        print(f"    {name:<14s} ({mesh:>7s}): offered {b.offered:>3d}  "
              f"hit rate {b.hit_rate:4.0%}  replica[{workers}]  "
              f"p95 {b.latency_p95_ms:.0f}ms")
    print(f"  sustained              : {report.sustained_qps():.0f} req/s "
          f"at 4x replay speed")
    print(f"  ensemble               : {ens.n_members} members, "
          f"spread ζ max {ens.spread.zeta.max():.3f} m")
    print(f"  engine forwards        : {metrics['batches']:.0f} "
          f"(mean occupancy {metrics['mean_occupancy']:.2f}, "
          f"max {metrics['max_occupancy']:.0f})")
    print(f"  compiled plan replays  : {replays} of {forwards} version-1 "
          f"forwards (bucket set warmed, partial batches padded in; "
          f"pad fraction {pad:.2f}; bitwise ≡ eager)")
    print(f"  latency p50 / p95      : {metrics['latency_p50_ms']:.1f} / "
          f"{metrics['latency_p95_ms']:.1f} ms")
    print(f"  cache hits / misses    : {metrics['cache_hits']:.0f} / "
          f"{metrics['cache_misses']:.0f} "
          f"(hit rate {metrics['cache_hit_rate']:.0%}; "
          f"replay wave {hits}/10 hits)")
    print(f"  in-flight dedups       : {metrics['deduped_requests']:.0f} "
          f"duplicate requests rode a leader's forward")
    print(f"  hot-swap               : now serving version "
          f"{metrics['engine_version']:.0f} ({version.source}; "
          f"{metrics['deploys']:.0f} deploy, zero downtime, "
          f"post-swap forecast bitwise ≡ new model)")

    batches = server.pool.metrics.batches
    if len({b.size for b in batches}) > 1:
        model = ServingCapacityModel.from_batch_log(batches)
        print(f"  capacity model         : "
              f"{1e3 * model.dispatch_seconds:.1f}ms dispatch + "
              f"{1e3 * model.per_request_seconds:.1f}ms/request "
              f"→ ≈{model.saturation_throughput:.0f} req/s saturated")


if __name__ == "__main__":
    main()
