#!/usr/bin/env python3
"""Full sampling-strategy x sharing-scenario sweep on the default world.

Builds the 30-user / 30-day city in memory, then runs initial-period,
random-subsampling, and top-router strategies under all three sharing
scenarios, writing the grid CSVs and one coverage-vs-day plot per strategy.

Usage: python scripts/run_sampling_grid.py [--out results/grid] [--seed 7]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wifimob.experiments import (
    InitialPeriod,
    RandomFraction,
    Scenario,
    TopRouters,
    prepare_experiment_data,
    run_experiment,
    write_coverage_plots,
    write_experiment_grid_csv,
    write_histograms_csv,
)
from wifimob.synthgen import WorldSpec, generate_world, simulate_sensor_arrays


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/grid")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--users", type=int, default=30)
    parser.add_argument("--days", type=int, default=30)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    spec = WorldSpec(seed=args.seed, n_users=args.users, n_days=args.days)
    print(f"generating world (seed {spec.seed}, {spec.n_users} users, {spec.n_days} days)...")
    gt = generate_world(spec)
    arrays = simulate_sensor_arrays(gt, spec)
    data = prepare_experiment_data(arrays)
    n_events = data.pairs.n_events()
    f_daily = spec.n_users * spec.n_days / n_events
    print(f"{gt.n_static} static APs, {n_events} paired fix events "
          f"({n_events / (spec.n_users * spec.n_days):.1f}/user/day)")

    strategies = [
        InitialPeriod(days=7),
        InitialPeriod(days=28),
        RandomFraction(f=f_daily, seed=1),
        RandomFraction(f=4 * f_daily, seed=1),
        TopRouters(k=5),
        TopRouters(k=20),
    ]
    results = []
    for strategy in strategies:
        for scenario in Scenario:
            res = run_experiment(data, strategy, scenario)
            results.append(res)
            name, param = strategy.label()
            print(f"  {name}({param}) x {scenario.value}: "
                  f"mean coverage {res.summary['mean_coverage']:.3f}")

    write_experiment_grid_csv(results, out / "experiment_grid.csv")
    write_histograms_csv(results, out / "histograms.csv")
    write_coverage_plots(results, out)
    print(f"wrote {out}/experiment_grid.csv, histograms.csv, and plots")
    return 0


if __name__ == "__main__":
    sys.exit(main())
