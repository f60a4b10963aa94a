"""Search-and-rescue scenario: long-distance, time-critical flight.

The second mission class the paper motivates: medical equipment must reach
patients quickly, so mission time matters most and the goal is far away.
This example compares RoboRun against the static baseline at two goal
distances — all four missions declared as scenario specs and flown as one
campaign — and reports how much each design's mission time grows: the
goal-distance sensitivity of Figure 8d (the baseline, pinned to its
conservative fixed velocity, suffers more from longer missions).

Run with::

    python examples/search_and_rescue.py
"""

from repro import CampaignRunner, EnvironmentConfig, MissionConfig, ScenarioSpec

GOAL_DISTANCES = (100.0, 180.0)
DESIGNS = ("spatial_oblivious", "roborun")


def main() -> None:
    specs = [
        ScenarioSpec(
            name=f"sar_{design}_{int(distance)}m",
            design=design,
            environment=EnvironmentConfig(
                obstacle_density=0.3,
                obstacle_spread=40.0,
                goal_distance=distance,
                seed=11,
            ),
            mission=MissionConfig(max_decisions=700, max_mission_time_s=2500.0),
        )
        for design in DESIGNS
        for distance in GOAL_DISTANCES
    ]

    print("Search and rescue: mission time vs goal distance")
    print(f"Flying {len(specs)} scenarios ...\n")
    campaign = CampaignRunner().run(specs)

    print(
        f"{'design':<20}"
        + "".join(f"{int(d)} m".rjust(12) for d in GOAL_DISTANCES)
        + "ratio".rjust(10)
    )
    for design in DESIGNS:
        outcomes = [o for o in campaign.outcomes if o.spec.design == design]
        failed = [o for o in outcomes if not o.ok]
        if failed:
            errors = ", ".join((o.error or {}).get("type", "?") for o in failed)
            print(f"{design:<20}  {len(failed)} scenario(s) failed to run: {errors}")
            continue
        times = [o.metrics["mission_time_s"] for o in outcomes]
        ratio = times[-1] / times[0] if times[0] > 0 else float("inf")
        print(f"{design:<20}" + "".join(f"{t:12.1f}" for t in times) + f"{ratio:10.2f}")
    print("\nExpected shape: the baseline's mission time grows faster with goal"
          " distance than RoboRun's, because RoboRun crosses the open middle of"
          " the mission at high velocity.")


if __name__ == "__main__":
    main()
